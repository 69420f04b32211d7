package sharded

// Pool-level elastic capacity: Grow fans out to every shard and re-commits
// the manifest; elastic reopen adopts grown geometry, including the torn
// state where shards grew but the manifest rewrite was lost.

import (
	"fmt"
	"testing"

	"repro/logfree"
)

func TestPoolGrowMem(t *testing.T) {
	p, err := Open(WithShards(4), WithShardSize(256<<10), WithMaxShardSize(4<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got := p.SizeBytes(); got != 4*(256<<10) {
		t.Fatalf("SizeBytes = %d, want %d", got, 4*(256<<10))
	}
	if got := p.MaxSizeBytes(); got != 4*(4<<20) {
		t.Fatalf("MaxSizeBytes = %d, want %d", got, 4*(4<<20))
	}
	if err := p.Grow(4 << 20); err != nil {
		t.Fatal(err)
	}
	if got := p.SizeBytes(); got != 4<<20 {
		t.Fatalf("SizeBytes after Grow = %d, want %d", got, 4<<20)
	}
	for i, rt := range p.Runtimes() {
		if got := rt.SizeBytes(); got != 1<<20 {
			t.Fatalf("shard %d size = %d, want %d", i, got, 1<<20)
		}
	}
	if err := p.Grow(64 << 20); err == nil {
		t.Fatal("Grow past the per-shard reserve must fail")
	}
}

func TestPoolGrowFileReopen(t *testing.T) {
	dir := t.TempDir()
	open := func() *Pool {
		p, err := Open(WithShards(2), WithShardSize(256<<10), WithMaxShardSize(4<<20),
			WithDevice(logfree.FileDevice(dir)))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := open()
	m, err := p.Map("t", 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := m.Set([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Grow(2 << 20); err != nil {
		t.Fatal(err)
	}
	grown := p.SizeBytes()
	if grown != 2<<20 {
		t.Fatalf("SizeBytes after Grow = %d, want %d", grown, 2<<20)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Elastic reopen with the ORIGINAL shard size adopts the grown geometry
	// from the rewritten manifest.
	p2 := open()
	defer p2.Close()
	if !p2.Recovered() {
		t.Fatal("reopen must attach")
	}
	if got := p2.SizeBytes(); got != grown {
		t.Fatalf("reopened SizeBytes = %d, want %d", got, grown)
	}
	m2, err := p2.Map("t", 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if v, ok := m2.Get([]byte(fmt.Sprintf("k%03d", i))); !ok || string(v) != "v" {
			t.Fatalf("k%03d lost across grow+reopen", i)
		}
	}
}

// TestPoolGrowTornManifest reopens a pool whose shards grew but whose
// manifest rewrite was lost (crash between the two): the elastic path adopts
// each shard's committed capacity, and re-running Grow reconverges the
// manifest.
func TestPoolGrowTornManifest(t *testing.T) {
	dir := t.TempDir()
	p, err := Open(WithShards(2), WithShardSize(256<<10), WithMaxShardSize(4<<20),
		WithDevice(logfree.FileDevice(dir)))
	if err != nil {
		t.Fatal(err)
	}
	oldManifest := manifest{
		Magic: manifestMagic, Version: manifestVersion,
		Shards: 2, ShardBytes: 256 << 10, Hash: routeHashID,
	}
	if err := p.Grow(2 << 20); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the torn state: shard files grown, manifest still old.
	if err := writeManifest(dir, oldManifest); err != nil {
		t.Fatal(err)
	}

	p2, err := Open(WithShards(2), WithShardSize(256<<10), WithMaxShardSize(4<<20),
		WithDevice(logfree.FileDevice(dir)))
	if err != nil {
		t.Fatalf("reopen after torn grow: %v", err)
	}
	defer p2.Close()
	if got := p2.SizeBytes(); got != 2<<20 {
		t.Fatalf("torn reopen SizeBytes = %d, want %d (shards' committed capacity)", got, 2<<20)
	}
	if err := p2.Grow(2 << 20); err != nil {
		t.Fatalf("reconverging Grow: %v", err)
	}
	man, ok, err := readManifest(dir, &config{})
	if err != nil || !ok {
		t.Fatalf("manifest after reconverge: ok=%v err=%v", ok, err)
	}
	if man.ShardBytes != 1<<20 {
		t.Fatalf("manifest ShardBytes = %d, want %d", man.ShardBytes, 1<<20)
	}
}
