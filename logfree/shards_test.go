package logfree

// A runtime of several parts: routing, where the parts live on disk, the
// manifest, parallel open and recovery, and the split Grow.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/nvram"
	"repro/internal/pmem"
)

const testShardSize = 8 << 20

func openMem(t *testing.T, shards int) *Runtime {
	t.Helper()
	p, err := New(WithShards(shards), WithSize(testShardSize))
	if err != nil {
		t.Fatalf("New(mem, %d shards): %v", shards, err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func openFile(t *testing.T, dir string, shards int) *Runtime {
	t.Helper()
	p, err := New(WithShards(shards), WithSize(testShardSize), WithDevice(FileDevice(dir)))
	if err != nil {
		t.Fatalf("New(%s, %d shards): %v", dir, shards, err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func tkey(i int) []byte { return fmt.Appendf(nil, "key-%05d", i) }
func tval(i int) []byte { return fmt.Appendf(nil, "val-%05d", i) }

// --- routing ---------------------------------------------------------------

func TestRoutingStableAcrossReopenAndBackends(t *testing.T) {
	dir := t.TempDir()
	fp := openFile(t, dir, 4)
	mp := openMem(t, 4)

	const n = 2000
	route := make([]int, n)
	for i := 0; i < n; i++ {
		route[i] = fp.partOf(tkey(i))
		if got := mp.partOf(tkey(i)); got != route[i] {
			t.Fatalf("key %d: file pool routes to shard %d, mem pool to %d", i, route[i], got)
		}
	}
	m, err := fp.Map("t", 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := m.Set(tkey(i), tval(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fp.Close(); err != nil {
		t.Fatal(err)
	}

	fp2 := openFile(t, dir, 0) // adopt topology from the manifest
	if !fp2.Recovered() {
		t.Fatal("reopened pool does not report Recovered")
	}
	if len(fp2.Parts()) != 4 {
		t.Fatalf("reopened pool has %d shards, want 4", len(fp2.Parts()))
	}
	m2, err := fp2.Map("t", 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := fp2.partOf(tkey(i)); got != route[i] {
			t.Fatalf("key %d routed to shard %d before reopen, %d after", i, route[i], got)
		}
		// The real invariant: the entry is findable, i.e. it lives on the
		// shard routing points at.
		v, ok := m2.Get(tkey(i))
		if !ok || !bytes.Equal(v, tval(i)) {
			t.Fatalf("key %d: Get after reopen = %q, %v", i, v, ok)
		}
	}
}

func TestRoutingSpreadsKeys(t *testing.T) {
	p := openMem(t, 8)
	counts := make([]int, len(p.Parts()))
	const n = 8192
	for i := 0; i < n; i++ {
		counts[p.partOf(tkey(i))]++
	}
	for s, c := range counts {
		// Mean is n/8 = 1024; demand every shard holds at least a quarter of
		// that, a very loose bound any decent hash clears by a mile.
		if c < n/8/4 {
			t.Fatalf("shard %d got only %d of %d sequential keys: %v", s, c, n, counts)
		}
	}
}

// --- what the device path means --------------------------------------------

// TestOneShardPoolIsTheDeviceItself: at one shard the path is the image, in
// a plain runtime's format with no manifest — a pool and a lone runtime open
// each other's files — and an unspecified count adopts it.
func TestOneShardPoolIsTheDeviceItself(t *testing.T) {
	path := filepath.Join(t.TempDir(), "one.pmem")
	p := openFile(t, path, 1)
	m, err := p.Map("t", 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Set(tkey(1), tval(1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || !st.Mode().IsRegular() {
		t.Fatalf("1-shard pool path is not a regular file: %v, %v", st, err)
	}

	rt, err := New(WithDevice(FileDevice(path)))
	if err != nil {
		t.Fatalf("plain runtime on a 1-shard pool's image: %v", err)
	}
	rm, err := rt.Map("t", 64)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := rm.Get(tkey(1)); !ok || !bytes.Equal(v, tval(1)) {
		t.Fatalf("pool's entry through a plain runtime: %q, %v", v, ok)
	}
	if err := rm.Set(tkey(2), tval(2)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	p2 := openFile(t, path, 0)
	if len(p2.Parts()) != 1 || !p2.Recovered() {
		t.Fatalf("adopted image: %d shards, recovered=%v", len(p2.Parts()), p2.Recovered())
	}
	m2, err := p2.Map("t", 64)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := m2.Get(tkey(2)); !ok || !bytes.Equal(v, tval(2)) {
		t.Fatalf("runtime's entry through the pool: %q, %v", v, ok)
	}
}

// TestOneShardManifestDirectoryStillOpens: directories written when a
// 1-shard pool still had a manifest keep opening — the manifest owns the
// topology of any directory that has one.
func TestOneShardManifestDirectoryStillOpens(t *testing.T) {
	dir := t.TempDir()
	rt, err := New(WithDevice(FileDevice(shardPath(dir, 0))), WithSize(testShardSize))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	writeFileT(t, manifestPath(dir), fmt.Sprintf(
		`{"magic":%q,"version":%d,"shards":1,"shard_bytes":%d,"hash":%q}`,
		manifestMagic, manifestVersion, testShardSize, routeHashID))
	p := openFile(t, dir, 1)
	if len(p.Parts()) != 1 || !p.Recovered() {
		t.Fatalf("1-shard manifest directory: %d shards, recovered=%v", len(p.Parts()), p.Recovered())
	}
}

// --- manifest rejects ------------------------------------------------------

// TestManifestRejects mirrors the backend header-reject table in
// backend_conformance_test.go at pool level: every way a pool directory can
// disagree with the open request must fail up front with a diagnostic, and
// never silently reformat or mis-route.
func TestManifestRejects(t *testing.T) {
	man := func(magic string, version, shards int, shardBytes uint64, hash string) string {
		return fmt.Sprintf(`{"magic":%q,"version":%d,"shards":%d,"shard_bytes":%d,"hash":%q}`,
			magic, version, shards, shardBytes, hash)
	}
	cases := []struct {
		name    string
		mutate  func(t *testing.T, dir string)
		opts    []Option
		wantErr string
	}{
		{
			name:    "corrupt-json",
			mutate:  func(t *testing.T, dir string) { writeFileT(t, manifestPath(dir), "{") },
			wantErr: "corrupt pool manifest",
		},
		{
			name: "wrong-magic",
			mutate: func(t *testing.T, dir string) {
				writeFileT(t, manifestPath(dir), man("BOGUS", manifestVersion, 2, testShardSize, routeHashID))
			},
			wantErr: "not a pool manifest",
		},
		{
			name: "wrong-version",
			mutate: func(t *testing.T, dir string) {
				writeFileT(t, manifestPath(dir), man(manifestMagic, manifestVersion+1, 2, testShardSize, routeHashID))
			},
			wantErr: "layout version",
		},
		{
			name: "non-power-of-two-shards",
			mutate: func(t *testing.T, dir string) {
				writeFileT(t, manifestPath(dir), man(manifestMagic, manifestVersion, 3, testShardSize, routeHashID))
			},
			wantErr: "not a power of two",
		},
		{
			name: "zero-shards",
			mutate: func(t *testing.T, dir string) {
				writeFileT(t, manifestPath(dir), man(manifestMagic, manifestVersion, 0, testShardSize, routeHashID))
			},
			wantErr: "not a power of two",
		},
		{
			name: "zero-shard-bytes",
			mutate: func(t *testing.T, dir string) {
				writeFileT(t, manifestPath(dir), man(manifestMagic, manifestVersion, 2, 0, routeHashID))
			},
			wantErr: "shard capacity is zero",
		},
		{
			name: "routing-hash-mismatch",
			mutate: func(t *testing.T, dir string) {
				writeFileT(t, manifestPath(dir), man(manifestMagic, manifestVersion, 2, testShardSize, "xxhash-v9"))
			},
			wantErr: "routed by hash",
		},
		{
			name:    "shard-count-disagreement",
			mutate:  func(t *testing.T, dir string) {},
			opts:    []Option{WithShards(4)},
			wantErr: "formatted with 2 shards, requested 4",
		},
		{
			name:    "shard-size-disagreement",
			mutate:  func(t *testing.T, dir string) {},
			opts:    []Option{WithSize(testShardSize * 2)},
			wantErr: "formatted for",
		},
		{
			name: "missing-shard-file",
			mutate: func(t *testing.T, dir string) {
				if err := os.Remove(shardPath(dir, 1)); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: "is missing",
		},
		{
			name: "shard-geometry-mismatch",
			mutate: func(t *testing.T, dir string) {
				// Manifest says a different (valid) capacity than the shard
				// files were formatted with: rejected by the shard's own
				// backend header check, surfaced as a shard-open failure.
				writeFileT(t, manifestPath(dir), man(manifestMagic, manifestVersion, 2, testShardSize*2, routeHashID))
			},
			wantErr: "opening shard 0 of 2",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			p, err := New(WithShards(2), WithSize(testShardSize), WithDevice(FileDevice(dir)))
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			tc.mutate(t, dir)
			p2, err := New(append([]Option{WithDevice(FileDevice(dir))}, tc.opts...)...)
			if err == nil {
				p2.Close()
				t.Fatalf("New succeeded, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("New error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

func writeFileT(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenFailureClosesOpenedShards is the error-path hygiene regression: if
// shard k fails to open, the shards that already opened must be closed again
// — their flocks released, their files openable — and after repairing the
// bad shard the pool must open with all its data intact.
func TestOpenFailureClosesOpenedShards(t *testing.T) {
	dir := t.TempDir()
	p := openFile(t, dir, 4)
	m, err := p.Map("t", 64)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		if err := m.Set(tkey(i), tval(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Inject corruption: zero the backend magic of shard 2.
	bad := shardPath(dir, 2)
	orig := corruptHeaderWord(t, bad, 0, 0)

	_, err = New(WithDevice(FileDevice(dir)))
	if err == nil {
		t.Fatal("New succeeded on a pool with a corrupt shard file")
	}
	if !strings.Contains(err.Error(), "opening shard 2 of 4") {
		t.Fatalf("New error %q does not name the corrupt shard", err)
	}

	// Shards 0 and 1 opened before 2 failed; if New leaked them their
	// backing files would still be flocked and this direct open would fail
	// with "locked by another live process".
	fb, created, err := nvram.OpenFileBackend(shardPath(dir, 0), 0, 0)
	if err != nil {
		t.Fatalf("shard 0 backing file still locked after failed pool open: %v", err)
	}
	if created {
		t.Fatal("shard 0 was recreated, want attach to existing image")
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}

	// Repair the header and the pool comes back whole.
	corruptHeaderWord(t, bad, 0, orig)
	p2 := openFile(t, dir, 0)
	m2, err := p2.Map("t", 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if v, ok := m2.Get(tkey(i)); !ok || !bytes.Equal(v, tval(i)) {
			t.Fatalf("key %d after repair: %q, %v", i, v, ok)
		}
	}
}

// corruptHeaderWord overwrites the uint64 at byte offset off of path and
// returns the previous value, for undoable corruption injection.
func corruptHeaderWord(t *testing.T, path string, off int64, v uint64) uint64 {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var buf [8]byte
	if _, err := f.ReadAt(buf[:], off); err != nil {
		t.Fatal(err)
	}
	prev := binary.LittleEndian.Uint64(buf[:])
	binary.LittleEndian.PutUint64(buf[:], v)
	if _, err := f.WriteAt(buf[:], off); err != nil {
		t.Fatal(err)
	}
	return prev
}

// --- surface ---------------------------------------------------------------

// The byte-map contract itself (point operations, meta/aux, Items, Walk,
// global order, crash recovery) is TestMapContract, which runs over a
// runtime of one part and one of four; what follows is what only several
// parts can show: where entries land.

// shardLens opens the map registered under name on each part's own runtime
// and returns how many keys each holds.
func shardLens(t *testing.T, p *Runtime, name string) []int {
	t.Helper()
	held := make([]int, len(p.Parts()))
	for i, rt := range p.Parts() {
		m, err := rt.Map(name, 64)
		if err != nil {
			t.Fatal(err)
		}
		held[i] = m.Len()
	}
	return held
}

// TestShardedMapSurface: a pool's map is a ByteMap, and each entry
// lives on the part partOf names and nowhere else.
func TestShardedMapSurface(t *testing.T) {
	p := openMem(t, 4)
	m, err := p.Map("kv", 128)
	if err != nil {
		t.Fatal(err)
	}
	var _ Map = m
	if m.Kind() != KindMap || m.Name() != "kv" {
		t.Fatalf("Kind/Name = %v/%q", m.Kind(), m.Name())
	}
	const n = 1000
	want := make([]int, len(p.Parts()))
	for i := 0; i < n; i++ {
		if _, err := m.SetItem(tkey(i), tval(i), uint16(i), uint64(i)*3); err != nil {
			t.Fatal(err)
		}
		want[p.partOf(tkey(i))]++
	}
	if held := shardLens(t, p, "kv"); fmt.Sprint(held) != fmt.Sprint(want) || m.Len() != n {
		t.Fatalf("shards hold %v keys, routing says %v; Len = %d", held, want, m.Len())
	}
	for i := 0; i < n; i++ {
		own, err := p.Parts()[p.partOf(tkey(i))].Map("kv", 128)
		if err != nil {
			t.Fatal(err)
		}
		if v, meta, aux, ok := own.GetItem(tkey(i)); !ok || !bytes.Equal(v, tval(i)) || meta != uint16(i) || aux != uint64(i)*3 {
			t.Fatalf("key %d on its own shard: %q, %d, %d, %v", i, v, meta, aux, ok)
		}
	}
}

// TestOrderedMergeIterators: a scan interleaves entries of different shards
// in key order, carrying each entry's aux word through the merge.
func TestOrderedMergeIterators(t *testing.T) {
	p := openMem(t, 4)
	om, err := p.OrderedMap("ord")
	if err != nil {
		t.Fatal(err)
	}
	var _ OrderedMap = om
	const n = 1200
	for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
		if _, err := om.SetItem(tkey(i), tval(i), 0, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	i, switches, last := 0, 0, -1
	for k, it := range om.ScanItems(nil, nil) {
		if !bytes.Equal(k, tkey(i)) || !bytes.Equal(it.Value, tval(i)) || it.Aux != uint64(i) {
			t.Fatalf("ScanItems[%d] = %q %+v", i, k, it)
		}
		if shard := p.partOf(k); shard != last {
			switches, last = switches+1, shard
		}
		i++
	}
	if i != n || switches < n/2 {
		t.Fatalf("scan yielded %d of %d keys, changing shard %d times", i, n, switches)
	}
}

// --- crash torture ---------------------------------------------------------

func TestPoolCrashTortureMem(t *testing.T) {
	p := openMem(t, 4)
	om, err := p.OrderedMap("c")
	if err != nil {
		t.Fatal(err)
	}
	const n = 800
	for i := 0; i < n; i++ {
		if err := om.Set(tkey(i), tval(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := n; i < n+100; i++ {
		if err := om.Set(tkey(i), tval(i)); err != nil {
			t.Fatal(err)
		}
	}

	p2, err := p.SimulateCrash()
	if err != nil {
		t.Fatalf("SimulateCrash: %v", err)
	}
	defer p2.Close()
	if !p2.Recovered() {
		t.Fatal("crashed pool does not report Recovered")
	}
	om2, err := p2.OrderedMap("c")
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for k, v := range om2.All() {
		if !bytes.Equal(k, tkey(i)) || !bytes.Equal(v, tval(i)) {
			t.Fatalf("post-crash All[%d] = %q/%q", i, k, v)
		}
		i++
	}
	if i != n+100 {
		t.Fatalf("post-crash pool holds %d keys, want %d", i, n+100)
	}
	if len(p2.ShardRecoveryDurations()) != 4 {
		t.Fatal("recovered pool lost its per-shard recovery durations")
	}
}

func TestPoolCrashTortureFile(t *testing.T) {
	dir := t.TempDir()
	p := openFile(t, dir, 4)
	om, err := p.OrderedMap("c")
	if err != nil {
		t.Fatal(err)
	}
	const n = 600
	for i := 0; i < n; i++ {
		if err := om.Set(tkey(i), tval(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Abrupt death: abandon every shard's mapping without Close — exactly
	// what kill -9 leaves behind — then recover the pool from the directory.
	for _, rt := range p.Parts() {
		if err := rt.Device().Backend().(*nvram.FileBackend).Abandon(); err != nil {
			t.Fatalf("Abandon: %v", err)
		}
	}

	p2 := openFile(t, dir, 0)
	if !p2.Recovered() {
		t.Fatal("reopened pool does not report Recovered")
	}
	rs := p2.RecoveryStats()
	if rs.ObjectsChecked == 0 {
		t.Fatal("aggregated RecoveryStats shows no objects checked")
	}
	om2, err := p2.OrderedMap("c")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range om2.All() {
		got = append(got, string(k))
	}
	if len(got) != n {
		t.Fatalf("recovered %d keys, want %d", len(got), n)
	}
	if !sort.StringsAreSorted(got) {
		t.Fatal("merged post-recovery scan is not sorted")
	}
}

func TestPoolStatsAndCapacity(t *testing.T) {
	p := openMem(t, 2)
	m, err := p.Map("st", 64)
	if err != nil {
		t.Fatal(err)
	}
	before := p.AvailableBytes()
	for i := 0; i < 300; i++ {
		if err := m.Set(tkey(i), tval(i)); err != nil {
			t.Fatal(err)
		}
	}
	p.Drain()
	for i, part := range p.Parts() {
		if st := part.Device().Stats(); st.Fences == 0 || st.Clwbs == 0 {
			t.Fatalf("part %d's device stats empty: %+v", i, st)
		}
	}
	if after := p.AvailableBytes(); after >= before {
		t.Fatalf("AvailableBytes did not drop: %d -> %d", before, after)
	}
	// AvailableBytes is the fullest part's, FreeBytes the sum over both.
	if free, least := p.FreeBytes(), p.AvailableBytes(); free < 2*least {
		t.Fatalf("FreeBytes %d below twice the fullest part's %d", free, least)
	}
	p.Reclaim()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestShardedWalk: the pool-wide cursor runs through the shards in order and
// comes back 0 after the last; while other keys churn on every shard, each
// cycle shows every key that stays put exactly once, shard after shard, and
// never a torn value.
func TestShardedWalk(t *testing.T) {
	p := openMem(t, 4)
	m, err := p.Map("walk", 128) // two steps of 64 buckets per shard
	if err != nil {
		t.Fatal(err)
	}
	const stable = 400
	for i := 0; i < stable; i++ {
		if err := m.Set(tkey(i), tval(i)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := tkey(stable + i%300)
			if i/300%2 == 0 {
				if err := m.Set(k, tval(stable+i%300)); err != nil {
					t.Error(err)
					return
				}
			} else {
				m.Delete(k)
			}
		}
	}()
	for cycle := 0; cycle < 20; cycle++ {
		seen, calls, lastShard := 0, 0, 0
		for cursor := uint64(0); ; {
			calls++
			cursor = m.Walk(cursor, func(e Entry) bool {
				var i int
				fmt.Sscanf(string(e.Key), "key-%d", &i)
				shard := p.partOf(e.Key)
				if !bytes.Equal(e.Value(), tval(i)) || shard < lastShard {
					t.Errorf("cycle %d: %q of shard %d shown after shard %d with value %q", cycle, e.Key, shard, lastShard, e.Value())
				}
				lastShard = shard
				if i < stable {
					seen++
				}
				return true
			})
			if cursor == 0 {
				break
			}
		}
		if seen != stable || calls != 8 || lastShard != 3 {
			t.Fatalf("cycle %d: %d calls ending on shard %d showed %d of %d stable keys", cycle, calls, lastShard, seen, stable)
		}
	}
	close(stop)
	<-done
}

// TestOpenRefusesOtherLayoutVersion: a shard image of another durable layout
// fails New with pmem.ErrLayoutVersion, one shard or several.
func TestOpenRefusesOtherLayoutVersion(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "pool")
			p, err := New(WithShards(shards), WithSize(testShardSize), WithDevice(FileDevice(path)))
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			image := path
			if shards > 1 {
				image = shardPath(path, shards-1)
			}
			// Version 0 has no layout-version word, version 1 the
			// power-of-two size classes, version 2 a thread-bank table.
			for v := uint64(0); v < pmem.LayoutVersion; v++ {
				d, _, err := nvram.OpenFileDevice(image, nvram.Config{})
				if err != nil {
					t.Fatal(err)
				}
				d.Store(nvram.LineSize+24, v) // the pool header's layout-version word
				d.NewFlusher().Sync(nvram.LineSize + 24)
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
				if _, err := New(WithShards(shards), WithDevice(FileDevice(path))); !errors.Is(err, pmem.ErrLayoutVersion) {
					t.Fatalf("New of a version-%d shard image: %v, want pmem.ErrLayoutVersion", v, err)
				}
			}
		})
	}
}

// --- elastic capacity ---------------------------------------------------

// Grow fans out to every part and re-commits the manifest; an elastic reopen
// adopts the grown size, including the torn state where the parts grew but
// the manifest rewrite was lost.

func TestPoolGrowMem(t *testing.T) {
	p, err := New(WithShards(4), WithSize(256<<10), WithMaxSize(4<<20))
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
	for i, rt := range p.Parts() {
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
	open := func() *Runtime {
		p, err := New(WithShards(2), WithSize(256<<10), WithMaxSize(4<<20),
			WithDevice(FileDevice(dir)))
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
	p, err := New(WithShards(2), WithSize(256<<10), WithMaxSize(4<<20),
		WithDevice(FileDevice(dir)))
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

	p2, err := New(WithShards(2), WithSize(256<<10), WithMaxSize(4<<20),
		WithDevice(FileDevice(dir)))
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

// --- DAX-backed parts ----------------------------------------------------

// Per-part DAX devices under one directory, the manifest recording (and
// enforcing) the backend kind, and durability pass-through.

func TestDAXPoolOpenReopen(t *testing.T) {
	dir := t.TempDir()
	p, err := New(WithShards(4), WithSize(testShardSize),
		WithDevice(DAXDevice(dir)), WithDurability(Strict()))
	if err != nil {
		t.Fatalf("New(dax pool): %v", err)
	}
	m, err := p.Map("kv", 64)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := m.Set(tkey(i), tval(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with the same spec: recovery, kind check, contents.
	p2, err := New(WithDevice(DAXDevice(dir)), WithDurability(Strict()))
	if err != nil {
		t.Fatalf("reopen dax pool: %v", err)
	}
	defer p2.Close()
	if !p2.Recovered() {
		t.Fatal("dax pool reopen did not recover")
	}
	if len(p2.Parts()) != 4 {
		t.Fatalf("reopen shards = %d, want 4", len(p2.Parts()))
	}
	m2, err := p2.Map("kv", 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if v, ok := m2.Get(tkey(i)); !ok || string(v) != string(tval(i)) {
			t.Fatalf("key %d lost across dax pool reopen: %q, %v", i, v, ok)
		}
	}
}

// The manifest records the backend kind: a pool formatted on DAX shards
// refuses an explicit file-kind reopen (and vice versa), while an
// unspecified kind adopts whatever the manifest says.
func TestManifestBackendKindEnforced(t *testing.T) {
	dir := t.TempDir()
	p, err := New(WithShards(2), WithSize(testShardSize),
		WithDevice(DAXDevice(dir)))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := New(WithDevice(FileDevice(dir))); err == nil ||
		!strings.Contains(err.Error(), "formatted on") {
		t.Fatalf("file-kind reopen of dax pool = %v, want formatted-on mismatch", err)
	}

	// And the mirror image: a file pool rejects a dax-kind reopen.
	fdir := t.TempDir()
	fp, err := New(WithShards(2), WithSize(testShardSize),
		WithDevice(FileDevice(fdir)))
	if err != nil {
		t.Fatal(err)
	}
	if err := fp.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(WithDevice(DAXDevice(fdir))); err == nil ||
		!strings.Contains(err.Error(), "formatted on") {
		t.Fatalf("dax-kind reopen of file pool = %v, want formatted-on mismatch", err)
	}
	// Matching kind still opens.
	fp2, err := New(WithDevice(FileDevice(fdir)))
	if err != nil {
		t.Fatalf("matching-kind reopen: %v", err)
	}
	fp2.Close()
}

// A buffered pool runs every shard's flush timer; acked writes older than
// the staleness bound survive SimulateCrash.
func TestDAXPoolBufferedCrash(t *testing.T) {
	dir := t.TempDir()
	const staleness = 5 * time.Millisecond
	p, err := New(WithShards(2), WithSize(testShardSize),
		WithDevice(DAXDevice(dir)),
		WithDurability(Buffered(staleness)), WithLinkCache(true))
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Map("kv", 64)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if err := m.Set(tkey(i), tval(i)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * staleness)
	p2, err := p.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	m2, err := p2.Map("kv", 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if v, ok := m2.Get(tkey(i)); !ok || string(v) != string(tval(i)) {
			t.Fatalf("acked write %d older than MaxStaleness lost: %q, %v", i, v, ok)
		}
	}
}

// --- what is on disk decides ---------------------------------------------

// dirState is every file of dir with its contents, to show that a refused
// open wrote nothing.
func dirState(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	state := map[string]string{}
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		state[e.Name()] = string(raw)
	}
	return state
}

// TestReopenAdoptsPartCount: a directory written with four parts reopens as
// four parts through New without WithShards and reads every key back; a
// fresh path with no WithShards is one image; and an explicit count that
// disagrees with what is on disk is refused before anything is written,
// whether the disk holds a directory or a single image.
func TestReopenAdoptsPartCount(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "pool")
	rt, err := New(WithShards(4), WithSize(testShardSize), WithDevice(FileDevice(dir)))
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.Map("t", 64)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		if err := m.Set(tkey(i), tval(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	rt2, err := New(WithDevice(FileDevice(dir)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rt2.Parts()) != 4 || !rt2.Recovered() {
		t.Fatalf("reopened without WithShards: %d parts, recovered=%v; want 4, true", len(rt2.Parts()), rt2.Recovered())
	}
	m2, err := rt2.Map("t", 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if v, ok := m2.Get(tkey(i)); !ok || !bytes.Equal(v, tval(i)) {
			t.Fatalf("key %d after reopen: %q, %v", i, v, ok)
		}
	}
	if m2.Len() != n {
		t.Fatalf("reopened map holds %d keys, want %d", m2.Len(), n)
	}
	if err := rt2.Close(); err != nil {
		t.Fatal(err)
	}

	before := dirState(t, dir)
	if _, err := New(WithShards(2), WithDevice(FileDevice(dir))); err == nil || !strings.Contains(err.Error(), "formatted with 4 shards, requested 2") {
		t.Fatalf("WithShards(2) on a 4-part directory: %v", err)
	}
	if after := dirState(t, dir); !maps.Equal(before, after) {
		t.Fatal("the refused open changed the directory")
	}

	image := filepath.Join(t.TempDir(), "one.pmem")
	one, err := New(WithSize(testShardSize), WithDevice(FileDevice(image)))
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Parts()) != 1 {
		t.Fatalf("a fresh path without WithShards opened %d parts", len(one.Parts()))
	}
	if err := one.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(image); err != nil || !st.Mode().IsRegular() {
		t.Fatalf("one part is not a single image file: %v, %v", st, err)
	}
	before = dirState(t, filepath.Dir(image))
	if _, err := New(WithShards(2), WithDevice(FileDevice(image))); err == nil || !strings.Contains(err.Error(), "is a single image") {
		t.Fatalf("WithShards(2) on a single image: %v", err)
	}
	if after := dirState(t, filepath.Dir(image)); !maps.Equal(before, after) {
		t.Fatal("the refused open changed the image")
	}
}

// TestOneDeviceCallsOnParts pins what the calls that name one device do on a
// runtime of several parts: Device, Store and Sessions are part 0's; the
// uint64 structures live on part 0, unrouted; Lookup, Names and
// RecoveryReports read part 0's directory, which names every structure,
// since a byte map is registered on every part; Save is refused.
func TestOneDeviceCallsOnParts(t *testing.T) {
	rt, err := New(WithShards(2), WithSize(testShardSize), WithMaxThreads(3))
	if err != nil {
		t.Fatal(err)
	}
	p0, p1 := rt.Parts()[0], rt.Parts()[1]
	if rt.Device() != p0.Device() || rt.Store() != p0.Store() || rt.Sessions() != 3 || p1.Sessions() != 3 {
		t.Fatalf("Device, Store or Sessions is not part 0's (sessions %d)", rt.Sessions())
	}
	if _, err := rt.Map("kv", 64); err != nil {
		t.Fatal(err)
	}
	l, err := rt.List("list")
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 10; k++ {
		l.Insert(k, k*10)
	}
	if _, ok := p0.Lookup("list"); !ok {
		t.Fatal("the list is not registered on part 0")
	}
	if _, ok := p1.Lookup("list"); ok {
		t.Fatal("the list is registered on part 1 too")
	}
	for _, p := range rt.Parts() {
		if kind, ok := p.Lookup("kv"); !ok || kind != KindMap {
			t.Fatalf("the map is not registered on every part: %v, %v", kind, ok)
		}
	}
	if names := rt.Names(); fmt.Sprint(names) != "[kv list]" && fmt.Sprint(names) != "[list kv]" {
		t.Fatalf("Names = %v, want kv and list", names)
	}
	saved := filepath.Join(t.TempDir(), "image")
	if err := rt.Save(saved); err == nil || !strings.Contains(err.Error(), "2 parts") {
		t.Fatalf("Save of two parts: %v", err)
	}
	if _, err := os.Stat(saved); !os.IsNotExist(err) {
		t.Fatalf("the refused Save left a file: %v", err)
	}

	rt2, err := rt.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	if reports := rt2.RecoveryReports(); len(reports) != 2 {
		t.Fatalf("RecoveryReports = %v, want kv and list", reports)
	}
	l2, err := rt2.List("list")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := l2.Search(7); !ok || v != 70 || l2.Len() != 10 {
		t.Fatalf("list after the crash: Search(7) = %d, %v; Len %d", v, ok, l2.Len())
	}
}
