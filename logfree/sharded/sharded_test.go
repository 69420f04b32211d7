package sharded

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/nvram"
	"repro/internal/pmem"
	"repro/logfree"
)

const testShardSize = 8 << 20

func openMem(t *testing.T, shards int) *Pool {
	t.Helper()
	p, err := Open(WithShards(shards), WithShardSize(testShardSize))
	if err != nil {
		t.Fatalf("Open(mem, %d shards): %v", shards, err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func openFile(t *testing.T, dir string, shards int) *Pool {
	t.Helper()
	p, err := Open(WithShards(shards), WithShardSize(testShardSize), WithDevice(logfree.FileDevice(dir)))
	if err != nil {
		t.Fatalf("Open(%s, %d shards): %v", dir, shards, err)
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
		route[i] = fp.ShardOf(tkey(i))
		if got := mp.ShardOf(tkey(i)); got != route[i] {
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
	if fp2.Shards() != 4 {
		t.Fatalf("reopened pool has %d shards, want 4", fp2.Shards())
	}
	m2, err := fp2.Map("t", 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := fp2.ShardOf(tkey(i)); got != route[i] {
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
	counts := make([]int, p.Shards())
	const n = 8192
	for i := 0; i < n; i++ {
		counts[p.ShardOf(tkey(i))]++
	}
	for s, c := range counts {
		// Mean is n/8 = 1024; demand every shard holds at least a quarter of
		// that, a very loose bound any decent hash clears by a mile.
		if c < n/8/4 {
			t.Fatalf("shard %d got only %d of %d sequential keys: %v", s, c, n, counts)
		}
	}
}

func TestDefaultShardCountIsPowerOfTwo(t *testing.T) {
	p, err := Open(WithShardSize(testShardSize))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	n := p.Shards()
	if n < 1 || n&(n-1) != 0 {
		t.Fatalf("default shard count %d is not a power of two", n)
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

	rt, err := logfree.New(logfree.WithDevice(logfree.FileDevice(path)))
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
	if p2.Shards() != 1 || !p2.Recovered() {
		t.Fatalf("adopted image: %d shards, recovered=%v", p2.Shards(), p2.Recovered())
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
	rt, err := logfree.New(logfree.WithDevice(logfree.FileDevice(shardPath(dir, 0))), logfree.WithSize(testShardSize))
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
	if p.Shards() != 1 || !p.Recovered() {
		t.Fatalf("1-shard manifest directory: %d shards, recovered=%v", p.Shards(), p.Recovered())
	}
}

func TestAdopt(t *testing.T) {
	var rts []*logfree.Runtime
	for i := 0; i < 3; i++ {
		rt, err := logfree.New(logfree.WithSize(testShardSize))
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		rts = append(rts, rt)
	}
	if _, err := Adopt(rts...); err == nil {
		t.Fatal("Adopt accepted three runtimes: routing needs a power of two")
	}
	if _, err := Adopt(); err == nil {
		t.Fatal("Adopt accepted no runtimes")
	}
	p, err := Adopt(rts[:2]...)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shards() != 2 || p.Recovered() || len(p.ShardRecoveryDurations()) != 2 {
		t.Fatalf("adopted pool: %d shards, recovered=%v", p.Shards(), p.Recovered())
	}
	m, err := p.Map("t", 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := m.Set(tkey(i), tval(i)); err != nil {
			t.Fatal(err)
		}
	}
	if held := shardLens(t, p, "t"); held[0] == 0 || held[1] == 0 || held[0]+held[1] != 100 {
		t.Fatalf("adopted shards hold %v of 100 keys", held)
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
			opts:    []Option{WithShardSize(testShardSize * 2)},
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
			p, err := Open(WithShards(2), WithShardSize(testShardSize), WithDevice(logfree.FileDevice(dir)))
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			tc.mutate(t, dir)
			p2, err := Open(append([]Option{WithDevice(logfree.FileDevice(dir))}, tc.opts...)...)
			if err == nil {
				p2.Close()
				t.Fatalf("Open succeeded, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Open error %q does not contain %q", err, tc.wantErr)
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

	_, err = Open(WithDevice(logfree.FileDevice(dir)))
	if err == nil {
		t.Fatal("Open succeeded on a pool with a corrupt shard file")
	}
	if !strings.Contains(err.Error(), "opening shard 2 of 4") {
		t.Fatalf("Open error %q does not name the corrupt shard", err)
	}

	// Shards 0 and 1 opened before 2 failed; if Open leaked them their
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
// global order, crash recovery) is logfree's TestMapContract, which
// runs over a 1-shard and a 4-shard pool; what follows is what only a pool
// can show: where entries land.

// shardLens opens the map registered under name on each shard's own runtime
// and returns how many keys each holds.
func shardLens(t *testing.T, p *Pool, name string) []int {
	t.Helper()
	held := make([]int, p.Shards())
	for i, rt := range p.Runtimes() {
		m, err := rt.Map(name, 64)
		if err != nil {
			t.Fatal(err)
		}
		held[i] = m.Len()
	}
	return held
}

// TestShardedMapSurface: a pool's map is a logfree.ByteMap, and each entry
// lives on the shard ShardOf names and nowhere else.
func TestShardedMapSurface(t *testing.T) {
	p := openMem(t, 4)
	m, err := p.Map("kv", 128)
	if err != nil {
		t.Fatal(err)
	}
	var _ logfree.Map = m
	if m.Kind() != logfree.KindMap || m.Name() != "kv" {
		t.Fatalf("Kind/Name = %v/%q", m.Kind(), m.Name())
	}
	const n = 1000
	want := make([]int, p.Shards())
	for i := 0; i < n; i++ {
		if _, err := m.SetItem(tkey(i), tval(i), uint16(i), uint64(i)*3); err != nil {
			t.Fatal(err)
		}
		want[p.ShardOf(tkey(i))]++
	}
	if held := shardLens(t, p, "kv"); fmt.Sprint(held) != fmt.Sprint(want) || m.Len() != n {
		t.Fatalf("shards hold %v keys, routing says %v; Len = %d", held, want, m.Len())
	}
	for i := 0; i < n; i++ {
		own, err := p.Runtimes()[p.ShardOf(tkey(i))].Map("kv", 128)
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
	var _ logfree.OrderedMap = om
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
		if shard := p.ShardOf(k); shard != last {
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
	for _, rt := range p.Runtimes() {
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
	if st := p.Stats(); st.Fences == 0 || st.Clwbs == 0 {
		t.Fatalf("summed device stats empty: %+v", st)
	}
	if after := p.AvailableBytes(); after >= before {
		t.Fatalf("AvailableBytes did not drop: %d -> %d", before, after)
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
			cursor = m.Walk(cursor, func(e logfree.Entry) bool {
				var i int
				fmt.Sscanf(string(e.Key), "key-%d", &i)
				shard := p.ShardOf(e.Key)
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
// fails the pool's Open with pmem.ErrLayoutVersion, one shard or several.
func TestOpenRefusesOtherLayoutVersion(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "pool")
			p, err := Open(WithShards(shards), WithShardSize(testShardSize), WithDevice(logfree.FileDevice(path)))
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
				if _, err := Open(WithShards(shards), WithDevice(logfree.FileDevice(path))); !errors.Is(err, pmem.ErrLayoutVersion) {
					t.Fatalf("Open of a version-%d shard image: %v, want pmem.ErrLayoutVersion", v, err)
				}
			}
		})
	}
}
