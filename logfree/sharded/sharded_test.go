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
	if a, b := m.parts[0].Len(), m.parts[1].Len(); a == 0 || b == 0 || a+b != 100 {
		t.Fatalf("adopted shards hold %d and %d of 100 keys", a, b)
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

func TestShardedMapSurface(t *testing.T) {
	p := openMem(t, 4)
	m, err := p.Map("kv", 128)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	for i := 0; i < n; i++ {
		created, err := m.SetItem(tkey(i), tval(i), uint16(i), uint64(i)*3)
		if err != nil || !created {
			t.Fatalf("SetItem(%d) = %v, %v", i, created, err)
		}
	}
	if got := m.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		v, meta, aux, ok := m.GetItem(tkey(i))
		if !ok || !bytes.Equal(v, tval(i)) || meta != uint16(i) || aux != uint64(i)*3 {
			t.Fatalf("GetItem(%d) = %q, %d, %d, %v", i, v, meta, aux, ok)
		}
	}
	if !m.SetAux(tkey(7), 99) {
		t.Fatal("SetAux on live key returned false")
	}
	if aux, vlen, ok := m.GetAux(tkey(7)); !ok || aux != 99 || vlen != len(tval(7)) {
		t.Fatalf("GetAux = %d, %d, %v", aux, vlen, ok)
	}
	seen := 0
	for k, v := range m.All() {
		if len(k) == 0 || len(v) == 0 {
			t.Fatal("All yielded empty key or value")
		}
		seen++
	}
	if seen != n {
		t.Fatalf("All yielded %d entries, want %d", seen, n)
	}
	seen = 0
	for _, it := range m.Items() {
		_ = it
		seen++
	}
	if seen != n {
		t.Fatalf("Items yielded %d entries, want %d", seen, n)
	}
	for i := 0; i < n; i += 2 {
		if !m.Delete(tkey(i)) {
			t.Fatalf("Delete(%d) = false", i)
		}
	}
	if got := m.Len(); got != n/2 {
		t.Fatalf("Len after deletes = %d, want %d", got, n/2)
	}
	if m.Contains(tkey(0)) || !m.Contains(tkey(1)) {
		t.Fatal("Contains disagrees with deletes")
	}
	if m.Kind() != logfree.KindMap || m.Name() != "kv" {
		t.Fatalf("Kind/Name = %v/%q", m.Kind(), m.Name())
	}
}

func TestOrderedMergeIterators(t *testing.T) {
	p := openMem(t, 4)
	om, err := p.OrderedMap("ord")
	if err != nil {
		t.Fatal(err)
	}
	const n = 1200
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		if _, err := om.SetItem(tkey(i), tval(i), 0, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Full ascending scan: every key, strictly ascending, from all shards.
	i := 0
	for k, v := range om.All() {
		if !bytes.Equal(k, tkey(i)) || !bytes.Equal(v, tval(i)) {
			t.Fatalf("All[%d] = %q/%q, want %q/%q", i, k, v, tkey(i), tval(i))
		}
		i++
	}
	if i != n {
		t.Fatalf("All yielded %d keys, want %d", i, n)
	}

	// Bounded scan: [lo, hi).
	lo, hi := 100, 250
	i = lo
	for k := range om.Scan(tkey(lo), tkey(hi)) {
		if !bytes.Equal(k, tkey(i)) {
			t.Fatalf("Scan[%d] = %q, want %q", i, k, tkey(i))
		}
		i++
	}
	if i != hi {
		t.Fatalf("Scan stopped at %d, want %d", i, hi)
	}

	// ScanItems carries the aux word through the merge.
	i = lo
	for k, it := range om.ScanItems(tkey(lo), tkey(hi)) {
		if !bytes.Equal(k, tkey(i)) || it.Aux != uint64(i) {
			t.Fatalf("ScanItems[%d] = %q aux=%d", i, k, it.Aux)
		}
		i++
	}

	// Descend: strictly descending over everything.
	i = n - 1
	for k := range om.Descend() {
		if !bytes.Equal(k, tkey(i)) {
			t.Fatalf("Descend[%d] = %q, want %q", i, k, tkey(i))
		}
		i--
	}
	if i != -1 {
		t.Fatalf("Descend yielded %d keys, want %d", n-1-i, n)
	}

	// Early break must not wedge the per-shard cursors (deferred stops).
	count := 0
	for range om.Ascend() {
		count++
		if count == 10 {
			break
		}
	}

	if k, v, ok := om.Min(); !ok || !bytes.Equal(k, tkey(0)) || !bytes.Equal(v, tval(0)) {
		t.Fatalf("Min = %q/%q/%v", k, v, ok)
	}
	if k, _, ok := om.Max(); !ok || !bytes.Equal(k, tkey(n-1)) {
		t.Fatalf("Max = %q/%v", k, ok)
	}
	if om.Kind() != logfree.KindOrderedMap {
		t.Fatalf("Kind = %v", om.Kind())
	}
}

func TestShardedBatch(t *testing.T) {
	p := openMem(t, 4)
	m, err := p.Map("b", 64)
	if err != nil {
		t.Fatal(err)
	}
	b := m.Batch()
	const n = 600
	for i := 0; i < n; i++ {
		b.SetItem(tkey(i), tval(i), 1, uint64(i))
	}
	b.Delete(tkey(0)).Delete(tkey(1))
	if b.Len() != n+2 {
		t.Fatalf("Len = %d, want %d", b.Len(), n+2)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("Len after Commit = %d, want 0", b.Len())
	}
	if got := m.Len(); got != n-2 {
		t.Fatalf("map Len = %d, want %d", got, n-2)
	}
	for i := 2; i < n; i++ {
		if v, ok := m.Get(tkey(i)); !ok || !bytes.Equal(v, tval(i)) {
			t.Fatalf("key %d after batch: %q, %v", i, v, ok)
		}
	}

	// Reused batch, single-shard fast path: all ops on one shard.
	b.Reset()
	one := tkey(42)
	b.Set(one, []byte("x")).Set(one, []byte("y"))
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Get(one); !bytes.Equal(v, []byte("y")) {
		t.Fatalf("last-writer-wins within a shard batch: got %q", v)
	}

	// Pool-wide op count holds the single-runtime cap.
	b.Reset()
	for i := 0; i <= logfree.MaxBatchOps; i++ {
		b.Set(tkey(i%n+10_000), []byte("v"))
	}
	err = b.Commit()
	if !errors.Is(err, logfree.ErrBatchTooLarge) {
		t.Fatalf("oversize Commit error = %v, want ErrBatchTooLarge", err)
	}
	if b.Len() != logfree.MaxBatchOps+1 {
		t.Fatalf("failed Commit dropped ops: Len = %d", b.Len())
	}
}

func TestPoolSessionViews(t *testing.T) {
	p := openMem(t, 2)
	m, err := p.Map("s", 64)
	if err != nil {
		t.Fatal(err)
	}
	om, err := p.OrderedMap("so")
	if err != nil {
		t.Fatal(err)
	}
	ps, err := p.Session()
	if err != nil {
		t.Fatal(err)
	}
	mv, ov := m.WithSession(ps), om.WithSession(ps)
	for i := 0; i < 200; i++ {
		if err := mv.Set(tkey(i), tval(i)); err != nil {
			t.Fatal(err)
		}
		if err := ov.Set(tkey(i), tval(i)); err != nil {
			t.Fatal(err)
		}
	}
	ps.Reclaim()
	ps.Close()
	// Plain views observe the pinned-session writes.
	for i := 0; i < 200; i++ {
		if _, ok := m.Get(tkey(i)); !ok {
			t.Fatalf("map key %d invisible outside the session view", i)
		}
		if _, ok := om.Get(tkey(i)); !ok {
			t.Fatalf("ordered key %d invisible outside the session view", i)
		}
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
	b := om.Batch()
	for i := n; i < n+100; i++ {
		b.Set(tkey(i), tval(i))
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
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
// cycle shows every key that stays put exactly once, on the shard that owns
// it, and never a torn value.
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
		seen, calls, lastShard := 0, 0, uint64(0)
		for cursor := uint64(0); ; {
			shard := cursor >> walkShardShift
			if shard < lastShard {
				t.Fatalf("cycle %d: cursor %#x goes back from shard %d", cycle, cursor, lastShard)
			}
			lastShard = shard
			calls++
			cursor = m.Walk(cursor, func(e logfree.Entry) bool {
				var i int
				fmt.Sscanf(string(e.Key), "key-%d", &i)
				if !bytes.Equal(e.Value(), tval(i)) || uint64(p.ShardOf(e.Key)) != shard {
					t.Errorf("cycle %d: %q shown on shard %d with value %q", cycle, e.Key, shard, e.Value())
				}
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
