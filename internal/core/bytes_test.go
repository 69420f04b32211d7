package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"testing"

	"repro/internal/nvram"
	"repro/internal/pmem"
)

func newTestBytesMap(t *testing.T, s *Store, c *Ctx, buckets int) *BytesMap {
	t.Helper()
	b, err := NewBytesMap(c, buckets)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBytesMapBasics(t *testing.T) {
	s := newTestStore(t, Options{})
	c := s.MustCtx(0)
	b := newTestBytesMap(t, s, c, 16)
	if created, err := b.Set(c, []byte("k1"), []byte("v1"), 3, 77); err != nil || !created {
		t.Fatalf("Set = %v,%v", created, err)
	}
	v, meta, aux, ok := b.GetItem(c, []byte("k1"))
	if !ok || string(v) != "v1" || meta != 3 || aux != 77 {
		t.Fatalf("GetItem = %q,%d,%d,%v", v, meta, aux, ok)
	}
	if created, err := b.Set(c, []byte("k1"), []byte("longer value 1"), 4, 78); err != nil || created {
		t.Fatalf("replacing Set = %v,%v", created, err)
	}
	if v, _ := b.Get(c, []byte("k1")); string(v) != "longer value 1" {
		t.Fatalf("after replace: %q", v)
	}
	if !b.SetAux(c, []byte("k1"), 123) {
		t.Fatal("SetAux failed")
	}
	if _, _, aux, _ := b.GetItem(c, []byte("k1")); aux != 123 {
		t.Fatalf("aux = %d", aux)
	}
	if b.Len(c) != 1 {
		t.Fatalf("Len = %d", b.Len(c))
	}
	if !b.Delete(c, []byte("k1")) || b.Delete(c, []byte("k1")) {
		t.Fatal("delete semantics broken")
	}
	if b.Contains(c, []byte("k1")) {
		t.Fatal("deleted key present")
	}
	if _, err := b.Set(c, nil, []byte("v"), 0, 0); !errors.Is(err, ErrBadKey) {
		t.Fatalf("empty key: %v", err)
	}
	if _, err := b.Set(c, []byte("k"), make([]byte, 4096), 0, 0); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("huge value: %v", err)
	}
}

// TestEntryClassesBoundTheEntry: the largest entry has a class and one byte
// more has none, and in every class an entry can use, entryShape takes the
// longest value that fits the extent and refuses one byte more.
func TestEntryClassesBoundTheEntry(t *testing.T) {
	if cl, err := entryClass(MaxBytesEntrySize); err != nil || cl.Size() < MaxBytesEntrySize {
		t.Fatalf("entryClass(%d) = %d B, %v", MaxBytesEntrySize, cl.Size(), err)
	}
	if _, err := entryClass(MaxBytesEntrySize + 1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("entryClass(%d): %v, want ErrTooLarge", MaxBytesEntrySize+1, err)
	}
	s := newTestStore(t, Options{})
	c := s.MustCtx(0)
	first, err := entryClass(beData + 1)
	if err != nil {
		t.Fatal(err)
	}
	for cl := first; cl < pmem.NumClasses; cl++ {
		e, err := c.alloc.Alloc(cl)
		if err != nil {
			t.Fatal(err)
		}
		s.dev.Store(e+beHash, MinKey)
		fits := cl.Size() - beData - 1 // the longest value beside a 1-byte key
		for _, vlen := range []uint64{fits, fits + 1} {
			s.dev.Store(e+beHeader, 1|vlen<<16)
			if _, ok := entryShape(s, e, cl); ok != (vlen == fits) {
				t.Errorf("class %d B: entryShape of a %d B entry = %v", cl.Size(), beData+1+vlen, ok)
			}
		}
	}
}

// heapRegionBytes sums the region pages of a pool's heap.
func heapRegionBytes(pool *pmem.Pool) (n uint64) {
	for page := pmem.HeapStart; page < pool.HeapEnd(); {
		_, _, ok, next := pool.HeapPage(page)
		if !ok {
			n += next - page
		}
		page = next
	}
	return n
}

// TestPoolAccountsForEveryPage walks the heap of a pool preloaded with
// entries of 110, 302 and 1070 B (7:2:1) from one context: every used byte
// is the header page, a region page or a class page, each class packs its
// objects into as few pages as its slot count allows, and the regions are
// the store's own plus the map's bucket array of one 8-byte word per bucket.
func TestPoolAccountsForEveryPage(t *testing.T) {
	s := newTestStore(t, Options{})
	c := s.MustCtx(0)
	storeRegions := heapRegionBytes(s.pool) // the APT's, made with the store
	const buckets = 1 << 14
	b := newTestBytesMap(t, s, c, buckets)
	sizes := [3]int{110, 302, 1070}
	var items [pmem.NumClasses]uint64
	for i := 0; i < 50000; i++ {
		size := sizes[0]
		if r := i % 10; r >= 9 {
			size = sizes[2]
		} else if r >= 7 {
			size = sizes[1]
		}
		key := []byte(fmt.Sprintf("k%07d", i))
		if _, err := b.Set(c, key, make([]byte, size-BytesEntryOverhead-len(key)), 0, 0); err != nil {
			t.Fatal(err)
		}
		cl, err := entryClass(uint64(size))
		if err != nil {
			t.Fatal(err)
		}
		items[cl]++
	}
	pool := s.pool
	var pages, objects [pmem.NumClasses]uint64
	for page := pmem.HeapStart; page < pool.HeapEnd(); {
		cl, bm, ok, next := pool.HeapPage(page)
		if ok {
			pages[cl]++
			objects[cl] += uint64(bits.OnesCount64(bm))
		}
		page = next
	}
	regionBytes := heapRegionBytes(pool)
	// A region carries one SlotAlign header ahead of the bytes it was asked
	// for: 128 KiB of link words take 33 pages.
	if want := storeRegions + (8*buckets+pmem.SlotAlign+pmem.PageSize-1)/pmem.PageSize*pmem.PageSize; regionBytes != want {
		t.Errorf("regions hold %d B, want the store's %d B and %d buckets of 8 B: %d B", regionBytes, storeRegions, buckets, want)
	}
	var classBytes uint64
	for cl := pmem.Class(0); cl < pmem.NumClasses; cl++ {
		classBytes += pages[cl] * pmem.PageSize
		slots := (pmem.PageSize - pmem.SlotAlign) / cl.Size()
		if want := (objects[cl] + slots - 1) / slots; pages[cl] != want {
			t.Errorf("class %d B: %d objects in %d pages, want %d", cl.Size(), objects[cl], pages[cl], want)
		}
		if items[cl] != 0 && objects[cl] != items[cl] {
			t.Errorf("class %d B holds %d objects, want the %d entries stored there", cl.Size(), objects[cl], items[cl])
		}
	}
	// The first page holds the pool header and the root directory.
	if used := pool.SizeBytes() - pool.AvailableBytes(); pmem.HeapStart+regionBytes+classBytes != used {
		t.Fatalf("header page %d + region %d + class pages %d B != %d B used", pmem.HeapStart, regionBytes, classBytes, used)
	}
	large, _ := entryClass(uint64(sizes[2]))
	if pages[large] > 1667 {
		t.Fatalf("%d entries of %d B take %d pages, want at most 1667", items[large], sizes[2], pages[large])
	}
}

func TestBytesMapManyKeysAndRange(t *testing.T) {
	s := newTestStore(t, Options{})
	c := s.MustCtx(0)
	b := newTestBytesMap(t, s, c, 8) // force multi-entry buckets
	const n = 500
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%03d", i))
		val := bytes.Repeat([]byte{byte(i)}, 1+i%200)
		if _, err := b.Set(c, key, val, uint16(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%03d", i))
		v, meta, aux, ok := b.GetItem(c, key)
		if !ok || meta != uint16(i) || aux != uint64(i) ||
			!bytes.Equal(v, bytes.Repeat([]byte{byte(i)}, 1+i%200)) {
			t.Fatalf("key %d corrupt: ok=%v meta=%d aux=%d len=%d", i, ok, meta, aux, len(v))
		}
	}
	seen := make(map[string]bool)
	b.Range(c, func(k, v []byte) bool {
		seen[string(k)] = true
		return true
	})
	if len(seen) != n {
		t.Fatalf("Range saw %d keys, want %d", len(seen), n)
	}
}

func TestBytesMapConcurrentClients(t *testing.T) {
	s := newTestStore(t, Options{MaxThreads: 8, LinkCache: true})
	c0 := s.MustCtx(0)
	b := newTestBytesMap(t, s, c0, 64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := s.MustCtx(w)
			for i := 0; i < 300; i++ {
				key := []byte(fmt.Sprintf("w%d-%d", w, i))
				if _, err := b.Set(c, key, key, 0, 0); err != nil {
					t.Error(err)
					return
				}
				if v, ok := b.Get(c, key); !ok || !bytes.Equal(v, key) {
					t.Errorf("w%d readback %d failed", w, i)
					return
				}
				if i%3 == 0 {
					b.Delete(c, key)
				}
			}
		}(w)
	}
	wg.Wait()
}

// crashAndReattach simulates a power failure and reopens the store.
func crashAndReattach(t *testing.T, s *Store) *Store {
	t.Helper()
	dev := s.Device()
	dev.Crash()
	s2, err := AttachStore(dev)
	if err != nil {
		t.Fatal(err)
	}
	return s2
}

// TestBytesMapCollisionChainSurvivesCrash is the core-level regression test
// for string-key aliasing: with every key forced onto ONE index key — one
// run of same-hash entries, ordered by key bytes, in one bucket — all
// operations must stay per-key, and the run must reconstruct across a crash
// and recovery sweep.
func TestBytesMapCollisionChainSurvivesCrash(t *testing.T) {
	SetBytesHashForTesting(func([]byte) uint64 { return MinKey + 5 })
	defer SetBytesHashForTesting(nil)

	s := newTestStore(t, Options{LinkCache: true})
	c := s.MustCtx(0)
	b := newTestBytesMap(t, s, c, 16)
	const n = 30
	for i := 0; i < n; i++ {
		if _, err := b.Set(c, []byte(fmt.Sprintf("c-%d", i)), []byte(fmt.Sprintf("v-%d", i)), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Rewrite two entries of the one hash and delete a third.
	b.Set(c, []byte("c-29"), []byte("head-rewrite"), 0, 0)
	b.Set(c, []byte("c-15"), []byte("mid-rewrite"), 0, 0)
	if !b.Delete(c, []byte("c-3")) {
		t.Fatal("same-hash delete failed")
	}
	s.ForEachCtx(func(cx *Ctx) { cx.Shutdown() })
	desc := [3]uint64{b.Buckets(), uint64(b.NumBuckets()), b.Tail()}

	s2 := crashAndReattach(t, s)
	b2 := AttachBytesMap(s2, desc[0], int(desc[1]), desc[2])
	RecoverBytesMap(s2, b2, 4)
	c2 := s2.MustCtx(0)
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("c-%d", i))
		want := fmt.Sprintf("v-%d", i)
		switch i {
		case 29:
			want = "head-rewrite"
		case 15:
			want = "mid-rewrite"
		case 3:
			if b2.Contains(c2, key) {
				t.Fatal("deleted same-hash entry resurrected")
			}
			continue
		}
		v, ok := b2.Get(c2, key)
		if !ok || string(v) != want {
			t.Fatalf("same-hash key %d after crash: %q,%v want %q", i, v, ok, want)
		}
	}
	if got := b2.Len(c2); got != n-1 {
		t.Fatalf("Len after recovery = %d, want %d", got, n-1)
	}
}

// TestBytesMapRecoveryFreesOrphanEntry: an entry written durably but never
// linked (the crash lands between allocation and index publish, §5.1's
// failure window) must be freed by the recovery sweep, without damaging
// live entries.
func TestBytesMapRecoveryFreesOrphanEntry(t *testing.T) {
	s := newTestStore(t, Options{})
	c := s.MustCtx(0)
	b := newTestBytesMap(t, s, c, 16)
	if _, err := b.Set(c, []byte("live"), []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
	// Orphan an entry: fully persisted (writeBytesEntry defers its fence to
	// the caller), area in the APT, never published.
	orphan, err := writeBytesEntry(c, MinKey+42, []byte("ghost"), []byte("boo"), 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.f.Fence()
	desc := [3]uint64{b.Buckets(), uint64(b.NumBuckets()), b.Tail()}

	s2 := crashAndReattach(t, s)
	b2 := AttachBytesMap(s2, desc[0], int(desc[1]), desc[2])
	stats := RecoverBytesMap(s2, b2, 2)
	if stats.Leaked == 0 {
		t.Fatal("orphan entry not detected")
	}
	if s2.Pool().SlotAllocated(orphan) {
		t.Fatal("orphan entry still allocated")
	}
	c2 := s2.MustCtx(0)
	if v, ok := b2.Get(c2, []byte("live")); !ok || string(v) != "v" {
		t.Fatalf("live entry damaged by recovery: %q,%v", v, ok)
	}
}

// TestRecoverSetMultipleStructures: two structures sharing a store must
// both survive a combined sweep — and the sweep must still free genuine
// leaks.
func TestRecoverSetMultipleStructures(t *testing.T) {
	s := newTestStore(t, Options{LinkCache: true})
	c := s.MustCtx(0)
	h := newTestHash(t, s, c, 16)
	b := newTestBytesMap(t, s, c, 16)
	for k := uint64(1); k <= 200; k++ {
		h.Insert(c, k, k*2)
		if _, err := b.Set(c, []byte(fmt.Sprintf("b-%d", k)), []byte("x"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	s.ForEachCtx(func(cx *Ctx) { cx.Shutdown() })
	hDesc := [3]uint64{h.Buckets(), uint64(h.NumBuckets()), h.Tail()}
	bDesc := [3]uint64{b.Buckets(), uint64(b.NumBuckets()), b.Tail()}

	s2 := crashAndReattach(t, s)
	h2 := AttachHashTable(s2, hDesc[0], int(hDesc[1]), hDesc[2])
	b2 := AttachBytesMap(s2, bDesc[0], int(bDesc[1]), bDesc[2])
	RecoverSet(s2, []Recoverer{h2.Recoverer(), b2.Recoverer()}, 4)
	c2 := s2.MustCtx(0)
	for k := uint64(1); k <= 200; k++ {
		if v, ok := h2.Search(c2, k); !ok || v != k*2 {
			t.Fatalf("hash key %d after combined recovery: %d,%v", k, v, ok)
		}
		if !b2.Contains(c2, []byte(fmt.Sprintf("b-%d", k))) {
			t.Fatalf("bytes key %d lost in combined recovery", k)
		}
	}
}

// TestLoadBytesEveryAlignment checks the range copy against a byte-wise
// reference for every start offset within a word and every length
// from 0 to 80, anchored twice: in the middle of the device, and so that the
// last byte read is the device's last byte — where a load of one word too
// many panics.
func TestLoadBytesEveryAlignment(t *testing.T) {
	dev := nvram.New(nvram.Config{Size: 4096})
	size := int(dev.Size())
	image := make([]byte, size)
	for i := 64; i < size; i++ { // line 0 is the nil guard
		image[i] = byte(i*7 + i>>8)
	}
	for a := 64; a < size; a += 8 {
		dev.Store(Addr(a), binary.LittleEndian.Uint64(image[a:]))
	}
	for n := 0; n <= 80; n++ {
		starts := []int{size - n} // takes every offset too as n runs
		for off := 0; off < 8; off++ {
			starts = append(starts, size/2+off)
		}
		for _, a := range starts {
			if got := loadBytes(dev, Addr(a), n); !bytes.Equal(got, image[a:a+n]) {
				t.Fatalf("loadBytes(%#x, %d) = %x, the device holds %x", a, n, got, image[a:a+n])
			}
		}
	}
}

// TestEntryKeyCompareMatchesBytesCompare checks the stored-key comparison
// against bytes.Compare for stored and probe keys of lengths around every
// 64-byte chunk of the copy, up to the longest key: equal, prefixes of each
// other, and differing by one byte at the first, a middle and the last
// position and on both sides of every chunk boundary.
func TestEntryKeyCompareMatchesBytesCompare(t *testing.T) {
	dev := nvram.New(nvram.Config{Size: 16 << 20})
	defer dev.Close()
	s, err := NewStore(dev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := s.MustCtx(0)
	base := make([]byte, MaxBytesKeyLen)
	for i := range base {
		base[i] = byte(i*37 + 11)
	}
	lens := []int{1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 300, MaxBytesKeyLen}
	for _, n := range lens {
		stored := base[:n]
		e, err := writeBytesEntry(c, bytesHash(stored), stored, nil, 0, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range lens {
			probes := [][]byte{base[:m]}
			for _, d := range []int{0, m / 2, m - 1, 63, 64, 65, 127, 128} {
				if d < m {
					for _, delta := range []byte{1, 255} {
						p := bytes.Clone(base[:m])
						p[d] += delta
						probes = append(probes, p)
					}
				}
			}
			for _, p := range probes {
				if got, want := bytesEntryKeyCompare(s, e, p), bytes.Compare(stored, p); got != want {
					t.Fatalf("stored %d bytes, probe %d bytes: compare = %d, bytes.Compare = %d", n, m, got, want)
				}
			}
		}
	}
}

// entryBenchCtx is a context on a fresh store for the entry benchmarks. The
// device has no write latency: they time the byte path, not the pause.
func entryBenchCtx(b *testing.B) *Ctx {
	dev := nvram.New(nvram.Config{Size: 16 << 20})
	b.Cleanup(func() { dev.Close() })
	s, err := NewStore(dev, Options{})
	if err != nil {
		b.Fatal(err)
	}
	return s.MustCtx(0)
}

// entryBenchValues are the value sizes the entry benchmarks run at.
var entryBenchValues = []int{64, 256, 1024}

// BenchmarkWriteBytesEntry times staging one entry (a 16-byte key and a value
// of each size) with its fence, then freeing it unpublished.
func BenchmarkWriteBytesEntry(b *testing.B) {
	key := []byte("bench-key-000001")
	for _, n := range entryBenchValues {
		b.Run(fmt.Sprintf("value=%d", n), func(b *testing.B) {
			c := entryBenchCtx(b)
			value := bytes.Repeat([]byte{0xA5}, n)
			hash := bytesHash(key)
			b.SetBytes(int64(len(key) + n))
			for range b.N {
				e, err := writeBytesEntry(c, hash, key, value, 0, 0, 0, 0)
				if err != nil {
					b.Fatal(err)
				}
				c.fence()
				c.alloc.Free(e)
			}
		})
	}
}

// BenchmarkAppendEntryValue times copying an entry's value (at each size,
// under a 16-byte key) into a reused buffer.
func BenchmarkAppendEntryValue(b *testing.B) {
	key := []byte("bench-key-000001")
	for _, n := range entryBenchValues {
		b.Run(fmt.Sprintf("value=%d", n), func(b *testing.B) {
			c := entryBenchCtx(b)
			e, err := writeBytesEntry(c, bytesHash(key), key, bytes.Repeat([]byte{0xA5}, n), 0, 0, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			c.fence()
			dst := make([]byte, 0, n)
			b.SetBytes(int64(n))
			for range b.N {
				dst = appendEntryValue(c.s, dst[:0], e)
			}
		})
	}
}
