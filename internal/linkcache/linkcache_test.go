package linkcache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nvram"
	"repro/internal/ptrtag"
)

func newCache(t *testing.T, buckets int) (*nvram.Device, *Cache) {
	t.Helper()
	dev := nvram.New(nvram.Config{Size: 1 << 20})
	return dev, New(dev, buckets)
}

func TestTryLinkAndAddPerformsCAS(t *testing.T) {
	dev, c := newCache(t, 32)
	dev.Store(128, 100)
	res := c.TryLinkAndAdd(7, 128, 100, 200|ptrtag.Dirty)
	if res != Added {
		t.Fatalf("result = %v, want Added", res)
	}
	if got := dev.Load(128); got != 200|ptrtag.Dirty {
		t.Fatalf("link = %#x, want dirty 200", got)
	}
	if c.Len() != 1 {
		t.Fatalf("cache len = %d, want 1", c.Len())
	}
}

func TestTryLinkAndAddCASFailureReleasesEntry(t *testing.T) {
	dev, c := newCache(t, 32)
	dev.Store(128, 111)
	res := c.TryLinkAndAdd(7, 128, 100, 200|ptrtag.Dirty)
	if res != CASFailed {
		t.Fatalf("result = %v, want CASFailed", res)
	}
	if c.Len() != 0 {
		t.Fatalf("entry leaked after CAS failure: len=%d", c.Len())
	}
	if dev.Load(128) != 111 {
		t.Fatal("failed CAS modified the link")
	}
}

func TestAddedLinkIsNotDurableUntilFlush(t *testing.T) {
	dev, c := newCache(t, 32)
	f := dev.NewFlusher()
	dev.Store(128, 100)
	f.Sync(128)
	c.TryLinkAndAdd(7, 128, 100, 200|ptrtag.Dirty)
	dev.CAS(128, 200|ptrtag.Dirty, 200) // owner clears the mark
	if dev.LinePersisted(128) {
		t.Fatal("link persisted without a flush")
	}
	c.FlushBucketOf(f, 7)
	if !dev.LinePersisted(128) {
		t.Fatal("flush did not persist the link")
	}
	if c.Len() != 0 {
		t.Fatal("flush did not free the entry")
	}
}

func TestScanOnBusyEntryFlushes(t *testing.T) {
	dev, c := newCache(t, 32)
	f := dev.NewFlusher()
	dev.Store(128, 100)
	c.TryLinkAndAdd(7, 128, 100, 200|ptrtag.Dirty)
	dev.CAS(128, 200|ptrtag.Dirty, 200)
	c.Scan(f, 7)
	if !dev.LinePersisted(128) {
		t.Fatal("Scan on a busy entry must flush the bucket")
	}
	if c.Stats().ScanHits == 0 {
		t.Fatal("scan hit not recorded")
	}
}

func TestScanOnUnrelatedKeyIsCheap(t *testing.T) {
	dev, c := newCache(t, 1) // one bucket: same bucket, different 16-bit hash
	f := dev.NewFlusher()
	dev.Store(128, 100)
	c.TryLinkAndAdd(7, 128, 100, 200|ptrtag.Dirty)
	// Find a key with a different 16-bit hash.
	var other uint64
	for k := uint64(100); ; k++ {
		if mix(k)>>48|1 != mix(7)>>48|1 {
			other = k
			break
		}
	}
	before := f.SyncWaits
	c.Scan(f, other)
	if f.SyncWaits != before {
		t.Fatal("scan of unrelated key paid a sync")
	}
	if c.Len() != 1 {
		t.Fatal("unrelated scan evicted the entry")
	}
}

func TestFalseHashCollisionOnlyCausesFlush(t *testing.T) {
	dev, c := newCache(t, 1)
	f := dev.NewFlusher()
	// Find two keys with the same 16-bit hash (bounded search; the hash
	// space is 2^15ish so birthday-collisions arrive quickly).
	target := mix(1)>>48 | 1
	var other uint64
	for k := uint64(2); k < 2_000_000; k++ {
		if mix(k)>>48|1 == target {
			other = k
			break
		}
	}
	if other == 0 {
		t.Skip("no 16-bit collision found in range")
	}
	dev.Store(128, 100)
	c.TryLinkAndAdd(1, 128, 100, 200|ptrtag.Dirty)
	dev.CAS(128, 200|ptrtag.Dirty, 200)
	c.Scan(f, other) // false collision: must flush, not corrupt
	if !dev.LinePersisted(128) {
		t.Fatal("collision scan did not flush")
	}
}

func TestBucketOverflowReturnsNoSpace(t *testing.T) {
	dev, c := newCache(t, 1)
	for i := 0; i < entriesPerBucket; i++ {
		a := Addr(128 + i*64)
		dev.Store(a, 1)
		if res := c.TryLinkAndAdd(uint64(i+1), a, 1, 2|ptrtag.Dirty); res != Added {
			t.Fatalf("add %d: %v", i, res)
		}
	}
	dev.Store(1024, 1)
	if res := c.TryLinkAndAdd(99, 1024, 1, 2|ptrtag.Dirty); res != NoSpace {
		t.Fatalf("overflow add = %v, want NoSpace", res)
	}
}

func TestFlushAllDrains(t *testing.T) {
	dev, c := newCache(t, 8)
	f := dev.NewFlusher()
	for i := 0; i < 20; i++ {
		a := Addr(128 + i*64)
		dev.Store(a, 1)
		c.TryLinkAndAdd(uint64(i+1), a, 1, 2|ptrtag.Dirty)
	}
	c.FlushAll(f)
	if c.Len() != 0 {
		t.Fatalf("FlushAll left %d entries", c.Len())
	}
	for i := 0; i < 20; i++ {
		a := Addr(128 + i*64)
		if dev.Load(a)&^ptrtag.Dirty == 2 && !dev.LinePersisted(a) {
			t.Fatalf("entry %d added but not persisted", i)
		}
	}
}

func TestFlushIsOneBatchedSync(t *testing.T) {
	dev, c := newCache(t, 1)
	f := dev.NewFlusher()
	for i := 0; i < entriesPerBucket; i++ {
		a := Addr(128 + i*64)
		dev.Store(a, 1)
		c.TryLinkAndAdd(uint64(i+1), a, 1, 2|ptrtag.Dirty)
	}
	before := f.SyncWaits
	c.FlushBucketOf(f, 1)
	if got := f.SyncWaits - before; got != 1 {
		t.Fatalf("flush of 6 links paid %d syncs, want 1", got)
	}
}

func TestConcurrentAddScanFlush(t *testing.T) {
	dev, c := newCache(t, 4)
	const workers = 8
	// Pre-create one link word per (worker, slot).
	links := make([][]Addr, workers)
	for w := range links {
		links[w] = make([]Addr, 64)
		for i := range links[w] {
			links[w][i] = Addr(4096 + (w*64+i)*64)
			dev.Store(links[w][i], 1)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f := dev.NewFlusher()
			for i := 0; i < 64; i++ {
				key := uint64(w*1000 + i + 1)
				a := links[w][i]
				switch c.TryLinkAndAdd(key, a, 1, (uint64(i+2)<<6)|ptrtag.Dirty) {
				case Added:
					dev.CAS(a, (uint64(i+2)<<6)|ptrtag.Dirty, uint64(i+2)<<6)
				case NoSpace:
					// Fallback: link-and-persist ourselves.
					if dev.CAS(a, 1, (uint64(i+2)<<6)|ptrtag.Dirty) {
						f.Sync(a)
						dev.CAS(a, (uint64(i+2)<<6)|ptrtag.Dirty, uint64(i+2)<<6)
					}
				}
				c.Scan(f, key)
			}
			c.FlushAll(f)
		}(w)
	}
	wg.Wait()
	if c.Len() != 0 {
		t.Fatalf("cache not drained: %d", c.Len())
	}
	// Every link must have been updated and persisted.
	for w := 0; w < workers; w++ {
		for i := 0; i < 64; i++ {
			a := links[w][i]
			v := dev.Load(a)
			if v == 1 {
				t.Fatalf("worker %d link %d never updated", w, i)
			}
			// The persisted image must match modulo the Dirty mark: a flush
			// may have written the link back while its mark was still set,
			// which is safe (recovery strips marks; the address is durable).
			if dev.PersistedWord(a)&ptrtag.AddrMask != v&ptrtag.AddrMask {
				t.Fatalf("worker %d link %d not durable after FlushAll: vol=%#x pers=%#x",
					w, i, v, dev.PersistedWord(a))
			}
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	dev, c := newCache(t, 32)
	f := dev.NewFlusher()
	dev.Store(128, 1)
	c.TryLinkAndAdd(5, 128, 1, 2|ptrtag.Dirty)
	c.Scan(f, 5)
	s := c.Stats()
	if s.Adds != 1 || s.Scans != 1 || s.Flushes == 0 {
		t.Fatalf("unexpected stats: %+v", s)
	}
}

// addBusy adds a finalized link for key at a, as an update would leave it.
func addBusy(t *testing.T, dev *nvram.Device, c *Cache, key uint64, a Addr) {
	t.Helper()
	dev.Store(a, 1)
	if res := c.TryLinkAndAdd(key, a, 1, 2|ptrtag.Dirty); res != Added {
		t.Fatalf("add of key %d: %v", key, res)
	}
	dev.CAS(a, 2|ptrtag.Dirty, 2)
}

// TestFlushAllIsOneFence: FlushAll over k busy buckets pays one fence and one
// sync wait and counts k bucket flushes; a dependent flush is counted apart.
func TestFlushAllIsOneFence(t *testing.T) {
	dev, c := newCache(t, 32)
	f := dev.NewFlusher()
	busy := map[*bucket]bool{}
	for key := uint64(1); len(busy) < 5; key++ {
		b, _ := c.locate(key)
		if busy[b] {
			continue
		}
		busy[b] = true
		addBusy(t, dev, c, key, Addr(128+64*len(busy)))
	}
	fences, waits, before := f.Fences, f.SyncWaits, c.Stats()
	c.FlushAll(f)
	after := c.Stats()
	if f.Fences-fences != 1 || f.SyncWaits-waits != 1 {
		t.Fatalf("FlushAll over %d buckets: %d fences, %d sync waits; want 1 and 1",
			len(busy), f.Fences-fences, f.SyncWaits-waits)
	}
	if got := after.Flushes - before.Flushes; got != uint64(len(busy)) {
		t.Fatalf("Flushes grew by %d, want %d (buckets written back)", got, len(busy))
	}
	if after.Fences-before.Fences != 1 || after.FlushAlls-before.FlushAlls != 1 ||
		after.DependentFlushes != before.DependentFlushes || after.LinksSunk-before.LinksSunk != 5 {
		t.Fatalf("counters: before %+v, after %+v", before, after)
	}
	addBusy(t, dev, c, 7, 1024)
	c.FlushBucketOf(f, 7)
	if got := c.Stats(); got.DependentFlushes != 1 || got.Fences != after.Fences+1 || got.FlushAlls != after.FlushAlls {
		t.Fatalf("after a dependent flush: %+v", got)
	}
}

// TestFlushAllConcurrent runs two FlushAll loops, an adder and a dependent
// flusher at once. Each FlushAll must leave durable every link added before
// it started, the run must finish (nobody stays waiting on a flag), and after
// the final flush every added link must survive a crash.
func TestFlushAllConcurrent(t *testing.T) {
	dev, c := newCache(t, 8)
	const n = 2000
	addr := func(i int) Addr { return Addr(4096 + 64*i) }
	var added [n]atomic.Bool
	var done atomic.Bool
	var addedUpTo atomic.Int64 // every add below it has returned
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	wg.Add(4)
	go func() { // the adder
		defer wg.Done()
		defer done.Store(true)
		f := dev.NewFlusher()
		for i := 0; i < n; i++ {
			a := addr(i)
			dev.Store(a, 1)
			switch c.TryLinkAndAdd(uint64(i+1), a, 1, 2|ptrtag.Dirty) {
			case Added:
				added[i].Store(true)
			case NoSpace:
				dev.Store(a, 2|ptrtag.Dirty)
				f.Sync(a)
			}
			dev.CAS(a, 2|ptrtag.Dirty, 2)
			addedUpTo.Store(int64(i + 1))
		}
	}()
	for range 2 {
		go func() {
			defer wg.Done()
			f := dev.NewFlusher()
			for !done.Load() {
				upTo := int(addedUpTo.Load())
				c.FlushAll(f)
				for i := 0; i < upTo; i++ {
					if added[i].Load() && dev.PersistedWord(addr(i))&^ptrtag.Dirty != 2 {
						errs <- fmt.Sprintf("link %d added before a FlushAll is not durable after it", i)
						return
					}
				}
			}
		}()
	}
	go func() { // dependent flushes
		defer wg.Done()
		f := dev.NewFlusher()
		for k := uint64(1); !done.Load(); k = k%n + 1 {
			c.FlushBucketOf(f, k)
		}
	}()
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(time.Minute):
		t.Fatal("a flusher is still waiting on a flag")
	}
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	c.FlushAll(dev.NewFlusher())
	dev.Crash()
	for i := 0; i < n; i++ {
		if added[i].Load() && dev.Load(addr(i))&^ptrtag.Dirty != 2 {
			t.Fatalf("link %d was added but is lost in a crash after the last FlushAll", i)
		}
	}
}
