package memcache

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/logfree"
)

// TestHandReclaimsADueItemFirst: of three items in address order — A due
// with its reference bit set, B unexpired with its bit set, C unexpired and
// unreferenced — one eviction takes A, as memcached reclaims an expired item
// before it evicts a live one, and counts it as expired, not as an eviction.
func TestHandReclaimsADueItemFirst(t *testing.T) {
	m := newCache(t)
	defer m.Close()
	now := time.Now().Unix()
	for _, k := range []string{"k0", "k1", "k2"} {
		if err := m.Set([]byte(k), []byte("v"), 0, uint32(now+3600)); err != nil {
			t.Fatal(err)
		}
	}
	// The roles go by address order, which is the hand's.
	var order []string
	var slots []uint64
	for cursor := uint64(0); ; {
		cursor = m.m.Sweep(cursor, func(e logfree.SweepEntry) bool {
			if e.Live() {
				order, slots = append(order, string(e.Key)), append(slots, e.Slot)
			}
			return true
		})
		if cursor == 0 {
			break
		}
	}
	if len(order) != 3 {
		t.Fatalf("the sweep found %d live items, want 3", len(order))
	}
	a, b, c := order[0], order[1], order[2]
	if _, ok := m.Touch([]byte(a), uint32(now-10)); !ok {
		t.Fatal("touch into the past failed")
	}
	m.ref.Store(new([]atomic.Uint64))
	m.markUsed(slots[0])
	m.markUsed(slots[1])
	before := m.Stats()

	if !m.evictOne() {
		t.Fatal("evictOne found nothing to take")
	}
	for _, k := range []string{b, c} {
		if _, _, _, ok := m.m.GetItem([]byte(k)); !ok {
			t.Fatalf("%s was removed; the due item %s was to go", k, a)
		}
	}
	if _, _, _, ok := m.m.GetItem([]byte(a)); ok {
		t.Fatalf("the due item %s is still present", a)
	}
	after := m.Stats()
	if after.Expired != before.Expired+1 || after.Evictions != before.Evictions || after.EvictionsBytes != before.EvictionsBytes {
		t.Fatalf("expired %d→%d, evictions %d→%d, eviction bytes %d→%d; want one more expired and no eviction",
			before.Expired, after.Expired, before.Evictions, after.Evictions, before.EvictionsBytes, after.EvictionsBytes)
	}
}

// TestFlushAllAllocs: flush_all removes the items as the crawler meets them,
// copying each key into a pooled buffer, so it allocates no per-key copy of
// the cache.
func TestFlushAllAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	m := newCache(t)
	defer m.Close()
	const n = 10_000
	for i := 0; i < n; i++ {
		if err := m.Set(fmt.Appendf(nil, "key-%05d", i), []byte("value"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	removed := m.FlushAll()
	runtime.ReadMemStats(&after)
	if removed != n {
		t.Fatalf("FlushAll removed %d of %d", removed, n)
	}
	mallocs := after.Mallocs - before.Mallocs
	if per := float64(mallocs) / n; per >= 0.1 {
		t.Fatalf("FlushAll of %d items made %d allocations, %.3f per item; want < 0.1", n, mallocs, per)
	}
}

// TestCrawlerUnderTraffic runs the expiry sweep and the MaxBytes valve's
// evictions beside writers. The writers keep rewriting or touching one key
// set to far deadlines; a second set was written once with past deadlines.
// Afterwards every past-deadline key is gone, each counted once as expired,
// so no far-deadline key was removed as due; and the item and byte totals
// equal a recount by one index walk.
func TestCrawlerUnderTraffic(t *testing.T) {
	const writers, farKeys, pastKeys, rounds = 4, 1024, 256, 3000
	val := bytes.Repeat([]byte("v"), 64)
	far := func(i int) []byte { return fmt.Appendf(nil, "far-%04d", i) }
	past := func(i int) []byte { return fmt.Appendf(nil, "past-%04d", i) }
	entry := entrySize(far(0), val)
	m, err := New(Config{MemoryBytes: 64 << 20, MaxBytes: uint64((pastKeys + farKeys/2) * entry), Buckets: 1024, MaxConns: writers + 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	now := time.Now().Unix()
	for i := 0; i < pastKeys; i++ {
		if err := m.Set(past(i), val, 0, uint32(now-100)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	var stop atomic.Bool
	var swept atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			swept.Add(int64(m.SweepExpired(time.Now().Unix())))
		}
	}()
	var writes sync.WaitGroup
	for w := 0; w < writers; w++ {
		writes.Add(1)
		go func(w int) {
			defer writes.Done()
			for r := 0; r < rounds; r++ {
				k := far((w*rounds + r*7) % farKeys)
				deadline := uint32(now + 3600 + int64(r%3))
				// A key comes round every farKeys rounds, and of two rounds
				// farKeys apart at most one is a touch, so every key is set.
				if r%5 == 4 {
					m.Touch(k, deadline)
				} else if err := m.Set(k, val, 0, deadline); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	writes.Wait()
	stop.Store(true)
	wg.Wait()
	swept.Add(int64(m.SweepExpired(time.Now().Unix())))

	for i := 0; i < pastKeys; i++ {
		if _, _, _, ok := m.m.GetItem(past(i)); ok {
			t.Fatalf("%s is past its deadline and still present", past(i))
		}
	}
	st := m.Stats()
	if st.Expired != pastKeys {
		t.Fatalf("%d items removed as expired (%d by the sweep); %d were past their deadline", st.Expired, swept.Load(), pastKeys)
	}
	if st.Evictions == 0 {
		t.Fatal("the MaxBytes valve never evicted")
	}
	present := 0
	for i := 0; i < farKeys; i++ {
		if _, _, _, ok := m.m.GetItem(far(i)); ok {
			present++
		}
	}
	if absent := uint64(farKeys - present); st.Evictions < absent {
		t.Fatalf("%d far-deadline keys are absent, but only %d evictions ran", absent, st.Evictions)
	}
	var items, used int64
	for cursor := uint64(0); ; {
		cursor = m.m.Walk(cursor, func(e logfree.Entry) bool {
			if !isReplMeta(e.Key) {
				items++
				used += footprint(len(e.Key), e.ValueLen)
			}
			return true
		})
		if cursor == 0 {
			break
		}
	}
	if st.Items != items || m.UsedBytes() != used {
		t.Fatalf("Items %d and UsedBytes %d; a walk counts %d items of %d bytes", st.Items, m.UsedBytes(), items, used)
	}
}
