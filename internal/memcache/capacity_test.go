package memcache

// Elastic-capacity behaviour (PR 9): online auto-grow under allocator
// pressure, the logical MaxBytes eviction valve, used-bytes accounting, and
// the crash-consistency of eviction (kill mid-eviction must never resurrect
// an evicted value under another key or leak its extent).

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/logfree"
)

func TestAutoGrowUnderPressure(t *testing.T) {
	var grown []uint64
	m, err := New(Config{
		MemoryBytes:  4 << 20,
		MaxGrowBytes: 64 << 20,
		Buckets:      1024,
		MaxConns:     2,
		OnGrow:       func(total uint64) { grown = append(grown, total) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	val := make([]byte, 1024)
	for i := 0; i < 8000; i++ {
		key := []byte(fmt.Sprintf("grow-%06d", i))
		if err := m.Set(key, val, 0, 0); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
	st := m.Stats()
	if st.GrowCount == 0 {
		t.Fatal("8000×1KB into a 4MB pool with a 64MB reserve: no grow happened")
	}
	if m.SizeBytes() <= 4<<20 {
		t.Fatalf("SizeBytes = %d, want > initial 4MB", m.SizeBytes())
	}
	if st.PoolBytesTotal != m.SizeBytes() {
		t.Fatalf("PoolBytesTotal = %d, SizeBytes = %d", st.PoolBytesTotal, m.SizeBytes())
	}
	if len(grown) != int(st.GrowCount) {
		t.Fatalf("OnGrow fired %d times, GrowCount = %d", len(grown), st.GrowCount)
	}
	for i := 1; i < len(grown); i++ {
		if grown[i] <= grown[i-1] {
			t.Fatalf("OnGrow totals not increasing: %v", grown)
		}
	}
	if _, _, ok := m.Get([]byte("grow-007999")); !ok {
		t.Fatal("most recent key lost")
	}
}

func TestAutoGrowSharded(t *testing.T) {
	m, err := New(Config{
		MemoryBytes:  8 << 20,
		MaxGrowBytes: 64 << 20,
		Buckets:      4096,
		MaxConns:     4,
		Shards:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	val := make([]byte, 1024)
	for i := 0; i < 12000; i++ {
		key := []byte(fmt.Sprintf("sg-%06d", i))
		if err := m.Set(key, val, 0, 0); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
	if m.Stats().GrowCount == 0 {
		t.Fatal("a runtime of several parts never grew under pressure")
	}
	if _, _, ok := m.Get([]byte("sg-011999")); !ok {
		t.Fatal("most recent key lost")
	}
}

// TestShardBudgetsAreSplitByTheOpenedCount: MemoryBytes, MaxGrowBytes and
// Buckets are pool-wide, so a shard count the pool rounds up must not open
// more memory or reserve than configured; and one shard gets the whole
// bucket budget, with no floor meant for split tables.
func TestShardBudgetsAreSplitByTheOpenedCount(t *testing.T) {
	for _, shards := range []int{3, 5, 6} {
		cfg := Config{Shards: shards, MemoryBytes: 96 << 20, MaxGrowBytes: 192 << 20, MaxConns: 2}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.SizeBytes(); got > cfg.MemoryBytes {
			t.Errorf("Shards %d: opened %d bytes across %d shards, budget %d",
				shards, got, len(m.Runtime().Parts()), cfg.MemoryBytes)
		}
		if got := m.Runtime().MaxSizeBytes(); got > cfg.MaxGrowBytes {
			t.Errorf("Shards %d: reserved %d bytes, budget %d", shards, got, cfg.MaxGrowBytes)
		}
		m.Close()
	}

	used := func(buckets int) uint64 {
		m, err := New(Config{MemoryBytes: 16 << 20, Buckets: buckets, MaxConns: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		return m.Stats().PoolBytesUsed
	}
	if small, floor := used(128), used(1024); small >= floor {
		t.Fatalf("one shard with 128 buckets uses %d pool bytes, with 1024 uses %d: the split floor was applied", small, floor)
	}
}

func TestMaxBytesEviction(t *testing.T) {
	m, err := New(Config{MemoryBytes: 64 << 20, MaxBytes: 1 << 20, Buckets: 1024, MaxConns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	val := make([]byte, 1024)
	for i := 0; i < 4000; i++ {
		key := []byte(fmt.Sprintf("mb-%06d", i))
		if err := m.Set(key, val, 0, 0); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
	st := m.Stats()
	if st.Evictions == 0 || st.EvictionsBytes == 0 {
		t.Fatalf("MaxBytes valve idle: evictions=%d evictions_bytes=%d", st.Evictions, st.EvictionsBytes)
	}
	// The budget holds up to one in-flight entry of slack.
	slack := entrySize([]byte("mb-000000"), val)
	if used := m.UsedBytes(); used > int64(1<<20)+slack {
		t.Fatalf("UsedBytes = %d, exceeds the 1MB budget", used)
	}
	if _, _, ok := m.Get([]byte("mb-003999")); !ok {
		t.Fatal("most recent key evicted")
	}
}

// TestEvictionSparesWhatIsRead: with the cache at its MaxBytes budget, a
// quarter of the keys is read again and again while inserts push out as many
// items as the cache holds. The reference bits must keep the hand off the
// quarter being read, and the budget must hold throughout — at one shard and
// with the hand's cursor crossing four.
func TestEvictionSparesWhatIsRead(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) { sparesWhatIsRead(t, shards, 2000, 95) })
}

// TestEvictionSparesWhatIsReadOneHash is TestEvictionSparesWhatIsRead with
// every key on one index hash. A reference bit belongs to an entry, not to a
// hash: the hand clearing a cold key's bit on its way past leaves the bits of
// the keys being read alone. Bits keyed by hash would make every key share
// one, and the hand would take the keys being read as readily as the rest.
func TestEvictionSparesWhatIsReadOneHash(t *testing.T) {
	logfree.SetHashForTesting(func([]byte) uint64 { return logfree.MinKey })
	defer logfree.SetHashForTesting(nil)
	forShards(t, func(t *testing.T, shards int) { sparesWhatIsRead(t, shards, 400, 90) })
}

// TestReferenceTableSize: recency costs one word per allocator page the
// cache has marked an entry on, not a number of slots per item. 20k items of
// 64 B, stored by four writers that grow the table under each other, hold it
// to at most 1 B per item.
func TestReferenceTableSize(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		const n, writers = 20_000, 4
		m, err := New(Config{MemoryBytes: 64 << 20, Buckets: 1024, MaxConns: writers, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		val := bytes.Repeat([]byte("v"), 64)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < n; i += writers {
					if err := m.Set(fmt.Appendf(nil, "size-%06d", i), val, 0, 0); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if size := len(*m.ref.Load()) * 8; size > n {
			t.Fatalf("the reference table holds %d B for %d items", size, n)
		}
	})
}

// TestReferenceTableAfterRecovery: recency is volatile. A recovered cache
// starts with an empty reference table, which no walk over the items sizes,
// and a read marks the bit of the entry it read and no other.
func TestReferenceTableAfterRecovery(t *testing.T) {
	m := newCache(t)
	key := func(i int) []byte { return fmt.Appendf(nil, "rec-%04d", i) }
	for i := 0; i < 2000; i++ {
		if err := m.Set(key(i), []byte("value"), 0, 0); err != nil {
			t.Fatal(err)
		}
		m.Get(key(i))
	}
	m.Flush()
	m.Device().Crash()
	m2, _, err := Recover(m.Device(), Config{MemoryBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if words := len(*m2.ref.Load()); words != 0 {
		t.Fatalf("the recovered cache's reference table has %d words, want none", words)
	}
	if _, _, ok := m2.Get(key(7)); !ok {
		t.Fatal("item lost in the crash")
	}
	_, _, _, slot, _ := m2.m.AppendItem(nil, key(7))
	i, bit := m2.refIndex(slot)
	table, set := *m2.ref.Load(), 0
	for j := range table {
		if j == i && table[j].Load()&bit == 0 {
			t.Fatal("the read entry's bit is clear")
		}
		set += bits.OnesCount64(table[j].Load())
	}
	if set != 1 {
		t.Fatalf("%d reference bits set after one read, want 1", set)
	}
}

// sparesWhatIsRead fills a cache of n items to its budget, pushes out n more
// while reading a quarter of the first n eight times per insert, and fails
// unless keptPct percent of that quarter survived.
func sparesWhatIsRead(t *testing.T, shards, n, keptPct int) {
	val := bytes.Repeat([]byte("v"), 100)
	key := func(kind string, i int) []byte { return fmt.Appendf(nil, "%s-%05d", kind, i) }
	entry := entrySize(key("old", 0), val)
	budget := int64(n) * entry
	m, err := New(Config{MemoryBytes: 64 << 20, MaxBytes: uint64(budget), Buckets: 4096, MaxConns: 2, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < n; i++ {
		if err := m.Set(key("old", i), val, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if ev := m.Stats().Evictions; ev != 0 || m.UsedBytes() != budget {
		t.Fatalf("after the fill: %d evictions, %d bytes used of %d", ev, m.UsedBytes(), budget)
	}
	hot := n / 4 // keys old-00000, old-00004, ...
	next := 0
	for i := 0; i < n; i++ {
		for r := 0; r < 8; r++ {
			m.Get(key("old", 4*(next%hot)))
			next++
		}
		if err := m.Set(key("new", i), val, 0, 0); err != nil {
			t.Fatal(err)
		}
		if used := m.UsedBytes(); used > budget+entry {
			t.Fatalf("insert %d: %d bytes used, budget %d", i, used, budget)
		}
	}
	if ev := m.Stats().Evictions; ev < uint64(n/2) {
		t.Fatalf("%d evictions: the inserts were to push out at least half of the %d items", ev, n)
	}
	kept := 0
	for i := 0; i < hot; i++ {
		if _, _, ok := m.Get(key("old", 4*i)); ok {
			kept++
		}
	}
	if kept < hot*keptPct/100 {
		t.Fatalf("%d of the %d keys being read survived %d evictions", kept, hot, m.Stats().Evictions)
	}
}

// TestEvictionLocality counts what eviction costs the reclamation layer. A
// seeded single-client churn on a cache capped at about a quarter of its key
// space (link cache on) evicts on about a quarter of its sets. The hand takes
// its victims in address order, so their unlinks find their areas already in
// the active page table and their freed slots are reused from the same pages:
// the churn's APT unlink misses and sync waits are held to the counts that
// order costs. A hand in hash order costs 9148 misses and 44636 sync waits on
// this sequence and fails it.
func TestEvictionLocality(t *testing.T) {
	const keys, ops = 200_000, 40_000
	rng := rand.New(rand.NewSource(27))
	key := func(i int) []byte { return fmt.Appendf(nil, "item-%06d", i) }
	val := func() []byte { return bytes.Repeat([]byte("v"), 32+rng.Intn(200)) }
	budget := keys / 4 * entrySize(key(0), make([]byte, 132))
	m, err := New(Config{MemoryBytes: 64 << 20, MaxBytes: uint64(budget), Buckets: 4096, MaxConns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < keys/5; i++ {
		if err := m.Set(key(i), val(), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	counts := func() (unlinkMisses, syncWaits uint64) {
		m.Runtime().Store().ForEachCtx(func(c *core.Ctx) { unlinkMisses += c.Epoch().Stats().UnlinkMisses })
		return unlinkMisses, m.Device().Stats().SyncWaits
	}
	misses0, waits0 := counts()
	evictions0 := m.Stats().Evictions
	for op := 0; op < ops; op++ {
		k := key(rng.Intn(keys))
		if rng.Intn(2) == 0 {
			m.Get(k)
		} else if err := m.Set(k, val(), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	misses1, waits1 := counts()
	misses, waits, evictions := misses1-misses0, waits1-waits0, m.Stats().Evictions-evictions0
	t.Logf("%d evictions: %d APT unlink misses, %d sync waits", evictions, misses, waits)
	if evictions < ops/10 {
		t.Fatalf("%d evictions in %d operations: the churn was to evict", evictions, ops)
	}
	const missBudget, waitBudget = 4237, 28794
	if misses > missBudget || waits > waitBudget {
		t.Fatalf("%d evictions cost %d APT unlink misses and %d sync waits; budgets %d and %d",
			evictions, misses, waits, missBudget, waitBudget)
	}
}

func TestUsedBytesAccounting(t *testing.T) {
	m := newCache(t)
	defer m.Close()
	if got := m.UsedBytes(); got != 0 {
		t.Fatalf("fresh cache UsedBytes = %d", got)
	}
	key, v1, v2 := []byte("acct"), []byte("short"), bytes.Repeat([]byte("x"), 900)
	m.Set(key, v1, 0, 0)
	if got := m.UsedBytes(); got != entrySize(key, v1) {
		t.Fatalf("after set: UsedBytes = %d, want %d", got, entrySize(key, v1))
	}
	m.Set(key, v2, 0, 0) // rewrite larger
	if got := m.UsedBytes(); got != entrySize(key, v2) {
		t.Fatalf("after rewrite: UsedBytes = %d, want %d", got, entrySize(key, v2))
	}
	m.Delete(key)
	if got := m.UsedBytes(); got != 0 {
		t.Fatalf("after delete: UsedBytes = %d, want 0", got)
	}
}

func TestUsedBytesRebuiltOnRecovery(t *testing.T) {
	m := newCache(t)
	want := int64(0)
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("rb-%03d", i))
		val := bytes.Repeat([]byte("v"), 1+i%64)
		m.Set(key, val, 0, 0)
		want += entrySize(key, val)
	}
	m.Flush()
	m.Device().Crash()
	m2, _, err := Recover(m.Device(), Config{MemoryBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := m2.UsedBytes(); got != want {
		t.Fatalf("recovered UsedBytes = %d, want %d", got, want)
	}
}

// tortureVal is the unique value bound to torture key i: any recovered value
// that does not match its own key's pattern means an evicted item's extent
// was reused before its delete was durable (cross-key bleed).
func tortureVal(i int) []byte {
	v := make([]byte, 512)
	copy(v, fmt.Sprintf("torture-value-%06d|", i))
	for j := len(fmt.Sprintf("torture-value-%06d|", i)); j < len(v); j++ {
		v[j] = byte(i)
	}
	return v
}

// TestEvictionCrashTorture kills the cache (word-granular, via StoreHook) at
// a sweep of points while eviction is churning, recovers, and asserts the
// delete-before-reuse ordering: every surviving key reads back its own
// value exactly, and the cache stays fully operable (extents of evicted
// items are reusable — no leak).
func TestEvictionCrashTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("crash torture sweep is slow")
	}
	cfg := Config{MemoryBytes: 2 << 20, Buckets: 256, MaxConns: 2, DisableLinkCache: true}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev := m.Device()

	next := 0
	fill := func(c *Cache, n int) error {
		for j := 0; j < n; j++ {
			if err := c.Set([]byte(fmt.Sprintf("t-%06d", next)), tortureVal(next), 0, 0); err != nil {
				return err
			}
			next++
		}
		return nil
	}
	// Reach steady-state memory pressure so every further set evicts.
	if err := fill(m, 4096); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Evictions == 0 {
		t.Fatal("pre-fill did not reach eviction pressure")
	}

	for k := 1; k <= 40; k++ {
		remaining := k * 257 // vary the kill point across eviction's write sequence
		dev.StoreHook = func() {
			remaining--
			if remaining == 0 {
				panic("torture kill")
			}
		}
		aborted := false
		func() {
			defer func() {
				if recover() != nil {
					aborted = true
				}
			}()
			_ = fill(m, 64)
		}()
		dev.StoreHook = nil
		if !aborted {
			continue
		}
		dev.Crash()
		m2, _, err := Recover(dev, cfg)
		if err != nil {
			t.Fatalf("k=%d: recovery after mid-eviction kill: %v", k, err)
		}
		auditRecovered(t, m2)
		for i := 0; i < next; i++ {
			v, _, ok := m2.Get([]byte(fmt.Sprintf("t-%06d", i)))
			if !ok {
				continue // evicted, or its in-flight set died with the crash
			}
			if !bytes.Equal(v, tortureVal(i)) {
				t.Fatalf("k=%d: key t-%06d corrupt after crash (cross-key bleed)", k, i)
			}
		}
		m = m2
	}

	// The survivor must still absorb a full working set: evicted extents came
	// back to the allocator.
	if err := fill(m, 4096); err != nil {
		t.Fatalf("post-torture fill: %v", err)
	}
}
