package core

import (
	"fmt"
	"testing"

	"repro/internal/nvram"
)

// Fence-budget regression tests.
//
// The paper's latency model charges one NVRAM pause per *fence that had
// pending write-backs* (a "sync wait"), not per CLWB — so the write path's
// cost is measured in sync waits. The byte-map Set budget is TWO:
//
//  1. one fence completing the content batch — the entry extent's lines,
//     the index node's line (fresh keys), and the allocator bitmap lines
//     all become durable under a single pause (writeBytesEntry defers its
//     fence to the caller precisely so these merge), and
//  2. one sync for the publishing link — the link-and-persist of the index
//     link (fresh keys) or of the entry-reference/chain swing (replaces).
//
// Steady state only: an APT miss (§5.4) legitimately adds a sync when an
// operation touches a cold area, which is why the budget tests run with
// large areas and a warmed allocator. Future changes that add a fence to
// the hot path fail these tests immediately.

// budgetStore builds a store tuned for deterministic fence accounting:
// link cache off (no deferred/batched link flushes), reclamation deferred
// past the test horizon, 1MB areas so the working set spans a handful of
// APT entries.
func budgetStore(t *testing.T) (*Store, *Ctx) {
	t.Helper()
	return budgetStoreAreas(t, 20, 1<<20)
}

// budgetStoreAreas is budgetStore with 1<<areaShift-byte areas and
// reclamation generations of genSize retired nodes.
func budgetStoreAreas(t *testing.T, areaShift uint, genSize int) (*Store, *Ctx) {
	t.Helper()
	dev := nvram.New(nvram.Config{Size: 64 << 20})
	s, err := NewStore(dev, Options{
		MaxThreads:   1,
		LinkCache:    false,
		AreaShift:    areaShift,
		EpochGenSize: genSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, s.MustCtx(0)
}

func assertBudget(t *testing.T, c *Ctx, what string, budget uint64, op func()) {
	t.Helper()
	before := c.f.SyncWaits
	op()
	if got := c.f.SyncWaits - before; got > budget {
		t.Fatalf("%s cost %d sync waits, budget is %d", what, got, budget)
	}
}

func TestFenceBudgetBytesMapSet(t *testing.T) {
	s, c := budgetStore(t)
	b, err := NewBytesMap(c, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	_ = s
	val := make([]byte, 64)
	key := func(i int) []byte { return []byte(fmt.Sprintf("budget-%06d", i)) }
	// Warm the allocator and the APT (first touches of each area pay the
	// §5.4 insertion sync; that is not part of the steady-state budget).
	for i := 0; i < 64; i++ {
		if _, err := b.Set(c, key(i), val, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 64; i < 256; i++ {
		i := i
		assertBudget(t, c, "BytesMap.Set (fresh key)", 2, func() {
			if _, err := b.Set(c, key(i), val, 0, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	for i := 64; i < 256; i++ {
		i := i
		assertBudget(t, c, "BytesMap.Set (replace)", 2, func() {
			if _, err := b.Set(c, key(i), val, 1, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestFenceBudgetOrderedBytesMapSet(t *testing.T) {
	_, c := budgetStore(t)
	o, err := NewOrderedBytesMap(c)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 64)
	key := func(i int) []byte { return []byte(fmt.Sprintf("budget-%06d", i)) }
	for i := 0; i < 64; i++ {
		if _, err := o.Set(c, key(i), val, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 64; i < 256; i++ {
		i := i
		assertBudget(t, c, "OrderedBytesMap.Set (fresh key)", 2, func() {
			if _, err := o.Set(c, key(i), val, 0, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	for i := 64; i < 256; i++ {
		i := i
		assertBudget(t, c, "OrderedBytesMap.Set (replace)", 2, func() {
			if _, err := o.Set(c, key(i), val, 1, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// byteMapWriters opens each byte map on c and returns its Set (64-byte
// values) and ApplyBatch.
func byteMapWriters(t *testing.T) map[string]func(c *Ctx) (set func(key []byte, meta uint16) error, apply func([]BytesOp) error) {
	val := make([]byte, 64)
	return map[string]func(c *Ctx) (func([]byte, uint16) error, func([]BytesOp) error){
		"map": func(c *Ctx) (func([]byte, uint16) error, func([]BytesOp) error) {
			b, err := NewBytesMap(c, 1<<10)
			if err != nil {
				t.Fatal(err)
			}
			return func(k []byte, meta uint16) error { _, err := b.Set(c, k, val, meta, 0); return err },
				func(ops []BytesOp) error { return b.ApplyBatch(c, ops) }
		},
		"ordered": func(c *Ctx) (func([]byte, uint16) error, func([]BytesOp) error) {
			o, err := NewOrderedBytesMap(c)
			if err != nil {
				t.Fatal(err)
			}
			return func(k []byte, meta uint16) error { _, err := o.Set(c, k, val, meta, 0); return err },
				func(ops []BytesOp) error { return o.ApplyBatch(c, ops) }
		},
	}
}

// TestFenceBudgetUnlinkMiss: a replace whose only APT event is a PreRetire
// miss — the replaced entry's area has left the table, the new entry's has
// not, no trim runs and no generation is reclaimed — still costs two sync
// waits on both maps. The miss is taken before the content fence, so its
// durable table insert carries the pending content lines and the content
// fence has nothing left to wait for. 4 KiB areas and 64-node generations
// spread 4096 entries over ~128 areas, so replacing them oldest first misses
// in the 128-entry table.
func TestFenceBudgetUnlinkMiss(t *testing.T) {
	key := func(i int) []byte { return []byte(fmt.Sprintf("unlink-%06d", i)) }
	const N = 4096
	for name, open := range byteMapWriters(t) {
		t.Run(name, func(t *testing.T) {
			_, c := budgetStoreAreas(t, 12, 64)
			set, _ := open(c)
			for i := 0; i < N; i++ {
				if err := set(key(i), 0); err != nil {
					t.Fatal(err)
				}
			}
			rows := 0
			for i := 0; i < N; i++ {
				before, waits := c.ep.Stats(), c.f.SyncWaits
				if err := set(key(i), 1); err != nil {
					t.Fatal(err)
				}
				after := c.ep.Stats()
				if after.UnlinkMisses-before.UnlinkMisses != 1 || after.AllocMisses != before.AllocMisses ||
					after.Trims != before.Trims || after.GensFreed != before.GensFreed {
					continue // another APT event, or a reclaimed generation's frees
				}
				rows++
				if got := c.f.SyncWaits - waits; got > 2 {
					t.Fatalf("replace of %s with one unlink miss cost %d sync waits, budget is 2", key(i), got)
				}
			}
			if rows < 64 {
				t.Fatalf("only %d replaces had an unlink miss as their only APT event; the row needs 64", rows)
			}
		})
	}
}

// TestFenceBudgetBatch pins the amortized batch budget: a 64-op all-Set
// batch pays at most 64+2 sync waits — one publishing link per op, one
// shared content fence, plus one of slack for an APT insertion as the batch
// crosses into a cold area — instead of the 2×64 the ops would cost issued
// singly. Covers all four steady states: fresh keys and replaces, on both
// the hash-indexed and the ordered map.
func TestFenceBudgetBatch(t *testing.T) {
	const N = 64
	val := make([]byte, 64)
	batch := func(base string, round int) []BytesOp {
		ops := make([]BytesOp, N)
		for i := range ops {
			ops[i] = BytesOp{
				Key:   []byte(fmt.Sprintf("%s-%06d", base, i)),
				Value: val,
				Meta:  uint16(round),
			}
		}
		return ops
	}
	for name, open := range byteMapWriters(t) {
		t.Run(name, func(t *testing.T) {
			_, c := budgetStore(t)
			_, commit := open(c)
			// Warm the allocator and APT (cold-area insertion syncs are not
			// part of the steady-state budget).
			if err := commit(batch("warm", 0)); err != nil {
				t.Fatal(err)
			}
			for round, base := range []string{"fresh", "fresh", "fresh"} {
				ops := batch(fmt.Sprintf("%s-%d", base, round), 0)
				assertBudget(t, c, "ApplyBatch (fresh keys)", N+2, func() {
					if err := commit(ops); err != nil {
						t.Fatal(err)
					}
				})
			}
			for round := 1; round <= 3; round++ {
				ops := batch("fresh-1", round) // rewrite round 1's keys
				assertBudget(t, c, "ApplyBatch (replace)", N+2, func() {
					if err := commit(ops); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}

// TestSetAllocs: a Set is a one-op group whose plan lives in the context's
// scratch, so it makes no heap allocation, for a fresh key or a replace.
func TestSetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const runs = 500
	keys := make([][]byte, runs+1)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("allocs-%06d", i))
	}
	for name, open := range byteMapWriters(t) {
		t.Run(name, func(t *testing.T) {
			_, c := budgetStore(t)
			set, _ := open(c)
			for _, row := range []struct {
				what string
				meta uint16
			}{{"fresh key", 0}, {"replace", 1}} {
				i := 0
				n := testing.AllocsPerRun(runs, func() {
					if err := set(keys[i], row.meta); err != nil {
						t.Fatal(err)
					}
					i++
				})
				if n != 0 {
					t.Errorf("Set (%s): %v allocations, want 0", row.what, n)
				}
			}
		})
	}
}

// TestBatchAllocs: a 64-op ApplyBatch reuses the context's plan and stripe
// scratch; it allocates at most 7 times, fresh keys or replaces.
func TestBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const runs, N = 20, 64
	batches := make([][]BytesOp, runs+1)
	for r := range batches {
		batches[r] = make([]BytesOp, N)
		for i := range batches[r] {
			batches[r][i] = BytesOp{Key: []byte(fmt.Sprintf("allocs-%03d-%06d", r, i)), Value: make([]byte, 64)}
		}
	}
	for name, open := range byteMapWriters(t) {
		t.Run(name, func(t *testing.T) {
			_, c := budgetStore(t)
			_, apply := open(c)
			for _, what := range []string{"fresh keys", "replace"} {
				r := 0
				n := testing.AllocsPerRun(runs, func() {
					if err := apply(batches[r]); err != nil {
						t.Fatal(err)
					}
					r++
				})
				if n > 7 {
					t.Errorf("64-op ApplyBatch (%s): %v allocations, want ≤ 7", what, n)
				}
			}
		})
	}
}

// TestFenceBudgetDeviceTotals cross-checks the budget against the
// device-wide counters over a longer run: the aggregate rate must stay at
// ≤2 sync waits per Set plus a small allowance for page-carve syncs and
// APT misses as the map grows across areas.
func TestFenceBudgetDeviceTotals(t *testing.T) {
	s, c := budgetStore(t)
	o, err := NewOrderedBytesMap(c)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 64)
	for i := 0; i < 256; i++ {
		if _, err := o.Set(c, []byte(fmt.Sprintf("warm-%06d", i)), val, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	const N = 2000
	s.Device().ResetStats()
	for i := 0; i < N; i++ {
		if _, err := o.Set(c, []byte(fmt.Sprintf("tot-%06d", i%500)), val, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Device().Stats()
	if limit := uint64(2*N + N/8); st.SyncWaits > limit {
		t.Fatalf("device saw %d sync waits for %d Sets (%.3f/op), limit %d",
			st.SyncWaits, N, float64(st.SyncWaits)/N, limit)
	}
}
