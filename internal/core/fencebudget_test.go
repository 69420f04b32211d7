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
// values).
func byteMapWriters(t *testing.T) map[string]func(c *Ctx) (set func(key []byte, meta uint16) error) {
	val := make([]byte, 64)
	return map[string]func(c *Ctx) func([]byte, uint16) error{
		"map": func(c *Ctx) func([]byte, uint16) error {
			b, err := NewBytesMap(c, 1<<10)
			if err != nil {
				t.Fatal(err)
			}
			return func(k []byte, meta uint16) error { _, err := b.Set(c, k, val, meta, 0); return err }
		},
		"ordered": func(c *Ctx) func([]byte, uint16) error {
			o, err := NewOrderedBytesMap(c)
			if err != nil {
				t.Fatal(err)
			}
			return func(k []byte, meta uint16) error { _, err := o.Set(c, k, val, meta, 0); return err }
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
			set := open(c)
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

// TestSetAllocs: a Set's plan lives on its stack, so it makes no heap
// allocation, for a fresh key or a replace.
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
			set := open(c)
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
