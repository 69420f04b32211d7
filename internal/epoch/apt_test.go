package epoch

import (
	"fmt"
	"testing"

	"repro/internal/nvram"
	"repro/internal/pmem"
)

// headVictims is the trim victim choice of the unindexed table — one scan of
// the whole mirror per victim, least recently used first — kept as the
// oracle for the one-pass trim. apt is the mirror as trim found it; the rest
// is the state trim decides on (after its own tryReclaim).
func headVictims(apt []aptEntry, trimAt int, cur, lastFree uint64, curAreas [pmem.NumClasses]Addr) map[int]bool {
	victims := map[int]bool{}
	occupied := 0
	for i := range apt {
		if apt[i].area != 0 {
			occupied++
		}
	}
	for occupied > trimAt {
		victim, victimUse := -1, ^uint64(0)
	scan:
		for i := range apt {
			e := &apt[i]
			if e.area == 0 || victims[i] || e.lastUse >= victimUse {
				continue
			}
			if e.lastAllocEp == cur && cur%2 == 1 {
				continue
			}
			if e.lastUnlinkGen != 0 && e.lastUnlinkGen > lastFree {
				continue
			}
			for _, a := range curAreas {
				if a != 0 && a == e.area {
					continue scan
				}
			}
			victim, victimUse = i, e.lastUse
		}
		if victim < 0 {
			break
		}
		victims[victim] = true
		occupied--
	}
	return victims
}

// headForced is the unindexed table's choice when a miss finds it full and
// a trim freed nothing: the first entry with the oldest unlink generation.
func headForced(apt []aptEntry) int {
	oldest, oldSeq := 0, ^uint64(0)
	for i := range apt {
		if apt[i].lastUnlinkGen < oldSeq {
			oldest, oldSeq = i, apt[i].lastUnlinkGen
		}
	}
	return oldest
}

// checkAPT asserts that the index, the occupancy bitmap and the count agree
// with a linear scan of the mirror, and the mirror with the durable slots.
func checkAPT(c *Ctx) error {
	dev := c.m.pool.Device()
	n := 0
	seen := map[Addr]int{}
	for i := range c.apt {
		area := c.apt[i].area
		if d := dev.Load(c.aptAddr + Addr(i)*8); d != area {
			return fmt.Errorf("slot %d: durable %#x, mirror %#x", i, d, area)
		}
		if used := c.aptUsed[i/64]>>(i%64)&1 == 1; used != (area != 0) {
			return fmt.Errorf("slot %d: bitmap says used=%v, mirror area %#x", i, used, area)
		}
		if area == 0 {
			continue
		}
		n++
		if j, dup := seen[area]; dup {
			return fmt.Errorf("area %#x in slots %d and %d", area, j, i)
		}
		seen[area] = i
		if got := c.aptFind(area); got != i {
			return fmt.Errorf("index finds area %#x of slot %d at %d", area, i, got)
		}
	}
	if n != c.aptLen || n != c.APTLen() {
		return fmt.Errorf("scan counts %d entries, aptLen %d", n, c.aptLen)
	}
	buckets := 0
	for _, s := range c.aptIdx {
		if s == 0 {
			continue
		}
		buckets++
		if int(s) > aptCapacity || c.apt[s-1].area == 0 {
			return fmt.Errorf("index bucket names empty slot %d", s-1)
		}
	}
	if buckets != n {
		return fmt.Errorf("index holds %d buckets for %d entries", buckets, n)
	}
	return nil
}

// lowestFree is the scan the bitmap replaces.
func lowestFree(apt []aptEntry) int {
	for i := range apt {
		if apt[i].area == 0 {
			return i
		}
	}
	return -1
}

// checkStep compares one action's effect on the table with what the
// unindexed table did: the same trim victims, the same slot for a missed
// area, the same forced eviction. before is the mirror ahead of the action;
// the action ran at most one ensureActive miss (first, before anything else
// touched the table) or one trim, and nothing after it moved lastFree, the
// epoch or the current pages.
func checkStep(c *Ctx, before [aptCapacity]aptEntry, stBefore Stats) error {
	if err := checkAPT(c); err != nil {
		return err
	}
	want := map[int]bool{}
	trimmed := c.stats.Trims != stBefore.Trims
	if trimmed {
		var curAreas [pmem.NumClasses]Addr
		for i, p := range c.alloc.CurrentPages() {
			if p != 0 {
				curAreas[i] = c.m.AreaOf(p)
			}
		}
		want = headVictims(before[:], c.m.cfg.TrimAt, c.ownEpoch(), c.lastFree, curAreas)
	}
	misses := c.stats.AllocMisses + c.stats.UnlinkMisses - stBefore.AllocMisses - stBefore.UnlinkMisses
	if misses > 1 {
		return fmt.Errorf("one action missed %d times", misses)
	}
	if misses == 1 {
		ins := lowestFree(before[:])
		if ins < 0 {
			for v := range want {
				if ins < 0 || v < ins {
					ins = v
				}
			}
		}
		if ins < 0 {
			ins = headForced(before[:])
		}
		if c.lastAPT != ins {
			return fmt.Errorf("miss went to slot %d, want %d", c.lastAPT, ins)
		}
		want[ins] = true
	}
	for i := range c.apt {
		if changed := before[i].area != c.apt[i].area; changed != want[i] {
			return fmt.Errorf("slot %d: changed=%v (area %#x → %#x), oracle says %v (trim ran: %v, misses %d)",
				i, changed, before[i].area, c.apt[i].area, want[i], trimmed, misses)
		}
	}
	return nil
}

// runAPTModel drives one context through a seeded mix of allocations in
// fresh areas and in one hot area, PreRetire/Retire pairs, a blocker context
// that pins generations on and off, and forced trims (some inside an open
// operation), calling check after every action that can touch the table.
func runAPTModel(t *testing.T, trimAt int, seed uint64, check func(c *Ctx, before [aptCapacity]aptEntry, st Stats) error) (nvram.Stats, Stats) {
	t.Helper()
	fx := newFixture(t, Config{MaxThreads: 2, TrimAt: trimAt, GenSize: 4})
	blocker := fx.ctx(1)
	c := fx.ctx(0)
	rng := seed
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % n
	}
	step := 0
	act := func(f func()) {
		before, st := c.apt, c.stats
		f()
		step++
		if err := check(c, before, st); err != nil {
			t.Fatalf("TrimAt %d seed %d step %d: %v", trimAt, seed, step, err)
		}
	}
	// The blocker pins for up to 600 actions at a time: long enough for
	// unreclaimed unlinks to fill the table and force evictions.
	blocked, flip := false, 0
	var live []Addr
	for i := 0; i < 3000; i++ {
		if flip--; flip <= 0 {
			if blocked {
				blocker.End()
				flip = 1 + next(100)
			} else {
				blocker.Begin()
				flip = 1 + next(600)
			}
			blocked = !blocked
		}
		switch r := next(100); {
		case r < 45 && len(live) < 400:
			cl := pageClass // a fresh area nearly every time
			if r < 15 {
				cl = 0
			}
			c.Begin()
			act(func() {
				a, err := c.AllocNode(cl)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, a)
			})
			if r < 3 {
				act(c.trim) // the allocation's operation is still open
			}
			c.End()
		case r < 92 && len(live) > 0:
			j := next(len(live))
			a := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			c.Begin()
			act(func() { c.PreRetire(a) })
			act(func() { c.Retire(a) })
			c.End()
		default:
			act(c.trim)
		}
	}
	if blocked {
		blocker.End()
	}
	act(c.FlushAll)
	return fx.dev.Stats(), c.Stats()
}

// TestAPTModel: the indexed table against the unindexed one it replaced.
// After every action the index, bitmap and count agree with a linear scan
// and the durable slots; every trim removes exactly the victims the old
// one-scan-per-victim loop chose and every miss takes the slot it took; and
// the whole sequence leaves the device and epoch counters recorded at the
// parent commit. The device counts are 4 CLWBs and 4 fences below that
// record: the manager no longer carves a thread-bank table, nor, outside
// AllocLogging, an alloc-log region (two regions, whose carves cost that
// much).
func TestAPTModel(t *testing.T) {
	golden := map[int]struct {
		dev nvram.Stats
		ep  Stats
	}{
		2: {nvram.Stats{Clwbs: 5108, Fences: 2156, SyncWaits: 2156},
			Stats{AllocHits: 491, AllocMisses: 822, UnlinkHits: 2125, UnlinkMisses: 493,
				GensFreed: 328, NodesFreed: 1309, Trims: 606, Forced: 67}},
		16: {nvram.Stats{Clwbs: 4368, Fences: 1747, SyncWaits: 1747},
			Stats{AllocHits: 721, AllocMisses: 592, UnlinkHits: 2218, UnlinkMisses: 400,
				GensFreed: 328, NodesFreed: 1309, Trims: 559, Forced: 64}},
	}
	for _, trimAt := range []int{2, 16} {
		fullMisses := 0
		dev, ep := runAPTModel(t, trimAt, 7, func(c *Ctx, before [aptCapacity]aptEntry, st Stats) error {
			if lowestFree(before[:]) < 0 && c.stats.AllocMisses+c.stats.UnlinkMisses > st.AllocMisses+st.UnlinkMisses {
				fullMisses++
			}
			return checkStep(c, before, st)
		})
		if fullMisses == 0 || ep.GensFreed == 0 {
			t.Fatalf("TrimAt %d: the table never filled or nothing was reclaimed: %+v", trimAt, ep)
		}
		if ep.Forced == 0 || ep.Forced > uint64(fullMisses) {
			t.Fatalf("TrimAt %d: %d forced evictions, want 1..%d (the misses into a full table)", trimAt, ep.Forced, fullMisses)
		}
		if g := golden[trimAt]; dev != g.dev || ep != g.ep {
			t.Errorf("TrimAt %d: counters moved from the parent's:\n device %+v, want %+v\n epoch  %+v, want %+v",
				trimAt, dev, g.dev, ep, g.ep)
		}
	}
}

// TestTrimHookSkippedWhenNothingEvictable: a trim with nothing to remove
// leaves the link cache alone — every entry here belongs to the still-open
// operation, so the trims its misses attempt find no victim.
func TestTrimHookSkippedWhenNothingEvictable(t *testing.T) {
	fx := newFixture(t, Config{MaxThreads: 1, TrimAt: 4})
	calls := 0
	fx.m.TrimHook = func(int) { calls++ }
	c := fx.ctx(0)
	c.Begin()
	for i := 0; i < 12; i++ {
		if _, err := c.AllocNode(pageClass); err != nil {
			t.Fatal(err)
		}
	}
	c.trim()
	c.End()
	if c.Stats().Trims < 2 {
		t.Fatalf("want the misses and the forced call to attempt trims, got %d", c.Stats().Trims)
	}
	if calls != 0 || c.APTLen() != 12 {
		t.Fatalf("trims that removed nothing called TrimHook %d times (APT %d entries)", calls, c.APTLen())
	}
}

// TestTrimHookRunsOnceBeforeEviction: a trim that evicts flushes the link
// cache exactly once, while every victim's durable slot still names its
// area (§5.4: the cache holds nothing for a page once it leaves the table).
func TestTrimHookRunsOnceBeforeEviction(t *testing.T) {
	fx := newFixture(t, Config{MaxThreads: 1, TrimAt: 4})
	c := fx.ctx(0)
	c.Begin()
	for i := 0; i < 12; i++ {
		if _, err := c.AllocNode(pageClass); err != nil {
			t.Fatal(err)
		}
	}
	c.End()
	before := c.apt
	var atHook [][aptCapacity]Addr
	fx.m.TrimHook = func(int) {
		var slots [aptCapacity]Addr
		for i := range slots {
			slots[i] = fx.dev.Load(c.aptAddr + Addr(i)*8)
		}
		atHook = append(atHook, slots)
	}
	c.trim()
	if len(atHook) != 1 {
		t.Fatalf("TrimHook ran %d times, want 1", len(atHook))
	}
	evicted := 0
	for i := range before {
		if before[i].area == 0 || c.apt[i].area != 0 {
			continue
		}
		evicted++
		if atHook[0][i] != before[i].area {
			t.Fatalf("slot %d held %#x when the hook ran, want its area %#x", i, atHook[0][i], before[i].area)
		}
	}
	if evicted != 8 || c.APTLen() != 4 {
		t.Fatalf("evicted %d entries down to %d, want 8 down to 4", evicted, c.APTLen())
	}
}
