package epoch

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/nvram"
	"repro/internal/pmem"
)

// pageClass is the top size class: one slot per page, so each allocation
// takes a fresh page, which is a fresh area.
const pageClass pmem.Class = pmem.NumClasses - 1

type fixture struct {
	dev  *nvram.Device
	pool *pmem.Pool
	m    *Manager
}

func newFixture(t *testing.T, cfg Config) *fixture {
	t.Helper()
	dev := nvram.New(nvram.Config{Size: 8 << 20})
	pool := pmem.Format(dev)
	f := dev.NewFlusher()
	m, err := NewManager(pool, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{dev: dev, pool: pool, m: m}
}

func (fx *fixture) ctx(tid int) *Ctx {
	f := fx.dev.NewFlusher()
	return fx.m.NewCtx(tid, fx.pool.NewCtx(f), f)
}

func TestAllocNodeLocalityAvoidsSyncs(t *testing.T) {
	fx := newFixture(t, Config{MaxThreads: 1})
	c := fx.ctx(0)
	c.Begin()
	if _, err := c.AllocNode(0); err != nil {
		t.Fatal(err)
	}
	first := c.Stats()
	if first.AllocMisses != 1 {
		t.Fatalf("first allocation should miss APT: %+v", first)
	}
	for i := 0; i < 50; i++ {
		if _, err := c.AllocNode(0); err != nil {
			t.Fatal(err)
		}
	}
	c.End()
	s := c.Stats()
	// 63 class-0 slots per page: all 50 further allocations hit the same area.
	if s.AllocMisses != 1 || s.AllocHits != 50 {
		t.Fatalf("locality broken: %+v", s)
	}
}

func TestAPTMissIsASync(t *testing.T) {
	fx := newFixture(t, Config{MaxThreads: 1})
	c := fx.ctx(0)
	before := c.f.SyncWaits
	c.Begin()
	c.AllocNode(0)
	c.End()
	if c.f.SyncWaits != before+1 {
		t.Fatalf("APT miss should cost exactly one sync, got %d", c.f.SyncWaits-before)
	}
	before = c.f.SyncWaits
	c.Begin()
	c.AllocNode(0)
	c.End()
	if c.f.SyncWaits != before {
		t.Fatalf("APT hit should cost no sync, got %d", c.f.SyncWaits-before)
	}
}

func TestRetireFreesAfterQuiescence(t *testing.T) {
	fx := newFixture(t, Config{MaxThreads: 2, GenSize: 4})
	c := fx.ctx(0)
	var addrs []Addr
	for i := 0; i < 4; i++ {
		c.Begin()
		a, _ := c.AllocNode(0)
		addrs = append(addrs, a)
		c.End()
	}
	for _, a := range addrs {
		c.Begin()
		c.PreRetire(a)
		c.Retire(a)
		c.End()
	}
	c.FlushAll()
	for _, a := range addrs {
		if fx.pool.SlotAllocated(a) {
			t.Fatalf("node %#x not freed after quiescence", a)
		}
	}
	if c.Stats().NodesFreed != 4 {
		t.Fatalf("NodesFreed = %d, want 4", c.Stats().NodesFreed)
	}
}

func TestActiveReaderBlocksReclamation(t *testing.T) {
	fx := newFixture(t, Config{MaxThreads: 2, GenSize: 1})
	writer := fx.ctx(0)
	reader := fx.ctx(1)

	writer.Begin()
	a, _ := writer.AllocNode(0)
	writer.End()

	reader.Begin() // reader now mid-operation

	writer.Begin()
	writer.PreRetire(a)
	writer.Retire(a) // seals a 1-node generation with reader active
	writer.End()
	writer.FlushAll()
	if !fx.pool.SlotAllocated(a) {
		t.Fatal("node freed while a concurrent reader was active")
	}

	reader.End()
	writer.FlushAll()
	if fx.pool.SlotAllocated(a) {
		t.Fatal("node not freed after reader finished")
	}
}

func TestActiveAreasSurviveCrash(t *testing.T) {
	fx := newFixture(t, Config{MaxThreads: 1})
	c := fx.ctx(0)
	c.Begin()
	a, _ := c.AllocNode(0)
	c.End()
	area := fx.m.AreaOf(a)

	fx.dev.Crash()
	pool2, err := pmem.Attach(fx.dev)
	if err != nil {
		t.Fatal(err)
	}
	m2 := AttachManager(pool2, fx.m.RegionAddr(), fx.m.LogRegionAddr(), fx.m.Config())
	areas := m2.ActiveAreas()
	found := false
	for _, x := range areas {
		if x == area {
			found = true
		}
	}
	if !found {
		t.Fatalf("area %#x missing from durable APT after crash: %v", area, areas)
	}
}

// With areas larger than a page, the pool's first nodes share the first
// area with its header. No table entry can name that area (its word would
// be 0, an empty entry), so recovery sweeps it always: a node allocated
// there and never linked is among the objects a crash leaves to recovery,
// here one that evicted every dirty line first, the node's bitmap line too.
func TestFirstAreaIsAlwaysSwept(t *testing.T) {
	fx := newFixture(t, Config{MaxThreads: 1, AreaShift: 16})
	c := fx.ctx(0)
	c.Begin()
	a, err := c.AllocNode(0)
	if err != nil {
		t.Fatal(err)
	}
	c.End()
	if area := fx.m.AreaOf(a); area != 0 {
		t.Fatalf("the first node is in area %#x; the test needs it in the first area", area)
	}
	if st := c.Stats(); st.AllocMisses != 0 || st.AllocHits != 1 {
		t.Fatalf("an allocation in the first area wrote a table entry: %+v", st)
	}

	fx.dev.CrashPartial(rand.New(rand.NewSource(1)), 1)
	pool2, err := pmem.Attach(fx.dev)
	if err != nil {
		t.Fatal(err)
	}
	m2 := AttachManager(pool2, fx.m.RegionAddr(), fx.m.LogRegionAddr(), fx.m.Config())
	areas := m2.ActiveAreas()
	if len(areas) != 1 || areas[0] != 0 {
		t.Fatalf("active areas after the crash are %#x, want the first area alone", areas)
	}
	if objs := m2.AllocatedInArea(nil, 0); !slices.Contains(objs, a) {
		t.Fatalf("the sweep of the first area found %#x, not the node at %#x", objs, a)
	}
}

func TestTrimRemovesQuiescentEntries(t *testing.T) {
	fx := newFixture(t, Config{MaxThreads: 1, TrimAt: 4, GenSize: 2})
	c := fx.ctx(0)
	// Touch many distinct areas: each allocation of pageClass takes a fresh
	// page, which is a fresh area.
	for i := 0; i < 12; i++ {
		c.Begin()
		if _, err := c.AllocNode(pageClass); err != nil {
			t.Fatal(err)
		}
		c.End()
	}
	if c.Stats().Trims == 0 {
		t.Fatal("trim never triggered despite APT growth")
	}
	if c.APTLen() > 8 {
		t.Fatalf("APT not trimmed: %d entries", c.APTLen())
	}
}

func TestTrimHookRuns(t *testing.T) {
	fx := newFixture(t, Config{MaxThreads: 1, TrimAt: 2})
	ran := 0
	fx.m.TrimHook = func(tid int) { ran++ }
	c := fx.ctx(0)
	for i := 0; i < 6; i++ {
		c.Begin()
		c.AllocNode(pageClass)
		c.End()
	}
	if ran == 0 {
		t.Fatal("trim hook never invoked")
	}
}

func TestAllocLoggingCostsSyncPerOp(t *testing.T) {
	fx := newFixture(t, Config{MaxThreads: 1, AllocLogging: true})
	c := fx.ctx(0)
	c.Begin()
	a, _ := c.AllocNode(0)
	c.End()
	c.Begin()
	b, _ := c.AllocNode(0)
	c.End()
	_ = a
	_ = b
	s := c.Stats()
	if s.LogWrites != 2 {
		t.Fatalf("LogWrites = %d, want 2 (one per allocation)", s.LogWrites)
	}
	if s.AllocHits != 0 && s.AllocMisses != 0 {
		t.Fatal("APT should be bypassed in AllocLogging mode")
	}
	before := c.f.SyncWaits
	c.Begin()
	c.AllocNode(0)
	c.End()
	if c.f.SyncWaits != before+1 {
		t.Fatal("AllocLogging allocation should cost one sync even on locality")
	}
}

func TestUnlinkedAreaStaysActiveUntilFreed(t *testing.T) {
	fx := newFixture(t, Config{MaxThreads: 2, TrimAt: 1, GenSize: 100})
	blocker := fx.ctx(1)
	c := fx.ctx(0)
	c.Begin()
	a, _ := c.AllocNode(0)
	c.End()
	area := fx.m.AreaOf(a)

	blocker.Begin() // prevent reclamation
	c.Begin()
	c.PreRetire(a)
	c.Retire(a)
	c.End()
	c.trim() // force a trim: must NOT remove the area with pending unlinks
	found := false
	for i := range c.apt {
		if c.apt[i].area == area {
			found = true
		}
	}
	if !found {
		t.Fatal("area with unreclaimed unlinks was trimmed from APT")
	}
	blocker.End()
}

// TestRetireReplacedChargesReplacement: a replaced object's unlink is
// charged to its replacement's area, which the replacement's allocation has
// just made active: the lookup hits, the replaced object's own area is never
// inserted, and the replacement's area survives a trim until the replaced
// object is freed.
func TestRetireReplacedChargesReplacement(t *testing.T) {
	fx := newFixture(t, Config{MaxThreads: 2, TrimAt: 1, GenSize: 100})
	blocker := fx.ctx(1)
	c := fx.ctx(0)
	c.Begin()
	old, _ := c.AllocNode(pageClass)
	c.End()
	c.FlushAll() // the old object's area leaves the table
	oldArea := fx.m.AreaOf(old)

	blocker.Begin() // prevent reclamation
	c.Begin()
	by, _ := c.AllocNode(pageClass)
	before, waits := c.Stats(), c.f.SyncWaits
	c.RetireReplaced(old, by)
	c.End()
	after := c.Stats()
	if after.UnlinkHits != before.UnlinkHits+1 || after.UnlinkMisses != before.UnlinkMisses || c.f.SyncWaits != waits {
		t.Fatalf("RetireReplaced: %+v → %+v, %d sync waits; want one hit and no sync", before, after, c.f.SyncWaits-waits)
	}
	c.trim()
	has := func(area Addr) bool { return c.aptFind(area) >= 0 }
	if has(oldArea) {
		t.Fatal("the replaced object's area was inserted")
	}
	if !has(fx.m.AreaOf(by)) {
		t.Fatal("the replacement's area was trimmed before the replaced object was freed")
	}
	blocker.End()
	c.FlushAll()
	if fx.pool.SlotAllocated(old) {
		t.Fatal("the replaced object was not freed once reclaimable")
	}
}

// fakeChain is a Chain over a table of which object names which: a names
// names[a] until that object is released.
type fakeChain struct{ names map[Addr]Addr }

func (ch fakeChain) Pending(a Addr) bool { return ch.names[a] != 0 }
func (ch fakeChain) Release(by Addr)     { delete(ch.names, by) }

// TestHeldUntilReplacedIsFreed: context A retires y, replaced by x, and
// idles with y in its open generation; context B then retires x and drains.
// x still names y, so B holds it, allocated and its area in B's table, into
// its next generation; once A frees y and releases x, B frees x.
func TestHeldUntilReplacedIsFreed(t *testing.T) {
	fx := newFixture(t, Config{MaxThreads: 2, TrimAt: 1, GenSize: 100})
	chain := fakeChain{names: map[Addr]Addr{}}
	fx.m.Chain = chain
	a, b := fx.ctx(0), fx.ctx(1)
	a.Begin()
	y, _ := a.AllocNode(pageClass)
	x, _ := a.AllocNode(pageClass)
	chain.names[x] = y
	a.RetireReplaced(y, x)
	a.End()

	b.Begin()
	b.Retire(x)
	b.End()
	b.FlushAll()
	if !fx.pool.SlotAllocated(x) || b.Stats().Held != 1 || b.PendingRetired() != 1 {
		t.Fatalf("x: allocated %v, held %d, pending %d; want held once and allocated",
			fx.pool.SlotAllocated(x), b.Stats().Held, b.PendingRetired())
	}
	if b.aptFind(fx.m.AreaOf(x)) < 0 {
		t.Fatal("a held object's area left its context's table")
	}

	a.FlushAll()
	if fx.pool.SlotAllocated(y) || chain.names[x] != 0 {
		t.Fatalf("y: allocated %v, x still names it %v", fx.pool.SlotAllocated(y), chain.names[x] != 0)
	}
	b.FlushAll()
	if fx.pool.SlotAllocated(x) || b.PendingRetired() != 0 {
		t.Fatalf("x: allocated %v, pending %d after its replaced object was freed", fx.pool.SlotAllocated(x), b.PendingRetired())
	}
}

func TestConcurrentRetireStress(t *testing.T) {
	fx := newFixture(t, Config{MaxThreads: 8, GenSize: 16})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := fx.ctx(w)
			var live []Addr
			for i := 0; i < 2000; i++ {
				c.Begin()
				if len(live) > 32 {
					a := live[0]
					live = live[1:]
					c.PreRetire(a)
					c.Retire(a)
				} else {
					a, err := c.AllocNode(0)
					if err != nil {
						t.Error(err)
						c.End()
						return
					}
					live = append(live, a)
				}
				c.End()
			}
			c.FlushAll()
		}(w)
	}
	wg.Wait()
}

func TestAreaOfGranularity(t *testing.T) {
	fx := newFixture(t, Config{MaxThreads: 1, AreaShift: 14}) // 16KB areas
	if fx.m.AreaSize() != 16384 {
		t.Fatalf("AreaSize = %d, want 16384", fx.m.AreaSize())
	}
	if fx.m.AreaOf(0x7123) != 0x4000 {
		t.Fatalf("AreaOf(0x7123) = %#x, want 0x4000", fx.m.AreaOf(0x7123))
	}
}

func TestPendingRetiredCounts(t *testing.T) {
	fx := newFixture(t, Config{MaxThreads: 2, GenSize: 1000})
	c := fx.ctx(0)
	c.Begin()
	a, _ := c.AllocNode(0)
	c.End()
	c.Begin()
	c.PreRetire(a)
	c.Retire(a)
	c.End()
	if c.PendingRetired() != 1 {
		t.Fatalf("PendingRetired = %d, want 1", c.PendingRetired())
	}
}

// TestCurrentAllocPageSurvivesTrim: the area of the context's current
// allocation page must never be evicted, even when the table is saturated
// with unevictable unlink entries — otherwise every allocation would miss.
func TestCurrentAllocPageSurvivesTrim(t *testing.T) {
	fx := newFixture(t, Config{MaxThreads: 2, TrimAt: 2, GenSize: 1000})
	blocker := fx.ctx(1)
	blocker.Begin() // pins every generation, making unlink entries unevictable
	c := fx.ctx(0)
	// One allocation establishes the current class-0 page's area.
	c.Begin()
	a, _ := c.AllocNode(0)
	c.End()
	allocArea := fx.m.AreaOf(a)
	// Flood the table with unlink entries from many distinct areas.
	for i := 0; i < 20; i++ {
		c.Begin()
		n, err := c.AllocNode(pageClass) // a fresh area each time
		if err != nil {
			t.Fatal(err)
		}
		c.PreRetire(n)
		c.Retire(n)
		c.End()
	}
	// Keep allocating from class 0: every allocation must hit.
	missesBefore := c.Stats().AllocMisses
	for i := 0; i < 30; i++ {
		c.Begin()
		c.AllocNode(0)
		c.End()
	}
	if got := c.Stats().AllocMisses - missesBefore; got != 0 {
		t.Fatalf("current alloc page evicted: %d misses", got)
	}
	found := false
	for i := range c.apt {
		if c.apt[i].area == allocArea {
			found = true
		}
	}
	if !found {
		t.Fatal("current allocation area missing from APT")
	}
	blocker.End()
}

// TestTrimCooldownBacksOff: when nothing is evictable, trim attempts must
// not rescan on every miss.
func TestTrimCooldownBacksOff(t *testing.T) {
	fx := newFixture(t, Config{MaxThreads: 2, TrimAt: 1, GenSize: 1000})
	blocker := fx.ctx(1)
	blocker.Begin()
	c := fx.ctx(0)
	for i := 0; i < 40; i++ {
		c.Begin()
		n, err := c.AllocNode(pageClass)
		if err != nil {
			t.Fatal(err)
		}
		c.PreRetire(n)
		c.Retire(n)
		c.End()
	}
	if trims := c.Stats().Trims; trims > 10 {
		t.Fatalf("trim attempted %d times for 40 unevictable misses; cooldown broken", trims)
	}
	blocker.End()
}

// TestReclaimIsDeterministic: which page a freed batch steers allocation
// into decides where every later object lands, and through that the sync,
// fence and APT counts. Two identical single-goroutine runs must therefore
// read identical counters; a tie between pages broken by map iteration
// order made them wobble from run to run.
func TestReclaimIsDeterministic(t *testing.T) {
	run := func() (nvram.Stats, Stats) {
		fx := newFixture(t, Config{MaxThreads: 1, GenSize: 8})
		c := fx.ctx(0)
		var live []Addr
		rng := uint64(1)
		next := func(n int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			return int(rng>>33) % n
		}
		for i := 0; i < 20000; i++ {
			c.Begin()
			if len(live) < 256 || next(2) == 0 {
				a, err := c.AllocNode(0)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, a)
			} else {
				j := next(len(live))
				a := live[j]
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				c.PreRetire(a)
				c.Retire(a)
			}
			c.End()
		}
		c.FlushAll()
		return fx.dev.Stats(), c.Stats()
	}
	wantDev, wantEpoch := run()
	// Recorded at the parent of the indexed APT and one-pass trim, which
	// must leave the same durable trail, less the 2 CLWBs and 2 fences of
	// each of the two regions the manager no longer carves: the thread-bank
	// table and, outside AllocLogging, the alloc-log ring.
	if wantDev != (nvram.Stats{Clwbs: 7101, Fences: 1241, SyncWaits: 1241}) ||
		wantEpoch != (Stats{AllocHits: 10281, AllocMisses: 12, UnlinkHits: 19414,
			GensFreed: 1214, NodesFreed: 9707, Trims: 1}) {
		t.Fatalf("counters moved from the recorded ones:\n device %+v\n epoch  %+v", wantDev, wantEpoch)
	}
	for i := 0; i < 8; i++ {
		if dev, ep := run(); dev != wantDev || ep != wantEpoch {
			t.Fatalf("run %d differs from the first:\n device %+v vs %+v\n epoch  %+v vs %+v",
				i+2, dev, wantDev, ep, wantEpoch)
		}
	}
}
