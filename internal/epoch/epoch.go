// Package epoch implements NV-epochs (§5 of the paper): a coarse-grained,
// epoch-based memory reclamation scheme for durable concurrent data
// structures.
//
// Instead of durably logging every allocation and unlink (the traditional
// approach, available here as the AllocLogging baseline for Figure 9b),
// NV-epochs durably tracks only the set of *active memory areas* per thread
// — the active page table (APT). Because allocation and reclamation exhibit
// locality, the area an operation touches is usually already marked active,
// and the operation performs no durable bookkeeping at all. Only an APT miss
// pays a sync.
//
// Epoch protocol: each thread owns a counter, incremented when an operation
// starts and when it completes, so an odd value means "in an operation".
// Unlinked nodes accumulate into generations; a generation is freed once
// every thread that was mid-operation when the generation was sealed has
// moved on. Frees are issued in a batch covered by a single fence.
//
// Recovery reads the durable APT and sweeps only those areas for
// allocated-but-unreachable objects — the paper's fast alternative to a full
// mark-and-sweep pass.
package epoch

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/nvram"
	"repro/internal/pmem"
)

// Addr is a byte offset into the device.
type Addr = nvram.Addr

// aptCapacity is the per-thread APT capacity in entries. It sizes the
// durable APT region, and images do not record it, so it is part of the
// format rather than a setting.
const aptCapacity = 128

// The volatile APT index: 2·aptCapacity one-byte buckets (load factor at
// most ½), each holding slot+1 of the entry whose probe run covers it.
const (
	aptIndexBits = 8
	aptIndexMask = 1<<aptIndexBits - 1
)

// Config parameterizes a Manager.
type Config struct {
	// MaxThreads is the number of contexts the manager supports, fixed when
	// the manager is made. The durable APT region is sized for this many
	// threads.
	MaxThreads int
	// TrimAt is the APT occupancy that triggers a trim attempt. The paper
	// trims tables exceeding 16 entries (§6.3). Default 16.
	TrimAt int
	// GenSize is the number of retired nodes per generation. Default 64.
	GenSize int
	// AreaShift is log2 of the active-area granularity. Default 12 (4KB
	// pages); §6.3 notes the granularity is adjustable — larger areas give
	// higher hit rates at the cost of recovery time.
	AreaShift uint
	// AllocLogging enables the traditional baseline (§5.1): every allocation
	// and every unlink durably logs its intent before proceeding, costing
	// one sync each. The APT is bypassed. Used by Figure 9b.
	AllocLogging bool
	// Volatile drops all durable bookkeeping (APT and alloc-log): the
	// reclamation scheme degenerates to plain epoch-based reclamation for
	// the NVRAM-oblivious baseline of Figure 7.
	Volatile bool
}

func (c *Config) fill() {
	if c.MaxThreads <= 0 {
		c.MaxThreads = 1
	}
	if c.TrimAt == 0 {
		c.TrimAt = 16
	}
	if c.GenSize == 0 {
		c.GenSize = 64
	}
	if c.AreaShift == 0 {
		c.AreaShift = 12
	}
}

type paddedEpoch struct {
	v atomic.Uint64
	_ [7]uint64
}

// Manager owns the durable APT region and the per-thread epoch counters for
// one pool. The thread count is Config.MaxThreads, fixed when the region is
// carved: each thread has one APT there (§5.4), and under AllocLogging one
// alloc-log ring in a region of its own.
type Manager struct {
	cfg    Config
	pool   *pmem.Pool
	region Addr // durable APT: MaxThreads × aptCapacity words of area addresses
	logReg Addr // AllocLogging mode: MaxThreads × logRing words; 0 otherwise

	epochs []paddedEpoch

	// TrimHook, if non-nil, is invoked before entries are trimmed from an
	// APT. The runtime installs a link-cache flush here: §5.4 requires that
	// the link cache hold no entries for a page before it leaves the table.
	TrimHook func(tid int)

	// FreeHook, if non-nil, is invoked before a generation's nodes are
	// returned to the allocator. The runtime installs a link-cache flush
	// here so that a node's durable unreachability (its unlink, possibly
	// still buffered in the link cache) is established before its slot can
	// be reused.
	FreeHook func(tid int)

	// Chain, if non-nil, keeps the names RetireReplaced relies on whole; see
	// Chain.
	Chain Chain
}

// Chain is implemented by a store whose objects durably name the object they
// replaced (RetireReplaced). Recovery reaches a replaced object only through
// its replacement, and a replaced object waits in the generation of the
// context that retired it, which may be reclaimed long after another
// context's. So an object that still names a replaced object awaiting its
// free is not freed: its context holds it into its next generation, charged
// to its area again, until the free it waits for is done.
type Chain interface {
	// Pending reports whether the retired object a still names a replaced
	// object that has not been freed.
	Pending(a Addr) bool
	// Release runs once the object that by replaced is durably free: by no
	// longer names a pending object.
	Release(by Addr)
}

const logRing = 1024

// ThreadBytes is the durable space one thread's APT takes. The alloc-log
// ring of the AllocLogging baseline comes on top of it.
const ThreadBytes = aptCapacity * 8

// NewManager creates a manager and carves its durable APT region, and under
// AllocLogging its alloc-log region. Store RegionAddr and LogRegionAddr in
// root slots so the tables can be found after a restart.
func NewManager(pool *pmem.Pool, f *nvram.Flusher, cfg Config) (*Manager, error) {
	cfg.fill()
	m := &Manager{cfg: cfg, pool: pool, epochs: make([]paddedEpoch, cfg.MaxThreads)}
	var err error
	m.region, err = pool.AllocRegion(f, uint64(cfg.MaxThreads*aptCapacity)*8)
	if err != nil {
		return nil, err
	}
	if cfg.AllocLogging {
		m.logReg, err = pool.AllocRegion(f, uint64(cfg.MaxThreads*logRing)*8)
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

// AttachManager re-opens a manager whose APT region was carved by a previous
// incarnation with cfg.MaxThreads threads. Volatile state (epochs,
// generations) starts fresh, exactly as after a reboot.
func AttachManager(pool *pmem.Pool, region, logReg Addr, cfg Config) *Manager {
	cfg.fill()
	return &Manager{cfg: cfg, pool: pool, region: region, logReg: logReg,
		epochs: make([]paddedEpoch, cfg.MaxThreads)}
}

// RegionAddr returns the durable APT region address (persist it in a root).
func (m *Manager) RegionAddr() Addr { return m.region }

// LogRegionAddr returns the alloc-log region address, 0 without
// AllocLogging.
func (m *Manager) LogRegionAddr() Addr { return m.logReg }

// Config returns the manager's configuration.
func (m *Manager) Config() Config { return m.cfg }

// AreaOf returns the active-area base address for a.
func (m *Manager) AreaOf(a Addr) Addr { return a &^ (1<<m.cfg.AreaShift - 1) }

// AreaSize returns the active-area granularity in bytes.
func (m *Manager) AreaSize() uint64 { return 1 << m.cfg.AreaShift }

// ActiveAreas reads every thread's durable APT and returns the distinct
// active areas. This is the recovery entry point (§5.5). The first area is
// always among them when it spans more than the pool's header page: a table
// entry for it would be the word 0, which reads as empty, so no table holds
// one (see ensureActive) and recovery sweeps it unasked.
func (m *Manager) ActiveAreas() []Addr {
	dev := m.pool.Device()
	seen := make(map[Addr]bool)
	var out []Addr
	if m.AreaSize() > pmem.PageSize {
		seen[0] = true
		out = append(out, 0)
	}
	for i := 0; i < m.cfg.MaxThreads*aptCapacity; i++ {
		if a := dev.Load(m.region + Addr(i)*8); a != 0 && !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// AllocatedInArea appends the addresses of all allocated objects in the
// pages of area to dst. Used by recovery.
func (m *Manager) AllocatedInArea(dst []Addr, area Addr) []Addr {
	for page := area; page < area+Addr(m.AreaSize()); page += pmem.PageSize {
		dst = m.pool.AllocatedInPage(dst, page)
	}
	return dst
}

// Stats counts APT behaviour for Figure 9a.
//
// A delete's unlink consults the table twice and so counts twice:
// PreRetire, then Retire, which hits the entry PreRetire has just made
// active. A replace's unlink consults it once: RetireReplaced, which hits the
// entry the replacing allocation has just made active. So UnlinkHits +
// UnlinkMisses lies between the unlinks and twice them, and every miss is a
// PreRetire's, or a hold's (Chain): a held object's area is looked up once
// more, nearly always a hit, since its unlink was charged there in the
// generation being freed.
type Stats struct {
	AllocHits    uint64 // allocations whose area was already active
	AllocMisses  uint64 // allocations that durably inserted an APT entry
	UnlinkHits   uint64 // PreRetire, Retire and RetireReplaced lookups that found the area
	UnlinkMisses uint64 // PreRetire (and hold) lookups that durably inserted an entry
	GensFreed    uint64
	NodesFreed   uint64
	Trims        uint64
	Forced       uint64 // inserts into a table full of entries trim may not evict
	Held         uint64 // frees put off because the object names a pending replaced object (Chain)
	LogWrites    uint64 // AllocLogging mode only
}

func (s Stats) add(o Stats) Stats {
	s.AllocHits += o.AllocHits
	s.AllocMisses += o.AllocMisses
	s.UnlinkHits += o.UnlinkHits
	s.UnlinkMisses += o.UnlinkMisses
	s.GensFreed += o.GensFreed
	s.NodesFreed += o.NodesFreed
	s.Trims += o.Trims
	s.Forced += o.Forced
	s.Held += o.Held
	s.LogWrites += o.LogWrites
	return s
}

// aptEntry mirrors one durable APT slot with its volatile trim metadata
// (§5.4: the metadata "is only needed for removing table entries, and is not
// needed in case of a restart" — so it lives here, not in NVRAM).
type aptEntry struct {
	area          Addr
	lastAllocEp   uint64 // thread epoch of the most recent allocation
	lastUnlinkGen uint64 // seq of the generation holding the latest unlink; 0 = none
	lastUse       uint64 // recency tick, for LRU trim ordering
}

// retired is one retired object awaiting its free: a, and for
// RetireReplaced the replacement by that names it (0 otherwise). The unlink
// is charged to by's area when by is set, to a's otherwise.
type retired struct{ a, by Addr }

func (r retired) charged() Addr {
	if r.by != 0 {
		return r.by
	}
	return r.a
}

type generation struct {
	seq   uint64
	nodes []retired
	vec   []uint64 // epoch snapshot at seal
}

// Ctx is the per-thread reclamation context. Not safe for concurrent use.
type Ctx struct {
	m     *Manager
	tid   int
	alloc *pmem.Ctx
	f     *nvram.Flusher

	// The tid's APT slots, log ring and epoch counter.
	aptAddr Addr
	logAddr Addr
	epoch   *paddedEpoch

	// The volatile APT: apt[i] mirrors durable slot i. aptIdx finds an
	// area's slot (open addressing from aptHome, linear probing, slot+1 per
	// bucket, 0 = empty); aptUsed has bit i set while slot i holds an area
	// and aptLen counts those bits.
	apt     [aptCapacity]aptEntry
	aptIdx  [aptIndexMask + 1]uint8
	aptUsed [aptCapacity / 64]uint64
	aptLen  int

	cur        []retired // current (open) generation
	held       []retired // frees put off (Chain), joining the open generation at its seal
	gens       []generation
	genSeq     uint64 // seq of the open generation
	lastFree   uint64 // seq of the newest freed generation (0 = none)
	reclaiming bool   // inside tryReclaim, which a hold's APT lookup can reenter

	logHead int // AllocLogging mode ring cursor

	useTick      uint64 // recency clock for APT entries
	trimCooldown int    // misses to skip before the next trim attempt
	lastAPT      int    // index of the most recently hit APT entry
	recovery     bool

	stats Stats
}

// NewCtx returns the reclamation context for thread tid in
// [0, MaxThreads).
func (m *Manager) NewCtx(tid int, alloc *pmem.Ctx, f *nvram.Flusher) *Ctx {
	if tid < 0 || tid >= m.cfg.MaxThreads {
		panic(fmt.Sprintf("epoch: tid %d out of range [0,%d)", tid, m.cfg.MaxThreads))
	}
	return &Ctx{m: m, tid: tid, alloc: alloc, f: f,
		aptAddr: m.region + Addr(tid*aptCapacity)*8, logAddr: m.logReg + Addr(tid*logRing)*8,
		epoch: &m.epochs[tid], genSeq: 1}
}

// Tid returns the context's thread id.
func (c *Ctx) Tid() int { return c.tid }

// Stats returns a snapshot of this context's counters.
func (c *Ctx) Stats() Stats { return c.stats }

// Begin marks the start of a data-structure operation (epoch becomes odd).
func (c *Ctx) Begin() {
	c.epoch.v.Add(1)
}

// End marks the completion of an operation (epoch becomes even).
func (c *Ctx) End() {
	c.epoch.v.Add(1)
}

func (c *Ctx) ownEpoch() uint64 { return c.epoch.v.Load() }

// AllocNode allocates a node of class cl with active-page-table bookkeeping:
// the paper's Figure 4 flow. If the node's area is already active, no
// durable bookkeeping happens at all; otherwise the APT entry is synced
// before the allocation is committed.
func (c *Ctx) AllocNode(cl pmem.Class) (Addr, error) {
	addr, err := c.alloc.Prepare(cl)
	if err != nil {
		return 0, err
	}
	if c.m.cfg.AllocLogging {
		c.logIntent(addr)
	} else {
		c.ensureActive(c.m.AreaOf(addr), true)
	}
	a := c.alloc.Commit(cl)
	DebugCheckAlloc(c.m, a)
	return a, nil
}

// PreRetire durably marks the area of a as active *before* the caller makes
// the node's removal durable. Call it before the delete's linearizing CAS:
// this guarantees that if the unlink persists, the area is known to
// recovery, which can then free the node.
func (c *Ctx) PreRetire(a Addr) {
	if c.m.cfg.AllocLogging {
		c.logIntent(a)
		return
	}
	c.ensureActive(c.m.AreaOf(a), false)
}

// SetRecovery switches the context into recovery mode: the system is
// quiescent (no concurrent application operations), so Retire frees
// immediately instead of deferring to a grace period. Parallel recovery
// contexts stay safe because the immediate free is idempotent (TryFree).
func (c *Ctx) SetRecovery(on bool) { c.recovery = on }

// InRecovery reports whether the context is in recovery mode.
func (c *Ctx) InRecovery() bool { return c.recovery }

// Retire hands the (already durably unreachable) node at a to the
// reclamation scheme. It will be freed once all operations concurrent with
// the unlink have completed.
func (c *Ctx) Retire(a Addr) { c.retire(retired{a: a}) }

// RetireReplaced retires a, which a replace has just made durably
// unreachable by publishing by, a new object that names a in its durable
// contents. The unlink is charged to by's area, which by's allocation made
// active: the lookup hits, and the entry stays in the table until a is
// freed. Recovery reaches a from by, so a's own area need not be active, and
// no PreRetire precedes the publish. Once a is durably free, the manager's
// Chain releases by; until then by is not freed (Chain).
func (c *Ctx) RetireReplaced(a, by Addr) { c.retire(retired{a: a, by: by}) }

// retire queues r for reclamation, refreshing the unlink generation of the
// APT entry for its charged area.
func (c *Ctx) retire(r retired) {
	if c.recovery {
		c.alloc.TryFree(r.a)
		if r.by != 0 && c.m.Chain != nil {
			c.m.Chain.Release(r.by)
		}
		c.stats.NodesFreed++
		return
	}
	if !c.m.cfg.AllocLogging {
		c.ensureActive(c.m.AreaOf(r.charged()), false) // hit: refreshes lastUnlinkGen
	}
	debugRetire(c.m, c.tid, r.a)
	c.cur = append(c.cur, r)
	if len(c.cur) >= c.m.cfg.GenSize {
		c.seal()
		c.tryReclaim()
	}
}

// hold puts off the free of r, whose object still names a replaced object
// that is not free yet (Chain): r joins the open generation at its seal, and
// its charged area's entry is refreshed to that generation first, so the
// area stays in the table, and r within recovery's reach, until it is freed.
func (c *Ctx) hold(r retired) {
	if !c.m.cfg.AllocLogging {
		c.ensureActive(c.m.AreaOf(r.charged()), false)
	}
	c.held = append(c.held, r)
	c.stats.Held++
}

// seal closes the open generation with a snapshot of all thread epochs.
func (c *Ctx) seal() {
	eps := c.m.epochs
	vec := make([]uint64, len(eps))
	for i := range eps {
		vec[i] = eps[i].v.Load()
	}
	nodes := append(c.cur, c.held...)
	c.held = c.held[:0]
	c.gens = append(c.gens, generation{seq: c.genSeq, nodes: nodes, vec: vec})
	// Hand the full slice to the generation and start a fresh one at full
	// capacity: one allocation per generation instead of a growth series.
	c.cur = make([]retired, 0, c.m.cfg.GenSize)
	c.genSeq++
}

// reclaimable reports whether every thread that was mid-operation at seal
// time has since advanced.
func (c *Ctx) reclaimable(g *generation) bool {
	eps := c.m.epochs
	for t, e := range g.vec {
		if e%2 == 1 && eps[t].v.Load() == e {
			return false
		}
	}
	return true
}

// tryReclaim frees the oldest reclaimable generations. Each generation's
// frees are covered by one fence (§5.3: "the memory reclamation scheme waits
// for all the deallocations it issues at once to be completed"); only then
// are the replacements of the freed objects released (Chain), so that no
// replacement stops naming an object whose free could still be lost. A
// hold's APT lookup can trim, and a trim reclaims: that nested call does
// nothing.
func (c *Ctx) tryReclaim() {
	if c.reclaiming {
		return
	}
	c.reclaiming = true
	if len(c.gens) > 0 && c.reclaimable(&c.gens[0]) && c.m.FreeHook != nil {
		c.m.FreeHook(c.tid)
	}
	chain := c.m.Chain
	for len(c.gens) > 0 && c.reclaimable(&c.gens[0]) {
		g := c.gens[0]
		c.gens = c.gens[1:]
		freed := g.nodes[:0]
		for _, r := range g.nodes {
			if chain != nil && chain.Pending(r.a) {
				c.hold(r)
				continue
			}
			debugFree(c.m, r.a)
			c.alloc.Free(r.a)
			freed = append(freed, r)
		}
		c.f.Fence()
		if chain != nil {
			for _, r := range freed {
				if r.by != 0 {
					chain.Release(r.by)
				}
			}
		}
		// Prompt reuse (§5.1 locality): steer subsequent allocations into
		// the page this batch freed the most slots in, the lowest address on
		// a tie: where the allocator places the next object must repeat from
		// run to run. The batch is done with its slice, so sorting it in
		// place makes each page's frees one run, met in address order.
		slices.SortFunc(freed, func(x, y retired) int { return cmp.Compare(x.a, y.a) })
		best, bestN := Addr(0), 0
		page, run := Addr(0), 0
		for _, r := range freed {
			p := r.a &^ (pmem.PageSize - 1)
			if p != page {
				page, run = p, 0
			}
			run++
			if run > bestN {
				best, bestN = p, run
			}
		}
		if bestN >= 2 {
			c.alloc.Adopt(best)
		}
		c.lastFree = g.seq
		c.stats.GensFreed++
		c.stats.NodesFreed += uint64(len(freed))
	}
	c.reclaiming = false
}

// aptHit refreshes one APT entry's recency and trim metadata on a hit.
func (c *Ctx) aptHit(e *aptEntry, isAlloc bool) {
	e.lastUse = c.useTick
	if isAlloc {
		e.lastAllocEp = c.ownEpoch()
		c.stats.AllocHits++
	} else {
		e.lastUnlinkGen = c.genSeq
		c.stats.UnlinkHits++
	}
}

// aptHome is area's home bucket in aptIdx. Fibonacci hashing: the top bits
// of the product depend on every bit of the area, so aligned areas spread.
func aptHome(area Addr) int { return int(area * 0x9E3779B97F4A7C15 >> (64 - aptIndexBits)) }

// aptFind returns the slot holding area, or -1. The index is at most half
// full, so every probe run ends at an empty bucket.
func (c *Ctx) aptFind(area Addr) int {
	for b := aptHome(area); c.aptIdx[b] != 0; b = (b + 1) & aptIndexMask {
		if s := int(c.aptIdx[b]) - 1; c.apt[s].area == area {
			return s
		}
	}
	return -1
}

// aptFree returns the lowest free slot, or -1 when the table is full.
func (c *Ctx) aptFree() int {
	for w, used := range c.aptUsed {
		if used != ^uint64(0) {
			return w*64 + bits.TrailingZeros64(^used)
		}
	}
	return -1
}

// ensureActive makes sure area is in this thread's APT, durably inserting it
// (one sync) on a miss. isAlloc selects which trim metadata to refresh.
func (c *Ctx) ensureActive(area Addr, isAlloc bool) {
	if c.m.cfg.Volatile {
		return
	}
	if area == 0 {
		// Recovery always sweeps the first area (ActiveAreas), so it needs
		// no entry; an empty entry's area reads 0 and must not answer for it.
		if isAlloc {
			c.stats.AllocHits++
		} else {
			c.stats.UnlinkHits++
		}
		return
	}
	c.useTick++
	// Fast path: allocations and unlinks cluster in one hot area (locality
	// is the whole point of the APT, §5.4), so the most recently hit entry
	// answers most calls without a lookup. Allocation, PreRetire and the
	// retires each consult the APT, so this runs several times per
	// operation.
	if i := c.lastAPT; c.apt[i].area == area {
		c.aptHit(&c.apt[i], isAlloc)
		return
	}
	if i := c.aptFind(area); i >= 0 {
		c.lastAPT = i
		c.aptHit(&c.apt[i], isAlloc)
		return
	}
	// Miss: the table grows; once it exceeds the trim threshold, evict the
	// least recently used quiescent entries back down to it (§5.4). Under
	// unlink-heavy churn most entries are pinned until their generation
	// reclaims, so failed attempts are rate-limited instead of retried on
	// every miss.
	free := c.aptFree()
	if c.trimCooldown > 0 {
		c.trimCooldown--
	}
	if before := c.aptLen; before > c.m.cfg.TrimAt && c.trimCooldown == 0 {
		c.trim()
		if c.aptLen >= before { // nothing was evictable; back off
			c.trimCooldown = 32
		} else {
			// Even successful trims are rate-limited: trimming lazily is
			// always safe — the table is merely allowed to sit a few
			// entries above the threshold between attempts.
			c.trimCooldown = 4
		}
		// The trim's reclaim can hold an object and insert its area (hold):
		// this very area, or another one into the slot found above.
		if i := c.aptFind(area); i >= 0 {
			c.lastAPT = i
			c.aptHit(&c.apt[i], isAlloc)
			return
		}
		if free < 0 || c.aptUsed[free/64]&(1<<(uint(free)%64)) != 0 {
			free = c.aptFree()
		}
	}
	if free < 0 {
		// Table saturated with unremovable entries; force out the entry with
		// the oldest unlink generation. Bounded persistent-leak exposure on
		// crash, never corruption (recovery just won't sweep that area).
		c.stats.Forced++
		oldest := 0
		for i := range c.apt {
			if c.apt[i].lastUnlinkGen < c.apt[oldest].lastUnlinkGen {
				oldest = i
			}
		}
		c.removeEntry(oldest)
		c.f.Fence()
		free = oldest
	}
	b := aptHome(area)
	for c.aptIdx[b] != 0 {
		b = (b + 1) & aptIndexMask
	}
	c.aptIdx[b] = uint8(free + 1)
	c.aptUsed[free/64] |= 1 << (uint(free) % 64)
	c.aptLen++
	c.lastAPT = free
	e := &c.apt[free]
	*e = aptEntry{area: area, lastUse: c.useTick}
	if isAlloc {
		e.lastAllocEp = c.ownEpoch()
		c.stats.AllocMisses++
	} else {
		e.lastUnlinkGen = c.genSeq
		c.stats.UnlinkMisses++
	}
	dev := c.m.pool.Device()
	dev.Store(c.aptAddr+Addr(free)*8, area)
	c.f.Sync(c.aptAddr + Addr(free)*8) // §5.4: page addresses are stored durably
}

// removeEntry durably clears APT slot i (write-back scheduled, caller
// fences) and takes it out of the index.
func (c *Ctx) removeEntry(i int) {
	// Backward-shift deletion keeps probe runs gap-free without tombstones:
	// each later entry of the run whose home does not lie after the hole
	// (cyclically, up to its own bucket) moves back into the hole.
	hole := aptHome(c.apt[i].area)
	for int(c.aptIdx[hole]) != i+1 {
		hole = (hole + 1) & aptIndexMask
	}
	for b := (hole + 1) & aptIndexMask; c.aptIdx[b] != 0; b = (b + 1) & aptIndexMask {
		home := aptHome(c.apt[c.aptIdx[b]-1].area)
		if (b-home)&aptIndexMask >= (b-hole)&aptIndexMask {
			c.aptIdx[hole] = c.aptIdx[b]
			hole = b
		}
	}
	c.aptIdx[hole] = 0
	c.aptUsed[i/64] &^= 1 << (uint(i) % 64)
	c.aptLen--
	c.apt[i] = aptEntry{}
	dev := c.m.pool.Device()
	dev.Store(c.aptAddr+Addr(i)*8, 0)
	c.f.CLWB(c.aptAddr + Addr(i)*8)
}

// aptVictim is a trim candidate: an evictable slot and its recency tick.
type aptVictim struct {
	lastUse uint64
	slot    int
}

// trim evicts quiescent entries — entries whose last allocation's operation
// has completed and whose unlinked nodes have all been freed (§5.4) — in
// least-recently-used order, until occupancy is back at the threshold.
// Evicting only the cold tail preserves the recency that gives the APT its
// high hit rates (Figure 9a). The victims are picked in one pass; only when
// there are any does the link cache get flushed (TrimHook, §5.4), and their
// removals are batched under one fence.
func (c *Ctx) trim() {
	c.stats.Trims++
	c.tryReclaim() // advances lastFree, which decides who is quiescent
	excess := c.aptLen - c.m.cfg.TrimAt
	if excess <= 0 {
		return
	}
	cur := c.ownEpoch()
	// The current allocation pages are active by definition: evicting them
	// would make the very next allocation miss (they are also what recovery
	// must sweep if a crash interrupts an in-flight insert).
	var curAreas [pmem.NumClasses]Addr
	for i, p := range c.alloc.CurrentPages() {
		if p != 0 {
			curAreas[i] = c.m.AreaOf(p)
		}
	}
	var cands [aptCapacity]aptVictim // on the stack: a trim allocates nothing
	n := 0
	for i := range c.apt {
		e := &c.apt[i]
		if e.area == 0 ||
			(cur%2 == 1 && e.lastAllocEp == cur) || // allocation in the still-open operation
			e.lastUnlinkGen > c.lastFree || // unlinked nodes not yet reclaimed
			slices.Contains(curAreas[:], e.area) { // current allocation page's area
			continue
		}
		cands[n] = aptVictim{e.lastUse, i}
		n++
	}
	if n > excess {
		// Ticks are unique, so "the excess least recently used" is exact.
		slices.SortFunc(cands[:n], func(a, b aptVictim) int { return cmp.Compare(a.lastUse, b.lastUse) })
		n = excess
	}
	if n == 0 {
		return
	}
	if c.m.TrimHook != nil {
		c.m.TrimHook(c.tid) // flush the link cache before any entry leaves (§5.4)
	}
	for _, v := range cands[:n] {
		c.removeEntry(v.slot)
	}
	c.f.Fence()
}

// FlushAll seals and reclaims everything reclaimable, then trims. Intended
// for orderly shutdown and tests.
func (c *Ctx) FlushAll() {
	if len(c.cur) > 0 || len(c.held) > 0 {
		c.seal()
	}
	c.tryReclaim()
	c.trim()
}

// PendingRetired returns how many retired nodes await reclamation.
func (c *Ctx) PendingRetired() int {
	n := len(c.cur) + len(c.held)
	for _, g := range c.gens {
		n += len(g.nodes)
	}
	return n
}

// APTLen returns the current APT occupancy (volatile view).
func (c *Ctx) APTLen() int { return c.aptLen }

// logIntent is the AllocLogging baseline: one durable log write (a sync) per
// allocation or unlink, the cost NV-epochs removes.
func (c *Ctx) logIntent(a Addr) {
	if c.m.cfg.Volatile {
		return
	}
	dev := c.m.pool.Device()
	slot := c.logAddr + Addr(c.logHead)*8
	dev.Store(slot, a)
	c.f.Sync(slot)
	c.logHead = (c.logHead + 1) % logRing
	c.stats.LogWrites++
}
