// Package core implements the paper's primary contribution: log-free durable
// concurrent data structures (linked list, hash table, skip list, binary
// search tree) built from three techniques:
//
//   - link-and-persist (§3): the linearizing CAS installs the new link with
//     a volatile Dirty mark; the link is then written back and the mark
//     removed, by the updater or by any helper. No operation returns before
//     the links it depends on are durable, giving durable linearizability
//     without any logging in data-structure operations.
//   - the link cache (§4): updates may deposit modified links in a volatile
//     cache instead of syncing them one at a time; dependent operations
//     flush whole buckets in one batched sync.
//   - NV-epochs (§5): memory reclamation whose only durable bookkeeping is
//     the per-thread active page table, written only on locality misses.
//
// All structures implement the set abstraction over 8-byte keys and values
// (§6.1). Keys must lie in [MinKey, MaxKey]; the values 0 and ^uint64(0)
// are reserved for sentinels.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/epoch"
	"repro/internal/linkcache"
	"repro/internal/nvram"
	"repro/internal/pmem"
)

// Addr is a byte offset into the device.
type Addr = nvram.Addr

// Key-space bounds for user keys; the values above MaxKey (and 0) are
// sentinel keys (the BST needs three infinities, §3 / Natarajan-Mittal).
const (
	MinKey uint64 = 1
	MaxKey uint64 = ^uint64(0) - 3
)

// Root-directory slot assignments.
const (
	rootMgrAPT   = 0 // epoch manager's active-page-table region
	rootMgrLog   = 1 // epoch manager's alloc-log region (baseline mode)
	rootMeta     = 2 // packed store options, for Attach
	rootMgrBanks = 3 // epoch manager's grown-thread bank table
	RootUser     = 8 // first slot available to structure descriptors
)

// Options configures a Store.
type Options struct {
	// MaxThreads bounds the number of concurrent contexts.
	MaxThreads int
	// LinkCache enables the link cache (§4) for update operations.
	LinkCache bool
	// LinkCacheBuckets sets the cache size; 0 means the paper's 32 buckets.
	LinkCacheBuckets int
	// AllocLogging switches NV-epochs into the traditional durable
	// alloc/free-logging baseline (Figure 9b).
	AllocLogging bool
	// AreaShift is log2 of the active-area granularity (default 12 = 4KB).
	AreaShift uint
	// EpochGenSize overrides the reclamation generation size (default 64).
	EpochGenSize int
	// Volatile strips all durability actions (write-backs, fences, dirty
	// marks, APT bookkeeping) while keeping the algorithms identical: the
	// "implementation oblivious of NVRAM" baseline of Figure 7. Pair it
	// with a zero WriteLatency device.
	Volatile bool
}

// Store bundles one device's substrates: allocator pool, epoch manager, and
// (optionally) the link cache. All durable structures on a device share one
// Store.
type Store struct {
	dev  *nvram.Device
	pool *pmem.Pool
	mgr  *epoch.Manager
	lc   *linkcache.Cache
	opts Options

	// Registered per-thread contexts, indexed by tid. The slice grows past
	// Options.MaxThreads on demand (the manager carves a durable APT bank
	// per extra thread): readers load the pointer lock-free, growth copies
	// under ctxMu.
	ctxMu sync.Mutex
	ctxs  atomic.Pointer[[]*Ctx]

	// bytesLocks are the entry-lifecycle stripes of every byte map on this
	// store, hash-indexed and ordered alike, keyed by index-key hash. Set,
	// Delete and SetAux each take exactly one: the stripe of their key's
	// hash. Store-level so that independently attached values over the same
	// durable map share one serialization domain.
	bytesLocks [2048]sync.Mutex
}

// ErrTooManyThreads is returned when a context cannot be created: a negative
// tid, or thread growth past the epoch manager's durable bank limit.
var ErrTooManyThreads = errors.New("core: tid out of range")

// NewStore formats dev and initializes the substrates.
func NewStore(dev *nvram.Device, opts Options) (*Store, error) {
	if opts.MaxThreads <= 0 {
		opts.MaxThreads = 1
	}
	pool := pmem.Format(dev)
	pool.SetVolatile(opts.Volatile)
	f := dev.NewFlusher()
	mgr, err := epoch.NewManager(pool, f, epoch.Config{
		MaxThreads:   opts.MaxThreads,
		GenSize:      opts.EpochGenSize,
		AreaShift:    opts.AreaShift,
		AllocLogging: opts.AllocLogging,
		Volatile:     opts.Volatile,
	})
	if err != nil {
		return nil, err
	}
	pool.SetRoot(f, rootMgrAPT, mgr.RegionAddr())
	pool.SetRoot(f, rootMgrLog, mgr.LogRegionAddr())
	pool.SetRoot(f, rootMgrBanks, mgr.BanksRegionAddr())
	pool.SetRoot(f, rootMeta, packMeta(opts))
	s := &Store{dev: dev, pool: pool, mgr: mgr, opts: opts}
	s.storeCtxs(make([]*Ctx, opts.MaxThreads))
	s.initVolatile()
	return s, nil
}

// PoolFormatted reports whether dev's persisted image already holds a
// formatted pool: the open-or-create probe deciding NewStore vs AttachStore
// for durable backends (file-backed devices reopened after a crash).
func PoolFormatted(dev *nvram.Device) bool { return pmem.Formatted(dev) }

// AttachStore re-opens a store after a crash or restart. Volatile state
// (link cache, epochs, generations) starts empty, exactly as after a reboot.
// Run the structures' Recover methods before serving operations.
func AttachStore(dev *nvram.Device) (*Store, error) {
	pool, err := pmem.Attach(dev)
	if err != nil {
		return nil, err
	}
	opts := unpackMeta(pool.Root(rootMeta))
	mgr := epoch.AttachManager(pool, pool.Root(rootMgrAPT), pool.Root(rootMgrLog),
		pool.Root(rootMgrBanks),
		epoch.Config{
			MaxThreads:   opts.MaxThreads,
			AreaShift:    opts.AreaShift,
			AllocLogging: opts.AllocLogging,
		})
	s := &Store{dev: dev, pool: pool, mgr: mgr, opts: opts}
	s.storeCtxs(make([]*Ctx, opts.MaxThreads))
	s.initVolatile()
	return s, nil
}

func (s *Store) initVolatile() {
	if s.opts.LinkCache {
		s.lc = linkcache.New(s.dev, s.opts.LinkCacheBuckets)
	}
	// §5.4: before APT entries can be trimmed, and before freed slots can be
	// reused, the link cache must hold no entries for the affected pages.
	hook := func(tid int) {
		if s.lc == nil {
			return
		}
		if c := s.ExistingCtx(tid); c != nil {
			s.lc.FlushAll(c.f)
		}
	}
	s.mgr.TrimHook = hook
	s.mgr.FreeHook = hook
}

func packMeta(o Options) uint64 {
	v := uint64(o.MaxThreads)&0xFFFF | uint64(o.AreaShift&0xFF)<<16
	if o.LinkCache {
		v |= 1 << 24
	}
	if o.AllocLogging {
		v |= 1 << 25
	}
	return v
}

func unpackMeta(v uint64) Options {
	return Options{
		MaxThreads:   int(v & 0xFFFF),
		AreaShift:    uint(v >> 16 & 0xFF),
		LinkCache:    v&(1<<24) != 0,
		AllocLogging: v&(1<<25) != 0,
	}
}

// stripe is the lock serializing index key hash's entry lifecycle.
func (s *Store) stripe(hash uint64) *sync.Mutex {
	return &s.bytesLocks[hash%uint64(len(s.bytesLocks))]
}

// Device returns the underlying simulated NVRAM device.
func (s *Store) Device() *nvram.Device { return s.dev }

// Pool returns the persistent allocator pool.
func (s *Store) Pool() *pmem.Pool { return s.pool }

// Manager returns the NV-epochs manager.
func (s *Store) Manager() *epoch.Manager { return s.mgr }

// LinkCache returns the link cache, or nil when disabled.
func (s *Store) LinkCache() *linkcache.Cache { return s.lc }

// Options returns the store options.
func (s *Store) Options() Options { return s.opts }

// SetRoot durably records a structure descriptor in root slot i (use
// RootUser and above).
func (s *Store) SetRoot(c *Ctx, i int, v uint64) { s.pool.SetRoot(c.f, i, v) }

// Root reads root slot i.
func (s *Store) Root(i int) uint64 { return s.pool.Root(i) }

// Ctx is a per-thread operation context: flusher, allocator context, epoch
// context, and a PRNG for skip-list levels. Create one per worker goroutine.
type Ctx struct {
	s     *Store
	f     *nvram.Flusher
	alloc *pmem.Ctx
	ep    *epoch.Ctx
	tid   int
	rng   *rand.Rand

	// walkKey is where BytesMap.Walk presents each entry's key to its
	// visitor (a context walks one map at a time), so no key is allocated.
	walkKey [MaxBytesKeyLen]byte
}

func (s *Store) loadCtxs() []*Ctx    { return *s.ctxs.Load() }
func (s *Store) storeCtxs(cs []*Ctx) { s.ctxs.Store(&cs) }

// newCtxLocked creates and registers the context for tid (growing the epoch
// manager's durable thread banks when tid is past the formatted MaxThreads).
// Caller holds ctxMu.
func (s *Store) newCtxLocked(tid int) (*Ctx, error) {
	if tid < 0 {
		return nil, fmt.Errorf("%w: %d", ErrTooManyThreads, tid)
	}
	f := s.dev.NewFlusher()
	if s.lc != nil {
		// A link-cache flush joins whatever the operation already has
		// pending: at most a largest entry's 32 lines plus a few index and
		// allocator lines.
		f.Reserve(s.lc.FlushLines() + 48)
	}
	if err := s.mgr.EnsureThread(tid, f); err != nil {
		f.Release()
		return nil, fmt.Errorf("%w: %d: %v", ErrTooManyThreads, tid, err)
	}
	alloc := s.pool.NewCtx(f)
	c := &Ctx{
		s:     s,
		f:     f,
		alloc: alloc,
		ep:    s.mgr.NewCtx(tid, alloc, f),
		tid:   tid,
		rng:   rand.New(rand.NewSource(int64(tid)*0x9E3779B9 + 1)),
	}
	cur := s.loadCtxs()
	var grown []*Ctx
	if tid >= len(cur) {
		grown = make([]*Ctx, tid+1)
	} else {
		grown = make([]*Ctx, len(cur))
	}
	copy(grown, cur)
	if old := grown[tid]; old != nil {
		// Replaced context: deregister its flusher (counters fold into the
		// device totals) so re-registration cycles don't pin dead flushers.
		old.f.Release()
	}
	grown[tid] = c
	s.storeCtxs(grown)
	return c, nil
}

// NewCtx creates (and registers) the context for thread tid, replacing any
// existing registration. tids at or past Options.MaxThreads grow the store's
// thread count (each grown thread gets its own durable APT bank).
func (s *Store) NewCtx(tid int) (*Ctx, error) {
	s.ctxMu.Lock()
	defer s.ctxMu.Unlock()
	return s.newCtxLocked(tid)
}

// MustCtx is NewCtx that panics on error, for tests and examples.
func (s *Store) MustCtx(tid int) *Ctx {
	c, err := s.NewCtx(tid)
	if err != nil {
		panic(err)
	}
	return c
}

// CtxFor returns the registered context for tid, creating it on first use.
// Unlike NewCtx it never replaces an existing context.
func (s *Store) CtxFor(tid int) *Ctx {
	if cs := s.loadCtxs(); tid >= 0 && tid < len(cs) && cs[tid] != nil {
		return cs[tid]
	}
	s.ctxMu.Lock()
	defer s.ctxMu.Unlock()
	if cs := s.loadCtxs(); tid >= 0 && tid < len(cs) && cs[tid] != nil {
		return cs[tid]
	}
	c, err := s.newCtxLocked(tid)
	if err != nil {
		panic(err)
	}
	return c
}

// GrowCtx creates a context on the lowest unregistered tid — the session
// pool's growth path: callers that just need "one more context" and do not
// care which tid backs it.
func (s *Store) GrowCtx() (*Ctx, error) {
	s.ctxMu.Lock()
	defer s.ctxMu.Unlock()
	cur := s.loadCtxs()
	tid := len(cur)
	for i, c := range cur {
		if c == nil {
			tid = i
			break
		}
	}
	return s.newCtxLocked(tid)
}

// ExistingCtx returns the registered context for tid, or nil.
func (s *Store) ExistingCtx(tid int) *Ctx {
	if cs := s.loadCtxs(); tid >= 0 && tid < len(cs) {
		return cs[tid]
	}
	return nil
}

// NumCtxSlots returns the current length of the context registry (tids ever
// registered; some slots may be nil).
func (s *Store) NumCtxSlots() int { return len(s.loadCtxs()) }

// ForEachCtx calls fn for every registered context. Intended for quiescent
// maintenance (drain, shutdown).
func (s *Store) ForEachCtx(fn func(c *Ctx)) {
	for _, c := range s.loadCtxs() {
		if c != nil {
			fn(c)
		}
	}
}

// Flusher exposes the context's persistence context (stats, manual syncs).
func (c *Ctx) Flusher() *nvram.Flusher { return c.f }

// Epoch exposes the context's reclamation context (stats).
func (c *Ctx) Epoch() *epoch.Ctx { return c.ep }

// Tid returns the context's thread id.
func (c *Ctx) Tid() int { return c.tid }

// Shutdown drains this context: seals and reclaims retired nodes, flushes
// the link cache, and releases allocator pages. Call before a planned stop.
func (c *Ctx) Shutdown() {
	if c.s.lc != nil {
		c.s.lc.FlushAll(c.f)
	}
	c.ep.FlushAll()
	c.alloc.Release()
	c.f.Fence()
}
