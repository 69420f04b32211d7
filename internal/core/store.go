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
	rootMgrAPT = 0 // epoch manager's active-page-table region
	rootMgrLog = 1 // epoch manager's alloc-log region (AllocLogging only; else 0)
	rootMeta   = 2 // packed store options, for Attach
	RootUser   = 8 // first slot available to structure descriptors
)

// Options configures a Store.
type Options struct {
	// MaxThreads is the number of operation contexts, tids
	// [0, MaxThreads), at most MaxThreadsLimit. It is recorded in the image,
	// so AttachStore makes the same number.
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

	// The operation contexts, indexed by tid: Options.MaxThreads of them,
	// made when the store is formatted or attached.
	ctxs []*Ctx

	// The entry-lifecycle stripes of the byte maps on this store, hash-indexed
	// and ordered alike, keyed by index-key hash. A write holds exactly one,
	// its key's, for one step, and takes no other stripe while it holds it.
	// Store-level so that independently attached values over the
	// same durable map share one serialization domain.
	bytesLocks [2048]sync.Mutex
}

// ErrTooManyThreads is returned for a tid outside [0, MaxThreads), and by
// NewStore for a MaxThreads past MaxThreadsLimit.
var ErrTooManyThreads = errors.New("core: tid out of range")

// MaxThreadsLimit is the largest MaxThreads an image can record.
const MaxThreadsLimit = 0xFFFF

// NewStore formats dev and initializes the substrates.
func NewStore(dev *nvram.Device, opts Options) (*Store, error) {
	if opts.MaxThreads <= 0 {
		opts.MaxThreads = 1
	}
	if opts.MaxThreads > MaxThreadsLimit {
		return nil, fmt.Errorf("%w: %d threads, at most %d", ErrTooManyThreads, opts.MaxThreads, MaxThreadsLimit)
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
	pool.SetRoot(f, rootMeta, packMeta(opts))
	s := &Store{dev: dev, pool: pool, mgr: mgr, opts: opts}
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
		epoch.Config{
			MaxThreads:   opts.MaxThreads,
			AreaShift:    opts.AreaShift,
			AllocLogging: opts.AllocLogging,
		})
	s := &Store{dev: dev, pool: pool, mgr: mgr, opts: opts}
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
		if s.lc != nil {
			s.lc.FlushAll(s.ctxs[tid].f)
		}
	}
	s.mgr.TrimHook = hook
	s.mgr.FreeHook = hook
	s.ctxs = make([]*Ctx, s.opts.MaxThreads)
	for tid := range s.ctxs {
		s.ctxs[tid] = s.newCtx(tid)
	}
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

// stripe is the lock serializing the entry lifecycle of index key hash in
// the byte maps.
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
// context, and a PRNG for skip-list levels. Each tid has one (Store.NewCtx).
type Ctx struct {
	s     *Store
	f     *nvram.Flusher
	alloc *pmem.Ctx
	ep    *epoch.Ctx
	tid   int
	rng   *rand.Rand

	// walkKey is where BytesMap.Walk and Sweep present each entry's key to
	// their visitor, and recovery reads the key of an entry it checks (a
	// context walks one map at a time), so no key is allocated.
	walkKey [MaxBytesKeyLen]byte
	// step is the KeyStep of the step running on this context (one at a
	// time: epoch sections do not nest); it lives here so that handing it to
	// the caller's function allocates nothing.
	step KeyStep
}

// newCtx makes the context for tid.
func (s *Store) newCtx(tid int) *Ctx {
	f := s.dev.NewFlusher()
	if s.lc != nil {
		// A link-cache flush joins whatever the operation already has
		// pending: at most a largest entry's 32 lines plus a few index and
		// allocator lines.
		f.Reserve(s.lc.FlushLines() + 48)
	}
	alloc := s.pool.NewCtx(f)
	return &Ctx{
		s:     s,
		f:     f,
		alloc: alloc,
		ep:    s.mgr.NewCtx(tid, alloc, f),
		tid:   tid,
		rng:   rand.New(rand.NewSource(int64(tid)*0x9E3779B9 + 1)),
	}
}

// NewCtx returns the context of thread tid, or ErrTooManyThreads when tid
// is outside [0, MaxThreads). A context must not be used by two goroutines
// at once.
func (s *Store) NewCtx(tid int) (*Ctx, error) {
	if tid < 0 || tid >= len(s.ctxs) {
		return nil, fmt.Errorf("%w: %d, the store has %d", ErrTooManyThreads, tid, len(s.ctxs))
	}
	return s.ctxs[tid], nil
}

// MustCtx is NewCtx that panics on error, for tests and examples.
func (s *Store) MustCtx(tid int) *Ctx {
	c, err := s.NewCtx(tid)
	if err != nil {
		panic(err)
	}
	return c
}

// ForEachCtx calls fn for every context, in tid order. Intended for
// quiescent maintenance (drain, shutdown).
func (s *Store) ForEachCtx(fn func(c *Ctx)) {
	for _, c := range s.ctxs {
		fn(c)
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
