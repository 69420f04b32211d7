// Package logfree is the public API of the log-free durable data structure
// library — a Go reproduction of "Log-Free Concurrent Data Structures"
// (David, Dragojević, Guerraoui, Zablotchi; USENIX ATC 2018).
//
// A Runtime owns a simulated NVRAM device and its substrates (persistent
// allocator, NV-epochs reclamation, link cache). Durable structures are
// created under a name in a durable directory — itself a log-free durable
// hash table, so the namespace grows without bound — and re-opened by name
// after a crash:
//
//	rt, _ := logfree.New(logfree.WithSize(64 << 20))
//	users, _ := rt.OpenOrCreate("users", logfree.Spec{})
//	users.Set([]byte("alice"), []byte(`{"plan":"pro"}`))
//
//	rt2, _ := rt.SimulateCrash() // power failure + reboot + recovery
//	users2, _ := rt2.OpenOrCreate("users", logfree.Spec{})
//	users2.Get([]byte("alice")) // → the value, true
//
// Threading: there are no per-thread handles. Every method of every
// structure is safe to call from any goroutine — each operation draws an
// operation context from the runtime's lock-free session pool, which grows
// on demand past any formatted thread count. Advanced callers can pin a
// Session (Runtime.Session + the structures' WithSession views) to amortize
// the pool round-trip in tight loops.
//
// Iteration: All, Items, Scan, Ascend and Descend return Go
// range-over-func iterators (iter.Seq2); the reclamation epoch section is
// held across the whole loop, so iteration is safe against concurrent
// updates (no snapshot semantics), and loop bodies may freely call other
// operations — those draw their own sessions.
package logfree

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/nvram"
)

// Key-space bounds re-exported from the core: uint64 user keys must lie in
// [MinKey, MaxKey].
const (
	MinKey = core.MinKey
	MaxKey = core.MaxKey
)

// config collects the options of a Runtime.
type config struct {
	size         uint64 // 0 = default (fresh devices) or adopt (file/backend)
	maxSize      uint64 // growth reserve; 0 = frozen at size
	writeLatency time.Duration
	maxThreads   int
	areaShift    uint
	linkCache    bool // as requested; see effectiveLinkCache
	volatile     bool
	device       DeviceSpec
	durability   Durability
}

// defaultSize is the simulated NVRAM capacity when none is configured.
const defaultSize = 64 << 20

// Option configures a Runtime.
type Option func(*config)

// WithSize sets the simulated NVRAM capacity in bytes (default 64 MiB).
// With WithDevice(FileDevice(path)) it sizes a newly created backing file;
// reopening an existing file adopts the file's formatted capacity, and an
// explicit WithSize that disagrees with it is an error.
func WithSize(bytes uint64) Option { return func(c *config) { c.size = bytes } }

// WithMaxSize reserves growth headroom: the runtime starts at WithSize
// bytes but can Grow online up to this many. On a file or DAX device,
// reopening an existing image ADOPTS its formatted capacity (whatever the
// last durable grow reached) instead of erroring on a WithSize disagreement
// — an elastic pool's size is state, not configuration. Zero freezes the
// capacity at WithSize, exactly the pre-growth behaviour.
func WithMaxSize(bytes uint64) Option { return func(c *config) { c.maxSize = bytes } }

// WithDevice names the persistence substrate of the runtime — see
// DeviceSpec (MemDevice, FileDevice, DAXDevice, BackendDevice). For durable
// substrates New opens-or-creates: an image holding a formatted pool is
// recovered (Recovered reports true), anything else is formatted fresh.
// SaveImage/LoadImage keep working as portable snapshots. Mutually
// exclusive with WithVolatile (except MemDevice).
func WithDevice(spec DeviceSpec) Option { return func(c *config) { c.device = spec } }

// WithDurability sets the policy for what an acknowledged operation means
// on the configured device — see Durability (Strict, Synced, Buffered).
// The default is Synced.
func WithDurability(d Durability) Option { return func(c *config) { c.durability = d } }

// WithWriteLatency sets the simulated NVRAM write latency (paper default
// 125ns via nvram.DefaultWriteLatency). Zero disables latency injection.
func WithWriteLatency(d time.Duration) Option { return func(c *config) { c.writeLatency = d } }

// WithMaxThreads sizes the formatted per-thread region of the durable active
// page table (default 1; on Attach, the pool's formatted thread count). It
// is no longer a cap: the session pool grows past it on demand, each extra
// session backed by its own durable APT bank — pre-sizing just packs the
// expected steady-state concurrency into one region.
func WithMaxThreads(n int) Option { return func(c *config) { c.maxThreads = n } }

// WithLinkCache toggles the §4 link cache for updates.
func WithLinkCache(on bool) Option { return func(c *config) { c.linkCache = on } }

// WithAreaShift sets log2 of the NV-epochs active-area granularity (§5.4).
// The runtime default is 16 (64KB areas): a production working set spans
// few areas, so the active page table almost never misses — at the cost of
// a proportionally larger recovery sweep per table entry. The paper's
// evaluation granularity (4KB pages, as in internal/bench) is shift 12.
func WithAreaShift(shift uint) Option { return func(c *config) { c.areaShift = shift } }

// WithVolatile strips durability (the Figure 7 baseline).
func WithVolatile(on bool) Option { return func(c *config) { c.volatile = on } }

func buildConfig(opts []Option) config {
	c := config{areaShift: 16}
	for _, o := range opts {
		o(&c)
	}
	if c.maxThreads < 0 {
		c.maxThreads = 0
	}
	return c
}

// openDevice builds the NVRAM device the DeviceSpec names and threads the
// durability policy into its backend.
func (c *config) openDevice() (*nvram.Device, error) {
	ncfg := nvram.Config{WriteLatency: c.writeLatency, MaxSize: c.maxSize}
	spec := c.device
	if c.volatile && spec.Kind != DeviceMem {
		return nil, fmt.Errorf("logfree: WithVolatile strips the write-backs a durable backend exists to capture")
	}
	switch spec.Kind {
	case DeviceBackend:
		if spec.Backend == nil {
			return nil, fmt.Errorf("logfree: BackendDevice with a nil backend")
		}
		ncfg.Size = c.size // 0 adopts the backend's capacity
		if ps, ok := spec.Backend.(syncPolicySetter); ok {
			ps.SetSyncPolicy(c.durability.syncPolicy())
		}
		return nvram.NewWithBackend(ncfg, spec.Backend)
	case DeviceFile, DeviceDAX:
		ncfg.Size = c.size
		if st, err := os.Stat(spec.Path); (err != nil || st.Size() == 0) && ncfg.Size == 0 {
			ncfg.Size = defaultSize // creating fresh with no explicit size
		}
		var (
			dev *nvram.Device
			err error
		)
		if spec.Kind == DeviceDAX {
			dev, _, err = nvram.OpenDAXDevice(spec.Path, ncfg)
		} else {
			dev, _, err = nvram.OpenFileDevice(spec.Path, ncfg)
		}
		if err != nil {
			return nil, err
		}
		if ps, ok := dev.Backend().(syncPolicySetter); ok {
			ps.SetSyncPolicy(c.durability.syncPolicy())
		}
		return dev, nil
	default:
		ncfg.Size = c.size
		if ncfg.Size == 0 {
			ncfg.Size = defaultSize
		}
		return nvram.New(ncfg), nil
	}
}

// effectiveLinkCache derives the link-cache legality from the device and
// policy: on durable substrates a volatile cache of publishing links would
// silently void the acknowledged-operation contract, so it is only honored
// when the policy already accepts bounded staleness (Buffered) — whose
// background timer then also bounds the cache's exposure. Mem and volatile
// runtimes keep the request as-is.
func (c *config) effectiveLinkCache() bool {
	if !c.linkCache {
		return false
	}
	if c.volatile || c.device.Kind == DeviceMem {
		return true
	}
	return c.durability.IsBuffered()
}

// Kind identifies a structure type in the durable directory.
type Kind uint8

// Structure kinds.
const (
	KindList Kind = iota + 1
	KindHashTable
	KindSkipList
	KindBST
	KindQueue
	KindStack
	// KindMap is the byte-keyed durable hash map (arbitrary []byte keys and
	// values; the default Spec kind).
	KindMap
	// KindOrderedMap is the byte-keyed ordered durable map (arbitrary
	// []byte keys and values over a byte-key-comparing durable skip list):
	// everything KindMap offers plus range scans, ordered iteration and
	// Min/Max. OpenOrCreate returns a Map that also satisfies OrderedMap.
	KindOrderedMap
)

func (k Kind) String() string {
	switch k {
	case KindList:
		return "list"
	case KindHashTable:
		return "hashtable"
	case KindSkipList:
		return "skiplist"
	case KindBST:
		return "bst"
	case KindQueue:
		return "queue"
	case KindStack:
		return "stack"
	case KindMap:
		return "map"
	case KindOrderedMap:
		return "orderedmap"
	}
	return "unknown"
}

// Root slots anchoring the durable directory. The directory is a BytesMap
// (name → encoded descriptor); everything else lives inside it.
const (
	rootDirBuckets = core.RootUser + 0
	rootDirTail    = core.RootUser + 1
	rootDirNBkts   = core.RootUser + 2 // written last: directory commit point

	dirBuckets = 64
)

// RecoveryStats aggregates one recovery pass (alias of the core type so
// callers never need the internal packages).
type RecoveryStats = core.RecoveryStats

// Runtime owns one device and its substrates.
type Runtime struct {
	dev   *nvram.Device
	store *core.Store
	cfg   config
	pool  *sessionPool

	closed   atomic.Bool
	attached bool // true when Attach recovered an existing image

	// Buffered-policy link-cache flush timer (startFlushTimer).
	flushStop chan struct{}
	flushDone chan struct{}

	dir   *core.BytesMap
	dirMu sync.Mutex // serializes registrations (rare)

	recovered []RecoveryReport
	recStats  RecoveryStats
}

// RecoveryReport names one structure recovered by Attach. Leak statistics
// are aggregated across the whole pass (all structures share one sweep of
// the active areas); see RecoveryStats.
type RecoveryReport struct {
	Name string
	Kind Kind
}

// New creates a runtime. On the default in-process backend the device is
// always fresh; with WithDevice naming a durable substrate, a persisted
// image that already holds a formatted pool is recovered instead of
// destroyed (open-or-create — Recovered reports which path ran).
func New(opts ...Option) (*Runtime, error) {
	cfg := buildConfig(opts)
	dev, err := cfg.openDevice()
	if err != nil {
		return nil, err
	}
	var r *Runtime
	if core.PoolFormatted(dev) {
		r, err = attachRuntime(dev, cfg)
	} else {
		r, err = createRuntime(dev, cfg)
	}
	if err != nil {
		// Release the backend (file mapping + descriptor + owner lock):
		// a supervisor retrying a failing open must not leak one mapping
		// per attempt.
		dev.Close()
		return nil, err
	}
	return r, nil
}

// createRuntime formats dev and initializes a fresh runtime on it.
func createRuntime(dev *nvram.Device, cfg config) (*Runtime, error) {
	if cfg.maxThreads == 0 {
		cfg.maxThreads = 1
	}
	store, err := core.NewStore(dev, core.Options{
		MaxThreads: cfg.maxThreads,
		LinkCache:  cfg.effectiveLinkCache(),
		AreaShift:  cfg.areaShift,
		Volatile:   cfg.volatile,
	})
	if err != nil {
		return nil, err
	}
	r := &Runtime{dev: dev, store: store, cfg: cfg, pool: newSessionPool(store)}
	if err := r.createDirectory(); err != nil {
		return nil, err
	}
	r.seedPool()
	r.startFlushTimer()
	return r, nil
}

// seedPool hands every core context registered so far to the session pool
// so they serve operations instead of idling: the directory-setup context
// after New, and all the recovery-pass contexts (tids 0..par-1, quiescent
// once Attach returns) after Attach — otherwise the pool would carve fresh
// durable APT banks while formatted thread slots sit unused.
func (r *Runtime) seedPool() {
	r.store.CtxFor(0) // ensure at least one context exists (fresh Attach path)
	r.store.ForEachCtx(func(c *core.Ctx) {
		s := &Session{rt: r, c: c}
		r.pool.register(s)
		r.pool.push(s)
	})
}

// createDirectory formats the durable directory and commits its anchor
// roots (bucket count last, as the commit point).
func (r *Runtime) createDirectory() error {
	c := r.store.CtxFor(0)
	dir, err := core.NewBytesMap(c, dirBuckets)
	if err != nil {
		return err
	}
	r.store.SetRoot(c, rootDirBuckets, dir.Buckets())
	r.store.SetRoot(c, rootDirTail, dir.Tail())
	r.store.SetRoot(c, rootDirNBkts, uint64(dir.NumBuckets()))
	r.dir = dir
	return nil
}

// Attach re-opens a runtime on a device that already holds a formatted pool
// (after a crash or image load): the directory is recovered first, then
// every structure it lists, in one combined sweep of the active areas.
func Attach(dev *nvram.Device, opts ...Option) (*Runtime, error) {
	return attachRuntime(dev, buildConfig(opts))
}

func attachRuntime(dev *nvram.Device, cfg config) (*Runtime, error) {
	store, err := core.AttachStore(dev)
	if err != nil {
		return nil, err
	}
	if cfg.maxThreads == 0 {
		cfg.maxThreads = store.Options().MaxThreads
	}
	r := &Runtime{dev: dev, store: store, cfg: cfg, pool: newSessionPool(store)}
	if nb := store.Root(rootDirNBkts); nb == 0 {
		// The pool was formatted but crashed before the directory committed:
		// no structure can have been registered, so start one fresh.
		if err := r.createDirectory(); err != nil {
			return nil, err
		}
		r.seedPool()
		r.startFlushTimer()
		return r, nil
	}
	r.dir = core.AttachBytesMap(store,
		store.Root(rootDirBuckets), int(store.Root(rootDirNBkts)), store.Root(rootDirTail))
	r.recoverAll()
	r.attached = true
	r.seedPool()
	r.startFlushTimer()
	return r, nil
}

// startFlushTimer runs the Buffered-policy background flusher: every
// MaxStaleness it pushes the link cache's volatile publishing links into
// the persisted image (the pool's formatted LinkCache option decides
// whether the cache exists at all — relevant on Attach, where formatting
// wins over this process's request). Together with the file syncer's
// buffered batches this bounds how much acknowledged work any crash can
// take back.
func (r *Runtime) startFlushTimer() {
	lc := r.store.LinkCache()
	if lc == nil || !r.cfg.durability.IsBuffered() {
		return
	}
	r.flushStop = make(chan struct{})
	r.flushDone = make(chan struct{})
	tick := time.NewTicker(r.cfg.durability.MaxStaleness())
	go func() {
		defer close(r.flushDone)
		defer tick.Stop()
		for {
			select {
			case <-r.flushStop:
				return
			case <-tick.C:
			}
			if r.closed.Load() {
				return
			}
			s, err := r.Session()
			if err != nil {
				return
			}
			lc.FlushAll(s.c.Flusher())
			s.c.Flusher().Fence()
			s.Close()
		}
	}()
}

// stopFlushTimer joins the Buffered flusher (idempotent; no-op when the
// timer never started).
func (r *Runtime) stopFlushTimer() {
	if r.flushStop == nil {
		return
	}
	close(r.flushStop)
	<-r.flushDone
	r.flushStop = nil
}

// Load opens a runtime from an image file written by Save.
func Load(path string, opts ...Option) (*Runtime, error) {
	cfg := buildConfig(opts)
	dev, err := nvram.LoadImage(path, nvram.Config{WriteLatency: cfg.writeLatency})
	if err != nil {
		return nil, err
	}
	return Attach(dev, opts...)
}

// Save flushes all deferred durability work and writes the persisted image
// to path. The caller must be quiescent.
func (r *Runtime) Save(path string) error {
	r.Drain()
	return r.dev.SaveImage(path)
}

// Drain flushes the link cache and reclaims retired memory across all
// sessions. Requires quiescence.
func (r *Runtime) Drain() {
	r.store.ForEachCtx(func(c *core.Ctx) { c.Shutdown() })
}

// Reclaim runs one epoch-reclamation pass over memory retired by any
// session of this runtime, freeing what every thread has provably moved
// past. Handy for tests and quiescent maintenance; regular operation
// reclaims incrementally on its own.
func (r *Runtime) Reclaim() {
	if s, err := r.Session(); err == nil {
		s.Reclaim()
		s.Close()
	}
}

// Close drains the runtime, marks it closed (subsequent operations return
// or panic with ErrClosed) and releases the device backend — for
// file-backed runtimes that synchronously flushes the mapping, so after
// Close the backing file alone carries the state. Requires quiescence.
// Idempotent.
func (r *Runtime) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	r.stopFlushTimer()
	r.Drain()
	return r.dev.Close()
}

// Recovered reports whether this runtime attached to an existing formatted
// image (New on a populated WithDevice substrate, Attach, Load) rather than
// formatting a fresh pool.
func (r *Runtime) Recovered() bool { return r.attached }

// SimulateCrash power-fails the device (losing everything not written
// back), reboots, and recovers. The receiver and all its sessions and
// structures are invalid afterwards (it is closed); use the returned
// runtime.
func (r *Runtime) SimulateCrash() (*Runtime, error) {
	r.closed.Store(true)
	r.stopFlushTimer()
	r.dev.Crash()
	return Attach(r.dev,
		WithSize(r.cfg.size),
		WithMaxSize(r.cfg.maxSize),
		WithWriteLatency(r.cfg.writeLatency),
		WithMaxThreads(r.cfg.maxThreads),
		WithLinkCache(r.cfg.linkCache),
		WithDevice(r.cfg.device),
		WithDurability(r.cfg.durability),
		WithVolatile(r.cfg.volatile))
}

// Device exposes the underlying simulated device (stats, crash injection).
func (r *Runtime) Device() *nvram.Device { return r.dev }

// Store exposes the internal store for benchmarks and tests.
func (r *Runtime) Store() *core.Store { return r.store }

// AvailableBytes estimates the free NVRAM capacity (uncarved space plus
// recycled pages). Callers implementing eviction policies poll it.
func (r *Runtime) AvailableBytes() uint64 { return r.store.Pool().AvailableBytes() }

// SizeBytes returns the committed device capacity in bytes. It increases
// through Grow and never decreases.
func (r *Runtime) SizeBytes() uint64 { return r.dev.Size() }

// MaxSizeBytes returns the growth reserve: the largest capacity Grow can
// reach. Equal to SizeBytes when the runtime has no headroom.
func (r *Runtime) MaxSizeBytes() uint64 { return r.dev.Reserve() }

// Grow extends the runtime's device and allocator to total bytes,
// crash-atomically and with no interruption to concurrent operations
// (requires WithMaxSize headroom, or a growable backend with reserve). A
// no-op when total is at or below the current size. A kill -9 at any point
// during a grow recovers to exactly the old or the new capacity.
func (r *Runtime) Grow(total uint64) error {
	if r.closed.Load() {
		return ErrClosed
	}
	return r.store.Pool().Grow(total)
}

// RecoveryReports lists the structures recovered by Attach.
func (r *Runtime) RecoveryReports() []RecoveryReport { return r.recovered }

// RecoveryStats aggregates the recovery pass Attach ran (zero after New).
func (r *Runtime) RecoveryStats() RecoveryStats { return r.recStats }

// --- Durable directory ---------------------------------------------------

// Directory entries are BytesMap entries: key = structure name, value =
// three little-endian words: kind|aux<<8, anchor1, anchor2 (aux carries the
// bucket count for hash-backed kinds).
const dirEntryLen = 24

func encodeDirEntry(kind Kind, aux, a1, a2 uint64) []byte {
	var v [dirEntryLen]byte
	binary.LittleEndian.PutUint64(v[0:], uint64(kind)|aux<<8)
	binary.LittleEndian.PutUint64(v[8:], a1)
	binary.LittleEndian.PutUint64(v[16:], a2)
	return v[:]
}

func decodeDirEntry(v []byte) (kind Kind, aux, a1, a2 uint64, ok bool) {
	if len(v) != dirEntryLen {
		return 0, 0, 0, 0, false
	}
	w0 := binary.LittleEndian.Uint64(v[0:])
	return Kind(w0 & 0xFF), w0 >> 8,
		binary.LittleEndian.Uint64(v[8:]), binary.LittleEndian.Uint64(v[16:]), true
}

// Lookup reports whether a structure named name is registered, and its
// kind.
func (r *Runtime) Lookup(name string) (Kind, bool) {
	s := r.acquire()
	defer r.release(s)
	v, ok := r.dir.Get(s.c, []byte(name))
	if !ok {
		return 0, false
	}
	kind, _, _, _, ok := decodeDirEntry(v)
	return kind, ok
}

// Names lists every registered structure name (quiescent use).
func (r *Runtime) Names() []string {
	s := r.acquire()
	defer r.release(s)
	var out []string
	r.dir.Range(s.c, func(k, _ []byte) bool {
		out = append(out, string(k))
		return true
	})
	return out
}

// Byte-map entry geometry re-exported from the core: an entry (header +
// key + value) must fit the largest slab class.
const (
	// MaxMapKeyLen bounds ByteMap key length.
	MaxMapKeyLen = core.MaxBytesKeyLen
	// MapEntryOverhead is the per-entry durable header size.
	MapEntryOverhead = core.BytesEntryOverhead
	// MaxMapEntrySize is the largest storable entry (header + key + value).
	MaxMapEntrySize = core.MaxBytesEntrySize
)
