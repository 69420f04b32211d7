// Package bench is the measurement harness behind every table and figure in
// the paper's evaluation (§6). It builds a data structure (log-free,
// log-based, or volatile) on a fresh simulated NVRAM device, prefills it to
// a target size, drives a configurable mixed workload from N worker
// goroutines, and reports throughput plus the persistence counters
// (sync waits, APT hit rates, link-cache activity) that explain it.
package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/logbased"
	"repro/internal/nvram"
)

// Impl selects the implementation under test.
type Impl string

// Implementations.
const (
	// ImplLP: log-free with link-and-persist only (§3) + NV-epochs.
	ImplLP Impl = "lp"
	// ImplLC: log-free with the link cache (§4) + NV-epochs.
	ImplLC Impl = "lc"
	// ImplLog: lock-based with redo logging + durable alloc logging (§6.2).
	ImplLog Impl = "log"
	// ImplLogEpochAlloc: redo logging but NV-epochs memory management
	// ("identical memory management schemes", Figure 8).
	ImplLogEpochAlloc Impl = "log-epochalloc"
	// ImplVolatile: NVRAM-oblivious lock-free structures (Figure 7).
	ImplVolatile Impl = "volatile"
	// ImplLPAllocLog: link-and-persist but traditional alloc logging —
	// the NV-epochs ablation baseline (Figure 9b).
	ImplLPAllocLog Impl = "lp-alloclog"
)

// Structure selects the data structure under test.
type Structure string

// Structures.
const (
	List     Structure = "ll"
	Hash     Structure = "ht"
	SkipList Structure = "sl"
	BST      Structure = "bst"
)

// Config describes one benchmark point.
type Config struct {
	Structure Structure
	Impl      Impl
	// Size is the steady-state element count; the key range is 2×Size so a
	// 50/50 insert/delete mix holds the size constant (§6.2 methodology).
	Size    int
	Threads int
	// UpdateRatio is the fraction of operations that are updates (split
	// evenly between inserts and deletes); the rest are searches. Figure 5
	// uses 1.0 (50% inserts / 50% removes), Figure 8 uses 1.0.
	UpdateRatio float64
	// Duration of the measured phase (time mode). Ignored if Ops > 0.
	Duration time.Duration
	// Ops, when positive, runs exactly Ops operations split across threads
	// (testing.B mode).
	Ops int
	// WriteLatency is the simulated NVRAM write latency (default 125ns;
	// ignored for ImplVolatile, which never writes back).
	WriteLatency time.Duration
	// Seed for workload generation (default 1).
	Seed int64
}

func (c *Config) fill() {
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.Size <= 0 {
		c.Size = 1024
	}
	if c.Duration == 0 {
		c.Duration = 300 * time.Millisecond
	}
	if c.WriteLatency == 0 {
		c.WriteLatency = nvram.DefaultWriteLatency
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Result reports one benchmark point.
type Result struct {
	Config     Config
	Ops        uint64
	Elapsed    time.Duration
	Throughput float64 // ops/sec

	SyncWaits uint64 // fences that waited for NVRAM write-backs
	Clwbs     uint64

	// APT behaviour (log-free implementations), for Figure 9a.
	APTAllocHits, APTAllocMisses   uint64
	APTUnlinkHits, APTUnlinkMisses uint64
}

// SyncsPerOp returns the average sync waits per operation.
func (r Result) SyncsPerOp() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.SyncWaits) / float64(r.Ops)
}

// AllocHitRate returns the APT hit rate for allocations (Figure 9a).
func (r Result) AllocHitRate() float64 {
	t := r.APTAllocHits + r.APTAllocMisses
	if t == 0 {
		return 0
	}
	return float64(r.APTAllocHits) / float64(t)
}

// UnlinkHitRate returns the APT hit rate for deallocations (Figure 9a).
func (r Result) UnlinkHitRate() float64 {
	t := r.APTUnlinkHits + r.APTUnlinkMisses
	if t == 0 {
		return 0
	}
	return float64(r.APTUnlinkHits) / float64(t)
}

// worker is one thread's bound operation set.
type worker struct {
	insert func(key, value uint64) bool
	delete func(key uint64) (uint64, bool)
	search func(key uint64) (uint64, bool)
	syncs  func() uint64 // cumulative sync waits for this thread
	done   func()
}

// fixture is a built structure plus its per-thread workers.
type fixture struct {
	workers []worker
	aptSum  func() (ah, am, uh, um uint64)
}

// deviceBytes sizes the simulated device for a structure of n elements.
func deviceBytes(st Structure, n int) uint64 {
	per := uint64(192) // node + slab slack
	if st == SkipList {
		per = 384 // towers
	}
	b := uint64(n)*per + (64 << 20)
	if st == Hash {
		b += uint64(nextPow2(n)) * 8 // bucket region: one link word each
	}
	return b
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// build constructs the structure and returns its fixture.
func build(cfg Config) (*fixture, error) {
	dev := nvram.New(nvram.Config{
		Size:         deviceBytes(cfg.Structure, cfg.Size),
		WriteLatency: cfg.WriteLatency,
	})
	switch cfg.Impl {
	case ImplLP, ImplLC, ImplVolatile, ImplLPAllocLog:
		return buildLogFree(dev, cfg)
	case ImplLog, ImplLogEpochAlloc:
		return buildLogBased(dev, cfg)
	}
	return nil, fmt.Errorf("bench: unknown impl %q", cfg.Impl)
}

func buildLogFree(dev *nvram.Device, cfg Config) (*fixture, error) {
	opts := core.Options{
		MaxThreads:   cfg.Threads + 1, // +1: the prefill/recovery context
		LinkCache:    cfg.Impl == ImplLC,
		Volatile:     cfg.Impl == ImplVolatile,
		AllocLogging: cfg.Impl == ImplLPAllocLog,
	}
	if storeOptMutator != nil {
		storeOptMutator(&opts)
	}
	s, err := core.NewStore(dev, opts)
	if err != nil {
		return nil, err
	}
	if cfg.Impl == ImplVolatile {
		dev.SetWriteLatency(0)
	}
	setup := s.MustCtx(cfg.Threads)
	var mk func(c *core.Ctx) (func(k, v uint64) bool, func(k uint64) (uint64, bool), func(k uint64) (uint64, bool))
	switch cfg.Structure {
	case List:
		l, err := core.NewList(setup)
		if err != nil {
			return nil, err
		}
		mk = func(c *core.Ctx) (func(k, v uint64) bool, func(k uint64) (uint64, bool), func(k uint64) (uint64, bool)) {
			return func(k, v uint64) bool { return l.Insert(c, k, v) },
				func(k uint64) (uint64, bool) { return l.Delete(c, k) },
				func(k uint64) (uint64, bool) { return l.Search(c, k) }
		}
	case Hash:
		h, err := core.NewHashTable(setup, nextPow2(cfg.Size))
		if err != nil {
			return nil, err
		}
		mk = func(c *core.Ctx) (func(k, v uint64) bool, func(k uint64) (uint64, bool), func(k uint64) (uint64, bool)) {
			return func(k, v uint64) bool { return h.Insert(c, k, v) },
				func(k uint64) (uint64, bool) { return h.Delete(c, k) },
				func(k uint64) (uint64, bool) { return h.Search(c, k) }
		}
	case SkipList:
		sl, err := core.NewSkipList(setup)
		if err != nil {
			return nil, err
		}
		mk = func(c *core.Ctx) (func(k, v uint64) bool, func(k uint64) (uint64, bool), func(k uint64) (uint64, bool)) {
			return func(k, v uint64) bool { return sl.Insert(c, k, v) },
				func(k uint64) (uint64, bool) { return sl.Delete(c, k) },
				func(k uint64) (uint64, bool) { return sl.Search(c, k) }
		}
	case BST:
		bt, err := core.NewBST(setup)
		if err != nil {
			return nil, err
		}
		mk = func(c *core.Ctx) (func(k, v uint64) bool, func(k uint64) (uint64, bool), func(k uint64) (uint64, bool)) {
			return func(k, v uint64) bool { return bt.Insert(c, k, v) },
				func(k uint64) (uint64, bool) { return bt.Delete(c, k) },
				func(k uint64) (uint64, bool) { return bt.Search(c, k) }
		}
	default:
		return nil, fmt.Errorf("bench: unknown structure %q", cfg.Structure)
	}

	fx := &fixture{}
	ctxs := make([]*core.Ctx, cfg.Threads)
	for t := 0; t < cfg.Threads; t++ {
		c := s.MustCtx(t)
		ctxs[t] = c
		ins, del, sea := mk(c)
		fx.workers = append(fx.workers, worker{
			insert: ins,
			delete: del,
			search: sea,
			syncs:  func() uint64 { return c.Flusher().SyncWaits },
			done:   c.Shutdown,
		})
	}
	fx.aptSum = func() (ah, am, uh, um uint64) {
		for _, c := range append(ctxs, setup) {
			st := c.Epoch().Stats()
			ah += st.AllocHits
			am += st.AllocMisses
			uh += st.UnlinkHits
			um += st.UnlinkMisses
		}
		return
	}
	prefill(cfg, &fx.workers[0])
	return fx, nil
}

func buildLogBased(dev *nvram.Device, cfg Config) (*fixture, error) {
	s, err := logbased.NewStore(dev, logbased.Options{
		MaxThreads:     cfg.Threads + 1,
		EpochAllocator: cfg.Impl == ImplLogEpochAlloc,
	})
	if err != nil {
		return nil, err
	}
	setup := s.MustCtx(cfg.Threads)
	type ops struct {
		ins func(k, v uint64) bool
		del func(k uint64) (uint64, bool)
		sea func(k uint64) (uint64, bool)
	}
	var mk func(c *logbased.Ctx) ops
	switch cfg.Structure {
	case List:
		l, err := logbased.NewLazyList(setup)
		if err != nil {
			return nil, err
		}
		mk = func(c *logbased.Ctx) ops {
			return ops{
				func(k, v uint64) bool { return l.Insert(c, k, v) },
				func(k uint64) (uint64, bool) { return l.Delete(c, k) },
				func(k uint64) (uint64, bool) { return l.Search(c, k) },
			}
		}
	case Hash:
		h, err := logbased.NewHashTable(setup, nextPow2(cfg.Size))
		if err != nil {
			return nil, err
		}
		mk = func(c *logbased.Ctx) ops {
			return ops{
				func(k, v uint64) bool { return h.Insert(c, k, v) },
				func(k uint64) (uint64, bool) { return h.Delete(c, k) },
				func(k uint64) (uint64, bool) { return h.Search(c, k) },
			}
		}
	case SkipList:
		sl, err := logbased.NewSkipList(setup)
		if err != nil {
			return nil, err
		}
		mk = func(c *logbased.Ctx) ops {
			return ops{
				func(k, v uint64) bool { return sl.Insert(c, k, v) },
				func(k uint64) (uint64, bool) { return sl.Delete(c, k) },
				func(k uint64) (uint64, bool) { return sl.Search(c, k) },
			}
		}
	case BST:
		bt, err := logbased.NewBST(setup)
		if err != nil {
			return nil, err
		}
		mk = func(c *logbased.Ctx) ops {
			return ops{
				func(k, v uint64) bool { return bt.Insert(c, k, v) },
				func(k uint64) (uint64, bool) { return bt.Delete(c, k) },
				func(k uint64) (uint64, bool) { return bt.Search(c, k) },
			}
		}
	default:
		return nil, fmt.Errorf("bench: unknown structure %q", cfg.Structure)
	}
	fx := &fixture{aptSum: func() (a, b, c, d uint64) { return }}
	for t := 0; t < cfg.Threads; t++ {
		c := s.MustCtx(t)
		o := mk(c)
		fx.workers = append(fx.workers, worker{
			insert: o.ins,
			delete: o.del,
			search: o.sea,
			syncs:  func() uint64 { return c.Flusher().SyncWaits },
			done:   c.Shutdown,
		})
	}
	prefill(cfg, &fx.workers[0])
	return fx, nil
}

// prefill loads Size elements. The linked lists are filled in descending key
// order (O(n) instead of O(n²)); randomized structures are filled from a
// shuffled sequence. Every other key of the 2×Size range is inserted, so the
// 50/50 update mix operates at steady state.
func prefill(cfg Config, w *worker) {
	keys := make([]uint64, cfg.Size)
	for i := range keys {
		keys[i] = uint64(2*i) + 2 // even keys of [1, 2·Size]
	}
	switch cfg.Structure {
	case List:
		for i := len(keys) - 1; i >= 0; i-- {
			w.insert(keys[i], keys[i])
		}
	default:
		rng := rand.New(rand.NewSource(cfg.Seed))
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		for _, k := range keys {
			w.insert(k, k)
		}
	}
}

// Run executes one benchmark point.
func Run(cfg Config) (Result, error) {
	cfg.fill()
	fx, err := build(cfg)
	if err != nil {
		return Result{}, err
	}
	keyRange := uint64(2 * cfg.Size)

	var (
		totalOps   atomic.Uint64
		totalSyncs atomic.Uint64
		stop       atomic.Bool
	)
	opsPerThread := 0
	if cfg.Ops > 0 {
		opsPerThread = (cfg.Ops + cfg.Threads - 1) / cfg.Threads
	}

	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < cfg.Threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			w := &fx.workers[t]
			rng := rand.New(rand.NewSource(cfg.Seed*1000 + int64(t)))
			syncs0 := w.syncs()
			ops := uint64(0)
			for !stop.Load() {
				for batch := 0; batch < 64; batch++ {
					k := uint64(rng.Int63n(int64(keyRange))) + 1
					r := rng.Float64()
					switch {
					case r < cfg.UpdateRatio/2:
						w.insert(k, k)
					case r < cfg.UpdateRatio:
						w.delete(k)
					default:
						w.search(k)
					}
					ops++
				}
				if opsPerThread > 0 && ops >= uint64(opsPerThread) {
					break
				}
			}
			totalOps.Add(ops)
			totalSyncs.Add(w.syncs() - syncs0)
			w.done()
		}(t)
	}
	if opsPerThread == 0 {
		time.Sleep(cfg.Duration)
		stop.Store(true)
	}
	wg.Wait()
	elapsed := time.Since(start)

	ah, am, uh, um := fx.aptSum()
	res := Result{
		Config:          cfg,
		Ops:             totalOps.Load(),
		Elapsed:         elapsed,
		Throughput:      float64(totalOps.Load()) / elapsed.Seconds(),
		SyncWaits:       totalSyncs.Load(),
		APTAllocHits:    ah,
		APTAllocMisses:  am,
		APTUnlinkHits:   uh,
		APTUnlinkMisses: um,
	}
	return res, nil
}
