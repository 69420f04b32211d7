// Package repro_test holds the top-level benchmark harness: one testing.B
// benchmark per table and figure of the paper's evaluation (§6), driving the
// same machinery as cmd/nvbench. Run with:
//
//	go test -bench=. -benchmem
//
// Custom metrics: ops/s is end-to-end structure throughput (excluding
// prefill it is reported by the harness itself), syncs/op counts fences that
// waited for simulated NVRAM write-backs — the quantity the paper's
// techniques minimize.
package repro_test

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/memcache"
	"repro/internal/nvram"
	"repro/internal/repl"
	"repro/logfree"
	"repro/logfree/sharded"
)

// benchPoint runs exactly b.N operations through the workload harness.
func benchPoint(b *testing.B, cfg bench.Config) {
	b.Helper()
	cfg.Ops = b.N
	cfg.Duration = time.Hour // ignored in ops mode
	r, err := bench.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(r.Throughput, "ops/s")
	b.ReportMetric(r.SyncsPerOp(), "syncs/op")
}

// BenchmarkTable1 measures the primitive Table 1 parameterizes: the cost of
// one sync operation (CLWB+fence) at the paper's default NVRAM write
// latency.
func BenchmarkTable1SyncOperation(b *testing.B) {
	dev := nvram.New(nvram.Config{Size: 1 << 20, WriteLatency: nvram.DefaultWriteLatency})
	f := dev.NewFlusher()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.Store(64, uint64(i))
		f.Sync(64)
	}
}

// BenchmarkFig5 reproduces Figure 5's benchmark points: 50/50 insert/delete
// throughput, log-free (LC) vs redo-log implementations.
func BenchmarkFig5(b *testing.B) {
	for _, st := range []bench.Structure{bench.SkipList, bench.List, bench.Hash, bench.BST} {
		size := 4096
		if st == bench.List {
			size = 1024
		}
		for _, impl := range []bench.Impl{bench.ImplLC, bench.ImplLog} {
			for _, th := range []int{1, 8} {
				b.Run(fmt.Sprintf("%s/%s/%dt", st, impl, th), func(b *testing.B) {
					benchPoint(b, bench.Config{
						Structure: st, Impl: impl, Size: size,
						Threads: th, UpdateRatio: 1.0,
					})
				})
			}
		}
	}
}

// BenchmarkFig6 reproduces Figure 6: the linked list under growing NVRAM
// write latency.
func BenchmarkFig6(b *testing.B) {
	for _, lat := range []time.Duration{125 * time.Nanosecond, 1250 * time.Nanosecond, 12500 * time.Nanosecond} {
		for _, impl := range []bench.Impl{bench.ImplLC, bench.ImplLog} {
			b.Run(fmt.Sprintf("%v/%s", lat, impl), func(b *testing.B) {
				benchPoint(b, bench.Config{
					Structure: bench.List, Impl: impl, Size: 1024,
					Threads: 1, UpdateRatio: 1.0, WriteLatency: lat,
				})
			})
		}
	}
}

// BenchmarkFig7 reproduces Figure 7: durable vs NVRAM-oblivious linked list.
func BenchmarkFig7(b *testing.B) {
	for _, size := range []int{128, 4096} {
		for _, impl := range []bench.Impl{bench.ImplLC, bench.ImplVolatile} {
			b.Run(fmt.Sprintf("%d/%s", size, impl), func(b *testing.B) {
				benchPoint(b, bench.Config{
					Structure: bench.List, Impl: impl, Size: size,
					Threads: 1, UpdateRatio: 1.0,
				})
			})
		}
	}
}

// BenchmarkFig8 reproduces Figure 8: LP vs LC vs log-based with identical
// memory management, 1024 elements, 100% updates.
func BenchmarkFig8(b *testing.B) {
	for _, st := range []bench.Structure{bench.Hash, bench.SkipList, bench.List, bench.BST} {
		for _, impl := range []bench.Impl{bench.ImplLP, bench.ImplLC, bench.ImplLogEpochAlloc} {
			b.Run(fmt.Sprintf("%s/%s/1t", st, impl), func(b *testing.B) {
				benchPoint(b, bench.Config{
					Structure: st, Impl: impl, Size: 1024,
					Threads: 1, UpdateRatio: 1.0,
				})
			})
		}
	}
}

// BenchmarkFig9a reproduces Figure 9a: APT hit rates on a skip list. The
// hit-rate metrics are the figure's series; throughput is incidental.
func BenchmarkFig9a(b *testing.B) {
	for _, size := range []int{4096, 65536} {
		b.Run(fmt.Sprintf("%d", size), func(b *testing.B) {
			cfg := bench.Config{
				Structure: bench.SkipList, Impl: bench.ImplLP, Size: size,
				Threads: 1, UpdateRatio: 1.0, Ops: b.N, Duration: time.Hour,
			}
			r, err := bench.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*r.AllocHitRate(), "insert-hit%")
			b.ReportMetric(100*r.UnlinkHitRate(), "delete-hit%")
		})
	}
}

// BenchmarkFig9b reproduces Figure 9b: NV-epochs vs durable alloc logging.
func BenchmarkFig9b(b *testing.B) {
	for _, st := range []bench.Structure{bench.Hash, bench.BST, bench.SkipList, bench.List} {
		for _, impl := range []bench.Impl{bench.ImplLP, bench.ImplLPAllocLog} {
			b.Run(fmt.Sprintf("%s/%s", st, impl), func(b *testing.B) {
				benchPoint(b, bench.Config{
					Structure: st, Impl: impl, Size: 1024,
					Threads: 1, UpdateRatio: 1.0,
				})
			})
		}
	}
}

// BenchmarkFig10 reproduces Figure 10: recovery time after a crash. Each
// iteration builds a structure, crashes it mid-burst, and runs the §5.5
// recovery procedure; recovery-ns is the figure's series.
func BenchmarkFig10(b *testing.B) {
	for _, st := range []bench.Structure{bench.Hash, bench.BST, bench.SkipList, bench.List} {
		size := 65536
		if st == bench.List {
			size = 4096
		}
		b.Run(fmt.Sprintf("%s/%d", st, size), func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				dur, _, err := bench.RecoveryPoint(st, size, 4)
				if err != nil {
					b.Fatal(err)
				}
				total += dur
			}
			b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "recovery-ns")
		})
	}
}

// BenchmarkFig11 reproduces Figure 11's throughput comparison in-process:
// stock-memcached model, memcached-clht model, NV-Memcached.
func BenchmarkFig11(b *testing.B) {
	const keys = 10000
	mt := &memcache.Memtier{KeyRange: keys, SetRatio: 1, GetRatio: 4, ValueLen: 64, Threads: 4}
	cfg := memcache.Config{MemoryBytes: 64 << 20, Buckets: 1 << 14, MaxConns: 4}

	b.Run("memcached", func(b *testing.B) {
		c := memcache.NewLockCache()
		if err := mt.Preload(c); err != nil {
			b.Fatal(err)
		}
		runMemtierN(b, mt, c)
	})
	b.Run("memcached-clht", func(b *testing.B) {
		c, err := memcache.NewCLHTCache(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := mt.Preload(c); err != nil {
			b.Fatal(err)
		}
		runMemtierN(b, mt, c)
	})
	b.Run("nv-memcached", func(b *testing.B) {
		c, err := memcache.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := mt.Preload(c); err != nil {
			b.Fatal(err)
		}
		runMemtierN(b, mt, c)
	})
	b.Run("nv-memcached/recovery", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c, err := memcache.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := mt.Preload(c); err != nil {
				b.Fatal(err)
			}
			c.Flush()
			c.Device().Crash()
			b.StartTimer()
			if _, _, err := memcache.Recover(c.Device(), cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// runMemtierN drives b.N single operations through one client thread so the
// standard ns/op is meaningful, reporting throughput too.
func runMemtierN(b *testing.B, mt *memcache.Memtier, kv memcache.KV) {
	b.Helper()
	val := make([]byte, mt.ValueLen)
	var kb [32]byte
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := mt.Key(kb[:0], i%mt.KeyRange)
		if i%5 == 0 {
			if err := kv.Set(k, val, 0, 0); err != nil {
				b.Fatal(err)
			}
		} else {
			kv.Get(k)
		}
	}
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "ops/s")
}

// --- Ordered byte-key map baseline ---------------------------------------
//
// BenchmarkOrderedMap* is the perf baseline for the v2 ordered byte-key
// surface (KindOrderedMap): Set (insert + replace mix), point Get, and
// 100-key range Scan over a 10k-key map. scripts/bench.sh runs these and
// emits BENCH_ordered.json so the ordered-path trajectory is tracked
// across PRs.

const (
	orderedBenchKeys   = 10_000
	orderedScanWindow  = 100
	orderedBenchValLen = 64
)

func orderedBenchKey(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }

// newOrderedBench returns the map view pinned to one session, the
// steady-state single-goroutine configuration.
func newOrderedBench(b *testing.B, prefill int) *logfree.OrderedByteMap {
	b.Helper()
	rt, err := logfree.New(logfree.WithSize(256<<20), logfree.WithLinkCache(true))
	if err != nil {
		b.Fatal(err)
	}
	om, err := rt.OrderedMap("bench-ordered")
	if err != nil {
		b.Fatal(err)
	}
	s, err := rt.Session()
	if err != nil {
		b.Fatal(err)
	}
	om = om.WithSession(s)
	val := make([]byte, orderedBenchValLen)
	for i := 0; i < prefill; i++ {
		if err := om.Set(orderedBenchKey(i), val); err != nil {
			b.Fatal(err)
		}
	}
	return om
}

func BenchmarkOrderedMapSet(b *testing.B) {
	om := newOrderedBench(b, 0)
	val := make([]byte, orderedBenchValLen)
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := om.Set(orderedBenchKey(i%orderedBenchKeys), val); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "ops/s")
}

func BenchmarkOrderedMapGet(b *testing.B) {
	om := newOrderedBench(b, orderedBenchKeys)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, ok := om.Get(orderedBenchKey(i % orderedBenchKeys)); !ok {
			b.Fatal("miss")
		}
	}
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "ops/s")
}

// --- Parallel throughput harness -----------------------------------------
//
// Benchmark*Parallel sweep 1/2/4/8 worker goroutines, each bound to its own
// per-thread Handle (Ctx), over a partitioned key space — the multi-core
// scaling trajectory scripts/bench.sh records in BENCH_parallel.json. Keys
// are precomputed so the measured loop is map work, not fmt formatting.

var benchThreadCounts = []int{1, 2, 4, 8}

func benchKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = orderedBenchKey(i)
	}
	return keys
}

// workerKeys builds worker t's key sequence for a g-worker run up front
// (worker t owns ops t, t+g, t+2g, ... of the global i%len(keys) cycle), so
// the timed loop is pure map work — no index arithmetic.
func workerKeys(keys [][]byte, g, t, per int) [][]byte {
	out := make([][]byte, per)
	for i := 0; i < per; i++ {
		out[i] = keys[(i*g+t)%len(keys)]
	}
	return out
}

// runWorkers drives b.N operations split across g goroutines — worker t
// gets ops t, t+g, t+2g, ... of the global key cycle, as a key slice built
// before the clock starts — and reports aggregate ops/s.
func runWorkers(b *testing.B, g int, keys [][]byte, worker func(t int, ks [][]byte) error) {
	b.Helper()
	per := b.N / g
	if per == 0 {
		per = 1
	}
	seqs := make([][][]byte, g)
	for t := 0; t < g; t++ {
		seqs[t] = workerKeys(keys, g, t, per)
	}
	var wg sync.WaitGroup
	errs := make([]error, g)
	b.ResetTimer()
	start := time.Now()
	for t := 0; t < g; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			errs[t] = worker(t, seqs[t])
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(per*g)/elapsed.Seconds(), "ops/s")
}

// newParallelRuntime builds a runtime sized for g workers, with an ordered
// map and a hash map registered (optionally prefilled), and one pinned
// session per worker: worker t uses the t-th views, the per-thread
// steady-state configuration.
func newParallelRuntime(b *testing.B, g, prefill int) (oms []*logfree.OrderedByteMap, bms []*logfree.ByteMap) {
	b.Helper()
	rt, err := logfree.New(logfree.WithSize(256<<20), logfree.WithLinkCache(true),
		logfree.WithMaxThreads(g))
	if err != nil {
		b.Fatal(err)
	}
	om, err := rt.OrderedMap("bench-ordered")
	if err != nil {
		b.Fatal(err)
	}
	bm, err := rt.Map("bench-map", 1<<14)
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, orderedBenchValLen)
	for i := 0; i < prefill; i++ {
		k := orderedBenchKey(i)
		if err := om.Set(k, val); err != nil {
			b.Fatal(err)
		}
		if err := bm.Set(k, val); err != nil {
			b.Fatal(err)
		}
	}
	oms = make([]*logfree.OrderedByteMap, g)
	bms = make([]*logfree.ByteMap, g)
	for t := 0; t < g; t++ {
		s, err := rt.Session()
		if err != nil {
			b.Fatal(err)
		}
		oms[t] = om.WithSession(s)
		bms[t] = bm.WithSession(s)
	}
	// Drop the previous sub-benchmark's 256MB device and reset the GC pacer
	// so no collection lands inside the timed loop.
	runtime.GC()
	return oms, bms
}

func BenchmarkOrderedMapSetParallel(b *testing.B) {
	keys := benchKeys(orderedBenchKeys)
	val := make([]byte, orderedBenchValLen)
	for _, g := range benchThreadCounts {
		b.Run(fmt.Sprintf("%dg", g), func(b *testing.B) {
			oms, _ := newParallelRuntime(b, g, 0)
			runWorkers(b, g, keys, func(t int, ks [][]byte) error {
				om := oms[t]
				for _, k := range ks {
					if err := om.Set(k, val); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

func BenchmarkOrderedMapGetParallel(b *testing.B) {
	keys := benchKeys(orderedBenchKeys)
	for _, g := range benchThreadCounts {
		b.Run(fmt.Sprintf("%dg", g), func(b *testing.B) {
			oms, _ := newParallelRuntime(b, g, orderedBenchKeys)
			runWorkers(b, g, keys, func(t int, ks [][]byte) error {
				om := oms[t]
				for _, k := range ks {
					if _, ok := om.Get(k); !ok {
						return fmt.Errorf("miss")
					}
				}
				return nil
			})
		})
	}
}

// BenchmarkOrderedMapMixedParallel runs the memtier-style 1:4 set:get mix.
func BenchmarkOrderedMapMixedParallel(b *testing.B) {
	keys := benchKeys(orderedBenchKeys)
	val := make([]byte, orderedBenchValLen)
	for _, g := range benchThreadCounts {
		b.Run(fmt.Sprintf("%dg", g), func(b *testing.B) {
			oms, _ := newParallelRuntime(b, g, orderedBenchKeys)
			runWorkers(b, g, keys, func(t int, ks [][]byte) error {
				om := oms[t]
				for i, k := range ks {
					if i%5 == 0 {
						if err := om.Set(k, val); err != nil {
							return err
						}
					} else {
						om.Get(k)
					}
				}
				return nil
			})
		})
	}
}

func BenchmarkMapSetParallel(b *testing.B) {
	keys := benchKeys(orderedBenchKeys)
	val := make([]byte, orderedBenchValLen)
	for _, g := range benchThreadCounts {
		b.Run(fmt.Sprintf("%dg", g), func(b *testing.B) {
			_, bms := newParallelRuntime(b, g, 0)
			runWorkers(b, g, keys, func(t int, ks [][]byte) error {
				bm := bms[t]
				for _, k := range ks {
					if err := bm.Set(k, val); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}
}

func BenchmarkMapGetParallel(b *testing.B) {
	keys := benchKeys(orderedBenchKeys)
	for _, g := range benchThreadCounts {
		b.Run(fmt.Sprintf("%dg", g), func(b *testing.B) {
			_, bms := newParallelRuntime(b, g, orderedBenchKeys)
			runWorkers(b, g, keys, func(t int, ks [][]byte) error {
				bm := bms[t]
				for _, k := range ks {
					if _, ok := bm.Get(k); !ok {
						return fmt.Errorf("miss")
					}
				}
				return nil
			})
		})
	}
}

// BenchmarkNVMemcachedParallel is the end-to-end memtier-style throughput
// benchmark: the full NV-Memcached cache (durable index, sharded volatile
// LRU, expiry index) driven with the paper's 1:4 set:get mix across
// per-connection handles.
func BenchmarkNVMemcachedParallel(b *testing.B) {
	const keyRange = 10000
	mt := &memcache.Memtier{KeyRange: keyRange, SetRatio: 1, GetRatio: 4, ValueLen: 64, Threads: 8}
	keys := make([][]byte, keyRange)
	for i := range keys {
		keys[i] = mt.Key(nil, i)
	}
	val := make([]byte, mt.ValueLen)
	for _, g := range benchThreadCounts {
		b.Run(fmt.Sprintf("%dg", g), func(b *testing.B) {
			c, err := memcache.New(memcache.Config{
				MemoryBytes: 256 << 20, Buckets: 1 << 14, MaxConns: g})
			if err != nil {
				b.Fatal(err)
			}
			if err := mt.Preload(c); err != nil {
				b.Fatal(err)
			}
			runtime.GC() // see newParallelRuntime
			runWorkers(b, g, keys, func(t int, ks [][]byte) error {
				for i, k := range ks {
					if i%5 == 0 {
						if err := c.Set(k, val, 0, 0); err != nil {
							return err
						}
					} else {
						c.Get(k)
					}
				}
				return nil
			})
		})
	}
}

// --- Sharded-pool shard sweep ---------------------------------------------
//
// BenchmarkShardedOrderedMapSetParallel sweeps shard count × goroutines over
// the sharded.Pool ordered Set path — the multi-runtime architecture built
// to break the single-runtime parallel ceiling. The pool's total device
// budget is the single-runtime benchmark's 256MB split across shards, so the
// comparison prices topology, not extra memory. scripts/bench.sh records the
// rows in BENCH_parallel.json and derives sharded_8x8_vs_single (8-shard
// 8-goroutine pool over the single-runtime 8-goroutine baseline), which
// benchgate holds to tolerance. NOTE: on a single-vCPU host every
// configuration serializes on the one core (the profiling finding behind
// this subsystem — the flat parallel curve is CPU saturation, not a lock),
// so the ratio reflects the host's core count, not the architecture's limit.

var benchShardCounts = []int{1, 2, 4, 8}

// newShardedBench opens an s-shard pool (memory-backed, or file-backed under
// dir when non-empty) holding an ordered map, with one PoolSession-pinned
// view per worker.
func newShardedBench(b *testing.B, s, g int, dir string) []*sharded.OrderedMap {
	b.Helper()
	opts := []sharded.Option{
		sharded.WithShards(s),
		sharded.WithShardSize((256 << 20) / uint64(s)),
		sharded.WithMaxThreads(g),
		sharded.WithLinkCache(dir == ""), // same rule as single-runtime file mode
	}
	if dir != "" {
		opts = append(opts, sharded.WithDir(dir))
	}
	pool, err := sharded.Open(opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { pool.Close() })
	om, err := pool.OrderedMap("bench-ordered")
	if err != nil {
		b.Fatal(err)
	}
	views := make([]*sharded.OrderedMap, g)
	for t := 0; t < g; t++ {
		ps, err := pool.Session()
		if err != nil {
			b.Fatal(err)
		}
		views[t] = om.WithSession(ps)
	}
	runtime.GC() // see newParallelRuntime
	return views
}

func shardedSetWorker(views []*sharded.OrderedMap, val []byte) func(t int, ks [][]byte) error {
	return func(t int, ks [][]byte) error {
		om := views[t]
		for _, k := range ks {
			if err := om.Set(k, val); err != nil {
				return err
			}
		}
		return nil
	}
}

func BenchmarkShardedOrderedMapSetParallel(b *testing.B) {
	keys := benchKeys(orderedBenchKeys)
	val := make([]byte, orderedBenchValLen)
	for _, s := range benchShardCounts {
		for _, g := range benchThreadCounts {
			b.Run(fmt.Sprintf("%ds/%dg", s, g), func(b *testing.B) {
				views := newShardedBench(b, s, g, "")
				runWorkers(b, g, keys, shardedSetWorker(views, val))
			})
		}
	}
}

// BenchmarkShardedOrderedMapSetFileParallel is the acceptance row's
// file-backed twin: the full 8-shard 8-goroutine configuration with every
// shard on its own mmap'd backing file (default durability: write-back +
// ranged msync per fence, link cache off as in all file modes).
func BenchmarkShardedOrderedMapSetFileParallel(b *testing.B) {
	keys := benchKeys(orderedBenchKeys)
	val := make([]byte, orderedBenchValLen)
	b.Run("8s/8g", func(b *testing.B) {
		views := newShardedBench(b, 8, 8, b.TempDir())
		runWorkers(b, 8, keys, shardedSetWorker(views, val))
	})
}

func BenchmarkOrderedMapScan(b *testing.B) {
	om := newOrderedBench(b, orderedBenchKeys)
	b.ResetTimer()
	start := time.Now()
	keys := 0
	for i := 0; i < b.N; i++ {
		lo := (i * orderedScanWindow) % (orderedBenchKeys - orderedScanWindow)
		for range om.Scan(orderedBenchKey(lo), orderedBenchKey(lo+orderedScanWindow)) {
			keys++
		}
	}
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "ops/s")
	b.ReportMetric(float64(keys)/time.Since(start).Seconds(), "keys/s")
}

// --- Batch commit throughput ---------------------------------------------
//
// BenchmarkMapSetBatch measures the v3 amortized-fence Batch against the
// single-op baseline on the SAME runtime configuration: a hash byte-map Set
// cycling a 10k key space (first pass fresh, steady state replaces), with
// batch sizes 1, 8 and 64. The simulated NVRAM write latency is 10× the
// paper's 125ns default — the midpoint of Figure 6's latency sweep (the
// paper treats NVRAM write latency as the uncertain variable, sweeping
// 125ns → 12.5µs) — where persistence waits, the thing Batch amortizes,
// actually dominate a write. scripts/bench.sh records the single/64 ratio
// in BENCH_batch.json; the acceptance bar is ≥1.5× at batch size 64.

const batchBenchLatency = 10 * nvram.DefaultWriteLatency

// newBatchBench builds a hash byte-map view pinned to one session on a
// write-latency device.
func newBatchBench(b *testing.B) *logfree.ByteMap {
	b.Helper()
	rt, err := logfree.New(logfree.WithSize(256<<20),
		logfree.WithWriteLatency(batchBenchLatency))
	if err != nil {
		b.Fatal(err)
	}
	m, err := rt.Map("bench-batch", 1<<14)
	if err != nil {
		b.Fatal(err)
	}
	s, err := rt.Session()
	if err != nil {
		b.Fatal(err)
	}
	m = m.WithSession(s)
	// Prefill so the timed loop runs the steady-state replace mix.
	val := make([]byte, orderedBenchValLen)
	for i := 0; i < orderedBenchKeys; i++ {
		if err := m.Set(orderedBenchKey(i), val); err != nil {
			b.Fatal(err)
		}
	}
	runtime.GC()
	return m
}

func BenchmarkMapSetBatch(b *testing.B) {
	keys := benchKeys(orderedBenchKeys)
	val := make([]byte, orderedBenchValLen)
	b.Run("single", func(b *testing.B) {
		m := newBatchBench(b)
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if err := m.Set(keys[i%len(keys)], val); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "ops/s")
	})
	for _, size := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("%dops", size), func(b *testing.B) {
			m := newBatchBench(b)
			bt := m.Batch()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				bt.Set(keys[i%len(keys)], val)
				if bt.Len() == size {
					if err := bt.Commit(); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := bt.Commit(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "ops/s")
		})
	}
}

// --- File-backend comparison rows -----------------------------------------
//
// BenchmarkMapSetFile / BenchmarkMapGetFile / BenchmarkNVMemcachedFile run
// the same single-thread workload on both persistence backends: the
// in-process MemBackend ("mem") and the mmap file-backed FileBackend
// ("file", in a per-run temp dir). scripts/bench.sh emits the rows into
// BENCH_file.json. The file rows price the default durability contract —
// write-backs into a shared mapping plus ranged msync(MS_ASYNC) per fence
// (kill -9 safe) — NOT strict fdatasync mode, whose cost is the storage
// stack's, not ours. Absolute file-row numbers depend on the filesystem
// backing the temp dir, which is why the bench gate holds them to a looser
// tolerance than the mem rows.

func newFileBenchMap(b *testing.B, file bool, prefill int) *logfree.ByteMap {
	b.Helper()
	opts := []logfree.Option{logfree.WithSize(256 << 20)}
	if file {
		opts = append(opts, logfree.WithFile(b.TempDir()+"/bench.pmem"))
	}
	rt, err := logfree.New(opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { rt.Close() }) // unmap the 256MB file between subs
	m, err := rt.Map("bench-file", 1<<14)
	if err != nil {
		b.Fatal(err)
	}
	s, err := rt.Session()
	if err != nil {
		b.Fatal(err)
	}
	m = m.WithSession(s)
	val := make([]byte, orderedBenchValLen)
	for i := 0; i < prefill; i++ {
		if err := m.Set(orderedBenchKey(i), val); err != nil {
			b.Fatal(err)
		}
	}
	runtime.GC()
	return m
}

func benchBothBackends(b *testing.B, f func(b *testing.B, file bool)) {
	b.Run("mem", func(b *testing.B) { f(b, false) })
	b.Run("file", func(b *testing.B) { f(b, true) })
}

func BenchmarkMapSetFile(b *testing.B) {
	benchBothBackends(b, func(b *testing.B, file bool) {
		m := newFileBenchMap(b, file, 0)
		val := make([]byte, orderedBenchValLen)
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if err := m.Set(orderedBenchKey(i%orderedBenchKeys), val); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "ops/s")
	})
}

func BenchmarkMapGetFile(b *testing.B) {
	benchBothBackends(b, func(b *testing.B, file bool) {
		m := newFileBenchMap(b, file, orderedBenchKeys)
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if _, ok := m.Get(orderedBenchKey(i % orderedBenchKeys)); !ok {
				b.Fatal("miss")
			}
		}
		b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "ops/s")
	})
}

// --- Durability-policy rows -----------------------------------------------
//
// BenchmarkDurability prices the acknowledged-operation policies on the
// file backend: the same single-thread Set workload under Strict (every
// fence blocks on the async syncer's group-committed fdatasync watermark),
// Synced (the default — fences hand dirty ranges to the background syncer
// and return), and Buffered (fence-time sync work skipped entirely; a
// timer flushes every MaxStaleness). scripts/bench.sh emits the rows into
// BENCH_durability.json plus the async_vs_strict_file (synced/strict) and
// buffered_vs_strict ratios — the machine-independent signals the bench
// gate watches; absolute rows price the storage stack under the temp dir,
// so they get the looser file tolerance.

func BenchmarkDurability(b *testing.B) {
	for _, tc := range []struct {
		name   string
		policy logfree.Durability
	}{
		{"strict", logfree.Strict()},
		{"synced", logfree.Synced()},
		{"buffered", logfree.Buffered(0)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			rt, err := logfree.New(
				logfree.WithSize(256<<20),
				logfree.WithDevice(logfree.FileDevice(b.TempDir()+"/bench.pmem")),
				logfree.WithDurability(tc.policy),
			)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { rt.Close() })
			m, err := rt.Map("bench-dur", 1<<14)
			if err != nil {
				b.Fatal(err)
			}
			s, err := rt.Session()
			if err != nil {
				b.Fatal(err)
			}
			m = m.WithSession(s)
			val := make([]byte, orderedBenchValLen)
			runtime.GC()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if err := m.Set(orderedBenchKey(i%orderedBenchKeys), val); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "ops/s")
		})
	}
}

// BenchmarkNVMemcachedRepl prices the warm-standby replication tax: the
// same memtier-style 1:4 set:get mix as BenchmarkNVMemcachedFile, run solo
// and then with a live in-process loopback follower streaming and acking
// every mutation (semi-synchronous mode: each Set's response waits for the
// in-sync follower's ack). scripts/bench.sh emits both rows into
// BENCH_repl.json plus the repl_overhead ratio (follower/solo) — the
// machine-independent signal the bench gate holds to tolerance; the
// absolute follower row also prices the loopback RTT, which is the
// runner's, not ours.
func BenchmarkNVMemcachedRepl(b *testing.B) {
	const keyRange = 10000
	mt := &memcache.Memtier{KeyRange: keyRange, SetRatio: 1, GetRatio: 4, ValueLen: 64, Threads: 1}
	keys := make([][]byte, keyRange)
	for i := range keys {
		keys[i] = mt.Key(nil, i)
	}
	val := make([]byte, mt.ValueLen)
	run := func(b *testing.B, withFollower bool) {
		c, err := memcache.New(memcache.Config{MemoryBytes: 256 << 20, Buckets: 1 << 14, MaxConns: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		if err := mt.Preload(c); err != nil {
			b.Fatal(err)
		}
		if withFollower {
			p := repl.NewPrimary(c, repl.Options{})
			if err := p.Listen("127.0.0.1:0"); err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { p.Close() })
			c.SetReplication(p, func() memcache.ReplStats {
				st := p.Stats()
				return memcache.ReplStats{State: st.State, Seq: st.Seq, LagOps: st.LagOps}
			})
			fc, err := memcache.New(memcache.Config{MemoryBytes: 256 << 20, Buckets: 1 << 14, MaxConns: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { fc.Close() })
			f := repl.NewFollower(p.Addr(), fc, repl.FollowerOptions{})
			b.Cleanup(f.Close)
			go f.Run()
			for deadline := time.Now().Add(10 * time.Second); p.Stats().State != "streaming"; {
				if time.Now().After(deadline) {
					b.Fatalf("follower never reached streaming (primary state %q)", p.Stats().State)
				}
				time.Sleep(time.Millisecond)
			}
		}
		runtime.GC()
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			k := keys[i%keyRange]
			if i%5 == 0 {
				if err := c.Set(k, val, 0, 0); err != nil {
					b.Fatal(err)
				}
			} else {
				c.Get(k)
			}
		}
		b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "ops/s")
	}
	b.Run("solo", func(b *testing.B) { run(b, false) })
	b.Run("follower", func(b *testing.B) { run(b, true) })
}

// BenchmarkSnapshotLive prices the live point-in-time snapshot tax: the
// same memtier-style 1:4 set:get mix run solo and then with a background
// goroutine continuously streaming Snapshot() over the full key space while
// the mix runs. The snapshot walks the durable index under epoch protection
// without blocking writers, so the overhead should stay small — the
// snapshot_overhead ratio (snapshot/solo) in BENCH_snapshot.json is the
// machine-independent signal the bench gate holds to tolerance.
func BenchmarkSnapshotLive(b *testing.B) {
	const keyRange = 10000
	mt := &memcache.Memtier{KeyRange: keyRange, SetRatio: 1, GetRatio: 4, ValueLen: 64, Threads: 1}
	keys := make([][]byte, keyRange)
	for i := range keys {
		keys[i] = mt.Key(nil, i)
	}
	val := make([]byte, mt.ValueLen)
	run := func(b *testing.B, withSnapshot bool) {
		c, err := memcache.New(memcache.Config{MemoryBytes: 256 << 20, Buckets: 1 << 14, MaxConns: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		if err := mt.Preload(c); err != nil {
			b.Fatal(err)
		}
		stop := make(chan struct{})
		done := make(chan struct{})
		if withSnapshot {
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := c.Snapshot(io.Discard); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		} else {
			close(done)
		}
		runtime.GC()
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			k := keys[i%keyRange]
			if i%5 == 0 {
				if err := c.Set(k, val, 0, 0); err != nil {
					b.Fatal(err)
				}
			} else {
				c.Get(k)
			}
		}
		elapsed := time.Since(start)
		b.StopTimer()
		close(stop)
		<-done
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "ops/s")
	}
	b.Run("solo", func(b *testing.B) { run(b, false) })
	b.Run("snapshot", func(b *testing.B) { run(b, true) })
}

func BenchmarkNVMemcachedFile(b *testing.B) {
	const keyRange = 10000
	mt := &memcache.Memtier{KeyRange: keyRange, SetRatio: 1, GetRatio: 4, ValueLen: 64, Threads: 1}
	keys := make([][]byte, keyRange)
	for i := range keys {
		keys[i] = mt.Key(nil, i)
	}
	val := make([]byte, mt.ValueLen)
	benchBothBackends(b, func(b *testing.B, file bool) {
		// Link cache off in BOTH variants: file mode forces it off, so the
		// mem row must drop it too for the file_vs_mem ratio to price the
		// backend alone rather than the link cache.
		cfg := memcache.Config{MemoryBytes: 256 << 20, Buckets: 1 << 14, MaxConns: 1,
			DisableLinkCache: true}
		if file {
			cfg.Device = logfree.FileDevice(b.TempDir() + "/bench-mc.pmem")
		}
		c, err := memcache.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		if err := mt.Preload(c); err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			k := keys[i%keyRange]
			if i%5 == 0 {
				if err := c.Set(k, val, 0, 0); err != nil {
					b.Fatal(err)
				}
			} else {
				c.Get(k)
			}
		}
		b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "ops/s")
	})
}
