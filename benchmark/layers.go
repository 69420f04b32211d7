package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/linkcache"
	"repro/internal/memcache"
	"repro/internal/nvram"
	"repro/internal/pmem"
	"repro/logfree"
	"repro/logfree/sharded"
)

// The layer ledger drives each boundary of the stack through the same
// three calls the cache offers, so one replay loop serves them all. Every
// adapter is a few words around the layer's own public functions: nothing
// in the program is changed to be measured.

// arrayKV is the "no system at all" row: the last value set for a key,
// kept in a plain slice by key index. What a replay costs against it is
// the cost of the op stream and the oracle themselves.
type arrayKV struct{ slots [][]byte }

func keyIndex(key []byte) int {
	n := 0
	for _, d := range key[len(key)-10:] {
		n = n*10 + int(d-'0')
	}
	return n
}

func (a *arrayKV) Set(key, value []byte, _ uint16, _ uint32) error {
	i := keyIndex(key)
	a.slots[i] = append(a.slots[i][:0], value...)
	return nil
}

func (a *arrayKV) Get(key []byte) ([]byte, uint16, bool) {
	v := a.slots[keyIndex(key)]
	return v, 0, v != nil
}

func (a *arrayKV) Delete(key []byte) bool {
	i := keyIndex(key)
	ok := a.slots[i] != nil
	a.slots[i] = nil
	return ok
}

// coreKV is core.BytesMap with an explicit context.
type coreKV struct {
	b *core.BytesMap
	c *core.Ctx
}

func (k coreKV) Set(key, value []byte, flags uint16, _ uint32) error {
	_, err := k.b.Set(k.c, key, value, flags, 0)
	return err
}

func (k coreKV) Get(key []byte) ([]byte, uint16, bool) {
	v, meta, _, ok := k.b.GetItem(k.c, key)
	return v, meta, ok
}

func (k coreKV) Delete(key []byte) bool { return k.b.Delete(k.c, key) }

// itemMap is what *logfree.ByteMap and *sharded.Map share.
type itemMap interface {
	SetItem(key, value []byte, meta uint16, aux uint64) (bool, error)
	GetItem(key []byte) ([]byte, uint16, uint64, bool)
	Delete(key []byte) bool
}

// mapKV is a public logfree map (implicit session per call), single
// runtime or sharded.
type mapKV struct{ m itemMap }

func (k mapKV) Set(key, value []byte, flags uint16, _ uint32) error {
	_, err := k.m.SetItem(key, value, flags, 0)
	return err
}

func (k mapKV) Get(key []byte) ([]byte, uint16, bool) {
	v, meta, _, ok := k.m.GetItem(key)
	return v, meta, ok
}

func (k mapKV) Delete(key []byte) bool { return k.m.Delete(key) }

// layerRow is one boundary below the cache: how to open a fresh instance
// sized like the cache's own, and how to close it.
type layerRow struct {
	name string
	open func(e *env) (memcache.KV, func(), error)
}

var lowerLayers = []layerRow{
	{"gen", func(e *env) (memcache.KV, func(), error) {
		return &arrayKV{slots: make([][]byte, e.keys)}, func() {}, nil
	}},
	{"core", func(e *env) (memcache.KV, func(), error) {
		dev := nvram.New(nvram.Config{Size: e.sz.memoryBytes, WriteLatency: writeLatency})
		// AreaShift 16 is what logfree formats its stores with.
		store, err := core.NewStore(dev, core.Options{MaxThreads: 2, LinkCache: e.w.linkCache, AreaShift: 16})
		if err != nil {
			return nil, nil, fmt.Errorf("core.NewStore: %w", err)
		}
		c, err := store.NewCtx(0)
		if err != nil {
			return nil, nil, fmt.Errorf("core context: %w", err)
		}
		b, err := core.NewBytesMap(c, e.sz.buckets)
		if err != nil {
			return nil, nil, fmt.Errorf("core.NewBytesMap: %w", err)
		}
		return coreKV{b, c}, func() { dev.Close() }, nil
	}},
	{"logfree", func(e *env) (memcache.KV, func(), error) {
		rt, err := logfree.New(logfree.WithSize(e.sz.memoryBytes), logfree.WithWriteLatency(writeLatency),
			logfree.WithLinkCache(e.w.linkCache), logfree.WithMaxThreads(2))
		if err != nil {
			return nil, nil, fmt.Errorf("logfree.New: %w", err)
		}
		m, err := rt.Map("ledger", e.sz.buckets)
		if err != nil {
			rt.Close()
			return nil, nil, fmt.Errorf("logfree map: %w", err)
		}
		return mapKV{m}, func() { rt.Close() }, nil
	}},
	{"sharded", func(e *env) (memcache.KV, func(), error) {
		pool, err := sharded.Open(sharded.WithShards(1), sharded.WithShardSize(e.sz.memoryBytes),
			sharded.WithWriteLatency(writeLatency), sharded.WithLinkCache(e.w.linkCache), sharded.WithMaxThreads(2))
		if err != nil {
			return nil, nil, fmt.Errorf("sharded.Open: %w", err)
		}
		m, err := pool.Map("ledger", e.sz.buckets)
		if err != nil {
			pool.Close()
			return nil, nil, fmt.Errorf("sharded map: %w", err)
		}
		return mapKV{m}, func() { pool.Close() }, nil
	}},
}

// counters is every public count the layers keep, read while quiescent.
type counters struct {
	nv         nvram.Stats
	lc         linkcache.Stats
	ep         epoch.Stats
	pm         pmem.Stats
	cs         memcache.Stats
	mallocs    uint64
	allocBytes uint64
}

func readCounters(c *memcache.Cache) counters {
	store := c.Runtime().Store()
	out := counters{nv: c.Device().Stats(), pm: store.Pool().Stats(), cs: c.Stats()}
	if lc := store.LinkCache(); lc != nil {
		out.lc = lc.Stats()
	}
	store.ForEachCtx(func(ctx *core.Ctx) {
		s := ctx.Epoch().Stats()
		out.ep.AllocHits += s.AllocHits
		out.ep.AllocMisses += s.AllocMisses
		out.ep.UnlinkHits += s.UnlinkHits
		out.ep.UnlinkMisses += s.UnlinkMisses
		out.ep.NodesFreed += s.NodesFreed
		out.ep.Trims += s.Trims
	})
	out.mallocs, out.allocBytes = goAllocs()
	return out
}

func goAllocs() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// countMetrics turns the counter growth over ops replayed operations into
// the per-layer count metrics. With one goroutine and a given seed they
// repeat exactly.
func countMetrics(m metrics, a, b counters, ops int) {
	n := float64(ops)
	d := func(after, before uint64) float64 { return float64(after - before) }

	m["nvram.sync_waits_per_op"] = d(b.nv.SyncWaits, a.nv.SyncWaits) / n
	m["nvram.fences_per_op"] = d(b.nv.Fences, a.nv.Fences) / n
	m["nvram.clwbs_per_op"] = d(b.nv.Clwbs, a.nv.Clwbs) / n

	adds, nospace := d(b.lc.Adds, a.lc.Adds), d(b.lc.NoSpace, a.lc.NoSpace)
	flushes := d(b.lc.Flushes, a.lc.Flushes)
	m["linkcache.adds_per_op"] = adds / n
	m["linkcache.flushes_per_op"] = flushes / n
	m["linkcache.links_per_flush"] = ratio(d(b.lc.LinksSunk, a.lc.LinksSunk), flushes)
	m["linkcache.nospace_ratio"] = ratio(nospace, adds+nospace)

	ah, am := d(b.ep.AllocHits, a.ep.AllocHits), d(b.ep.AllocMisses, a.ep.AllocMisses)
	uh, um := d(b.ep.UnlinkHits, a.ep.UnlinkHits), d(b.ep.UnlinkMisses, a.ep.UnlinkMisses)
	m["epoch.apt_alloc_hit_ratio"] = ratio(ah, ah+am)
	m["epoch.apt_unlink_hit_ratio"] = ratio(uh, uh+um)
	m["epoch.nodes_freed_per_op"] = d(b.ep.NodesFreed, a.ep.NodesFreed) / n
	m["epoch.trims_per_op"] = d(b.ep.Trims, a.ep.Trims) / n

	part := d(b.pm.AcqPartial, a.pm.AcqPartial)
	acq := part + d(b.pm.AcqFree, a.pm.AcqFree) + d(b.pm.AcqCarve, a.pm.AcqCarve)
	m["pmem.allocs_per_op"] = d(b.pm.Allocs, a.pm.Allocs) / n
	m["pmem.frees_per_op"] = d(b.pm.Frees, a.pm.Frees) / n
	m["pmem.pages_carved"] = float64(b.pm.PagesCarved)
	m["pmem.acq_partial_ratio"] = ratio(part, acq)

	m["cache.hit_ratio"] = ratio(d(b.cs.Hits, a.cs.Hits), d(b.cs.Gets, a.cs.Gets))
	m["cache.evictions_per_set"] = ratio(d(b.cs.Evictions, a.cs.Evictions), d(b.cs.Sets, a.cs.Sets))
	m["cache.allocs_per_op"] = d(b.mallocs, a.mallocs) / n
	m["cache.alloc_bytes_per_op"] = d(b.allocBytes, a.allocBytes) / n
}

// nvramRow is the bottom of the ledger: a bare Flusher issuing, per
// operation, the write-backs, fences and paid sync waits the cache replay
// was counted to issue, each write-back on a line of its own.
func nvramRow(clwbs, fences, waits float64, ops int) float64 {
	dev := nvram.New(nvram.Config{Size: 64 << 20, WriteLatency: writeLatency})
	defer dev.Close()
	f := dev.NewFlusher()
	lines := dev.Size() / nvram.LineSize
	line := uint64(1) // line 0 holds the nil address
	clwb := func() {
		f.CLWB(nvram.Addr(line * nvram.LineSize))
		if line++; line == lines {
			line = 1
		}
	}
	var accC, accW, accF float64
	t0 := now()
	for i := 0; i < ops; i++ {
		accC += clwbs
		accW += waits
		accF += fences - waits
		for ; accC >= 1; accC-- {
			clwb()
		}
		for ; accW >= 1; accW-- {
			if f.Pending() == 0 {
				clwb() // a fence only waits when a line is pending
			}
			f.Fence()
		}
		for ; accF >= 1 && f.Pending() == 0; accF-- {
			f.Fence() // nothing pending: a fence that pays no wait
		}
	}
	return float64(now()-t0) / float64(ops)
}

// rwSyscalls is the process's read+write system call count so far, from
// /proc/self/io; 0 where the file is missing.
func rwSyscalls() uint64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	var total uint64
	for _, line := range strings.Split(string(b), "\n") {
		var n uint64
		if _, err := fmt.Sscanf(line, "syscr: %d", &n); err == nil {
			total += n
		} else if _, err := fmt.Sscanf(line, "syscw: %d", &n); err == nil {
			total += n
		}
	}
	return total
}
