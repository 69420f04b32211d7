package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/memcache"
	"repro/internal/repl"
	"repro/logfree"
)

const writeLatency = 125 * time.Nanosecond // the paper's §6.1 NVRAM write latency

// sut is the system under test of one run: the cache and, for the wire
// workloads, the server in front of it and the follower behind it, all in
// this process.
type sut struct {
	e         *env
	clients   int
	cfg       memcache.Config
	cache     *memcache.Cache
	userBytes uint64 // sum of len(key)+len(value) over the preload

	srv      *memcache.Server
	prim     *repl.Primary
	fol      *repl.Follower
	folCache *memcache.Cache
}

// setupCost is what one set-up cost and left behind.
type setupCost struct {
	seconds     float64 // memcache.New + preload + server/follower start; GC pauses for the heap readings excluded
	syncSeconds float64 // wire_repl: follower attach -> streaming
	heapBefore  uint64
	heapNew     uint64
	heapLoaded  uint64
	poolUsed    uint64
}

func (c setupCost) spaceAmp(userBytes uint64) float64 {
	return ratio(float64(c.poolUsed), float64(userBytes))
}

func (c setupCost) dramPerItem(items int) float64 {
	return ratio(float64(c.heapLoaded)-float64(c.heapNew), float64(items))
}

// settledHeap is HeapAlloc with nothing collectable left in it.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func (e *env) cacheConfig(clients int) memcache.Config {
	cfg := memcache.Config{
		MemoryBytes:      e.sz.memoryBytes,
		Buckets:          e.sz.buckets,
		MaxConns:         clients + 2,
		WriteLatency:     writeLatency,
		DisableLinkCache: !e.w.linkCache,
		Device:           logfree.MemDevice(),
		Durability:       logfree.Synced(),
	}
	if e.w.capped {
		// The budget is exactly the preload's footprint: the preload fits
		// without evicting, and every later new key evicts.
		for i := 0; i < e.preload; i++ {
			cfg.MaxBytes += uint64(logfree.MapEntryOverhead + keyLen + e.preloadSize(i))
		}
	}
	return cfg
}

// openCache creates the cache and preloads it from the calling goroutine.
func (e *env) openCache(clients int) (*sut, setupCost, error) {
	s := &sut{e: e, clients: clients, cfg: e.cacheConfig(clients)}
	cost := setupCost{heapBefore: settledHeap()}
	t0 := now()
	cache, err := memcache.New(s.cfg)
	if err != nil {
		return nil, cost, fmt.Errorf("memcache.New: %w", err)
	}
	s.cache = cache
	t1 := now()
	cost.heapNew = settledHeap()
	t2 := now()
	if s.userBytes, err = e.preloadInto(cache); err != nil {
		s.close()
		return nil, cost, err
	}
	t3 := now()
	cost.heapLoaded = settledHeap()
	cost.poolUsed = cache.Stats().PoolBytesUsed
	cost.seconds = float64(t1-t0+t3-t2) / 1e9
	return s, cost, nil
}

// serve starts a text-protocol server for kv on a loopback port.
func (s *sut) serve(kv memcache.KV) (*memcache.Server, error) {
	srv, err := memcache.NewServer("127.0.0.1:0", s.clients+2, kv, s.cache.Stats)
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	return srv, nil
}

// attachFollower starts an in-process follower on its own cache and waits
// until it gates the primary's acknowledgements ("streaming").
func (s *sut) attachFollower() error {
	fc, err := memcache.New(memcache.Config{
		MemoryBytes:      s.e.sz.followerBytes,
		Buckets:          s.e.sz.buckets,
		MaxConns:         2,
		WriteLatency:     writeLatency,
		DisableLinkCache: true,
	})
	if err != nil {
		return fmt.Errorf("follower cache: %w", err)
	}
	s.folCache = fc
	s.prim = repl.NewPrimary(s.cache, repl.Options{})
	if err := s.prim.Listen("127.0.0.1:0"); err != nil {
		return fmt.Errorf("replication listener: %w", err)
	}
	s.setSink(s.prim)
	s.fol = repl.NewFollower(s.prim.Addr(), fc, repl.FollowerOptions{})
	go s.fol.Run() // stopped and waited for by fol.Close in close()
	deadline := time.Now().Add(30 * time.Second)
	for s.prim.Stats().State != "streaming" {
		if time.Now().After(deadline) {
			return errors.New("follower did not reach streaming within 30s")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// setSink points the cache's replication hook at sink (the primary, or a
// tracing wrapper around it).
func (s *sut) setSink(sink memcache.ReplSink) {
	prim := s.prim
	s.cache.SetReplication(sink, func() memcache.ReplStats {
		st := prim.Stats()
		return memcache.ReplStats{State: st.State, Seq: st.Seq, LagOps: st.LagOps, Reconnects: st.Accepts}
	})
}

// openWire puts the plain server (and, for wire_repl, the follower) in
// front of and behind an open cache.
func (s *sut) openWire() (syncSeconds float64, err error) {
	if s.srv, err = s.serve(s.cache); err != nil {
		return 0, err
	}
	if s.e.w.repl {
		t0 := now()
		if err := s.attachFollower(); err != nil {
			return 0, err
		}
		syncSeconds = float64(now()-t0) / 1e9
	}
	return syncSeconds, nil
}

// open is one whole set-up, as the untraced run times it.
func (e *env) open(clients int) (*sut, setupCost, error) {
	s, cost, err := e.openCache(clients)
	if err != nil {
		return nil, cost, err
	}
	if e.w.wire {
		t0 := now()
		if cost.syncSeconds, err = s.openWire(); err != nil {
			s.close()
			return nil, cost, err
		}
		cost.seconds += float64(now()-t0) / 1e9
	}
	return s, cost, nil
}

// drained waits until the follower has applied and acknowledged everything
// the primary published.
func (s *sut) drained() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		p, f := s.prim.Stats(), s.fol.Stats()
		if p.InSync > 0 && p.LagOps == 0 && f.Seq == p.Seq {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replication stream did not drain: primary %+v follower %+v", p, f)
		}
		time.Sleep(time.Millisecond)
	}
}

// close stops everything the sut started and waits for it; safe on a
// partly opened sut. The cache itself is closed unless a crash replaced it.
func (s *sut) close() {
	if s.srv != nil {
		s.srv.Close()
		s.srv = nil
	}
	if s.fol != nil {
		s.fol.Close()
		s.fol = nil
	}
	if s.prim != nil {
		s.prim.Close()
		s.prim = nil
	}
	if s.folCache != nil {
		s.folCache.Close()
		s.folCache = nil
	}
	if s.cache != nil {
		s.cache.Close()
		s.cache = nil
	}
}
