package bench

import (
	"fmt"
	"time"

	"repro/internal/memcache"
)

// Fig11 reproduces Figure 11 (§6.5): NV-Memcached against stock Memcached
// (lock-protected table) and memcached-clht (lock-free volatile table).
// For each key-range size it reports the load generator's throughput (1:4
// set:get, uniform keys, cache pre-warmed with half the key range) and the
// time to make the instance useful again after a restart: warm-up for the
// volatile systems, recovery for NV-Memcached.
func Fig11(o FigureOptions) (*Table, error) {
	o.fill()
	t := &Table{
		Title: "Figure 11: Memcached vs memcached-clht vs NV-Memcached",
		Header: []string{"keys", "mc-kops", "clht-kops", "nv-kops",
			"warmup-mc-ms", "warmup-clht-ms", "recover-nv-ms"},
	}
	for _, keys := range capSizes([]int{1000, 10_000, 100_000, 1_000_000}, o.MaxSize) {
		row, err := fig11Point(o, keys)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, *row)
	}
	return t, nil
}

func fig11Point(o FigureOptions, keys int) (*Row, error) {
	cfg := memcache.Config{
		MemoryBytes: uint64(keys)*768 + (64 << 20),
		Buckets:     nextPow2(keys),
		MaxConns:    o.Threads,
	}
	lg := loadGen{keyRange: keys, threads: o.Threads, duration: o.Duration}

	// Stock memcached model: mutex-protected table.
	lock := newLockCache()
	wuLockStart := time.Now()
	if err := lg.preload(kvClient{lock}); err != nil {
		return nil, err
	}
	wuLock := time.Since(wuLockStart)
	rLock, err := lg.runKV(lock)
	if err != nil {
		return nil, err
	}

	// memcached-clht model: same lock-free table, volatile.
	clht, err := newCLHTCache(cfg)
	if err != nil {
		return nil, err
	}
	wuCLHTStart := time.Now()
	if err := lg.preload(kvClient{clht}); err != nil {
		return nil, err
	}
	wuCLHT := time.Since(wuCLHTStart)
	rCLHT, err := lg.runKV(clht)
	if err != nil {
		return nil, err
	}

	// NV-Memcached.
	nv, err := memcache.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := lg.preload(kvClient{nv}); err != nil {
		return nil, err
	}
	rNV, err := lg.runKV(nv)
	if err != nil {
		return nil, err
	}

	// Restart comparison: crash NV-Memcached and time its recovery.
	nv.Flush()
	nv.Device().Crash()
	recStart := time.Now()
	if _, _, err := memcache.Recover(nv.Device(), cfg); err != nil {
		return nil, fmt.Errorf("fig11: recovery: %w", err)
	}
	rec := time.Since(recStart)

	return &Row{
		Labels: []string{fmt.Sprintf("%d", keys)},
		Values: []float64{
			rLock.throughput / 1000,
			rCLHT.throughput / 1000,
			rNV.throughput / 1000,
			float64(wuLock.Microseconds()) / 1000,
			float64(wuCLHT.Microseconds()) / 1000,
			float64(rec.Microseconds()) / 1000,
		},
	}, nil
}
