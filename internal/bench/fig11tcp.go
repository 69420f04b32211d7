package bench

import (
	"fmt"
	"time"

	"repro/internal/memcache"
)

// Fig11TCP is Figure 11 in the paper's actual configuration: client and
// server speak the memcached text protocol over TCP, so warm-up pays the
// full network + protocol cost that makes re-populating a volatile cache so
// much slower than recovering a durable one.
func Fig11TCP(o FigureOptions) (*Table, error) {
	o.fill()
	t := &Table{
		Title: "Figure 11 (TCP): NV-Memcached vs volatile, warm-up vs recovery",
		Header: []string{"keys", "nv-kops", "clht-kops",
			"warmup-clht-ms", "recover-nv-ms", "speedup"},
	}
	for _, keys := range capSizes([]int{1000, 10_000, 100_000}, o.MaxSize) {
		row, err := fig11TCPPoint(o, keys)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, *row)
	}
	return t, nil
}

func fig11TCPPoint(o FigureOptions, keys int) (*Row, error) {
	cfg := memcache.Config{
		MemoryBytes: uint64(keys)*768 + (64 << 20),
		Buckets:     nextPow2(keys),
		MaxConns:    o.Threads,
	}
	lg := loadGen{keyRange: keys, threads: o.Threads, duration: o.Duration}

	// Volatile comparator (memcached-clht model) over TCP: time the warm-up.
	clht, err := newCLHTCache(cfg)
	if err != nil {
		return nil, err
	}
	srvV, err := memcache.NewServer("127.0.0.1:0", o.Threads, clht, clht.Stats)
	if err != nil {
		return nil, err
	}
	wuStart := time.Now()
	if err := lg.preloadTCP(srvV.Addr()); err != nil {
		srvV.Close()
		return nil, err
	}
	warmup := time.Since(wuStart)
	resV, err := lg.runTCP(srvV.Addr())
	srvV.Close()
	if err != nil {
		return nil, err
	}

	// NV-Memcached over TCP: same preload + run, then crash and recover.
	nv, err := memcache.New(cfg)
	if err != nil {
		return nil, err
	}
	srvN, err := memcache.NewServer("127.0.0.1:0", o.Threads, nv, nv.Stats)
	if err != nil {
		return nil, err
	}
	if err := lg.preloadTCP(srvN.Addr()); err != nil {
		srvN.Close()
		return nil, err
	}
	resN, err := lg.runTCP(srvN.Addr())
	srvN.Close()
	if err != nil {
		return nil, err
	}
	nv.Flush()
	nv.Device().Crash()
	recStart := time.Now()
	if _, _, err := memcache.Recover(nv.Device(), cfg); err != nil {
		return nil, err
	}
	rec := time.Since(recStart)

	speedup := float64(warmup) / float64(rec)
	return &Row{
		Labels: []string{fmt.Sprintf("%d", keys)},
		Values: []float64{
			resN.throughput / 1000,
			resV.throughput / 1000,
			float64(warmup.Microseconds()) / 1000,
			float64(rec.Microseconds()) / 1000,
			speedup,
		},
	}, nil
}
