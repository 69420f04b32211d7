package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/memcache"
)

// quickCfg is ops-budgeted, so a point's length does not depend on how fast
// the runner happens to be.
func quickCfg(st Structure, impl Impl) Config {
	return Config{
		Structure: st, Impl: impl, Size: 256, Threads: 2,
		UpdateRatio: 1.0, Ops: 4096,
	}
}

func TestRunAllImplsAllStructures(t *testing.T) {
	impls := []Impl{ImplLP, ImplLC, ImplLog, ImplLogEpochAlloc, ImplVolatile, ImplLPAllocLog}
	for _, st := range []Structure{List, Hash, SkipList, BST} {
		for _, im := range impls {
			r, err := Run(quickCfg(st, im))
			if err != nil {
				t.Fatalf("%s/%s: %v", st, im, err)
			}
			if r.Ops == 0 || r.Throughput <= 0 {
				t.Fatalf("%s/%s: no progress: %+v", st, im, r)
			}
		}
	}
}

func TestOpsModeRunsExactBudget(t *testing.T) {
	cfg := quickCfg(Hash, ImplLP)
	cfg.Ops = 1000
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Batch granularity is 64 ops/thread.
	if r.Ops < 1000 || r.Ops > 1000+64*uint64(cfg.Threads) {
		t.Fatalf("ops = %d, want ≈1000", r.Ops)
	}
}

// TestOnlyDurablePaysSyncWaits is Figure 7's gap in its own unit: the
// NVRAM-oblivious structure never waits for a write-back, the durable one
// waits about once per operation (two waits per successful update, and
// about half the updates of the steady-state mix succeed).
func TestOnlyDurablePaysSyncWaits(t *testing.T) {
	base := quickCfg(List, ImplLP)
	base.Size = 64
	base.Threads = 1
	durable, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Impl = ImplVolatile
	vol, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if vol.SyncWaits != 0 {
		t.Fatalf("volatile run paid %d syncs", vol.SyncWaits)
	}
	if durable.SyncsPerOp() < 0.9 {
		t.Fatalf("durable run paid %.3f syncs/op, want ≈1", durable.SyncsPerOp())
	}
}

// TestLogFreeSyncsLessThanLogBased is the paper's headline (Figure 5) as
// the count behind it: on a 100%-update workload the log-free structure
// waits for fewer write-backs per operation than the redo-logged one.
func TestLogFreeSyncsLessThanLogBased(t *testing.T) {
	for _, st := range []Structure{Hash, SkipList} {
		cfg := quickCfg(st, ImplLC)
		cfg.Threads = 1
		lf, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Impl = ImplLog
		lb, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if lf.SyncsPerOp() >= lb.SyncsPerOp() {
			t.Fatalf("%s: log-free pays %.3f syncs/op, log-based %.3f",
				st, lf.SyncsPerOp(), lb.SyncsPerOp())
		}
	}
}

func TestAPTHitRatesHighForSmallStructures(t *testing.T) {
	r, err := Run(quickCfg(SkipList, ImplLP))
	if err != nil {
		t.Fatal(err)
	}
	if r.AllocHitRate() < 0.9 {
		t.Fatalf("alloc APT hit rate %.2f; the paper reports ≈100%% for small structures", r.AllocHitRate())
	}
	if r.UnlinkHitRate() < 0.5 {
		t.Fatalf("unlink APT hit rate %.2f; expected high for small structures", r.UnlinkHitRate())
	}
}

func TestTable1Renders(t *testing.T) {
	tab := Table1()
	var b strings.Builder
	tab.Fprint(&b)
	if !strings.Contains(b.String(), "PCM") {
		t.Fatal("Table 1 missing PCM row")
	}
}

func TestFigureDriversSmoke(t *testing.T) {
	o := FigureOptions{Duration: 15 * time.Millisecond, MaxSize: 512, Threads: 2}
	if _, err := Fig5(o); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig6(o); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig7(o); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig8(o); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig9a(o); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig9b(o); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig10(o); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryPointLeaksNothingUnexpected(t *testing.T) {
	dur, leaked, err := RecoveryPoint(Hash, 1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dur <= 0 {
		t.Fatal("zero recovery duration")
	}
	_ = leaked // any leak count is valid; the sweep must just complete
}

func TestAblationsSmoke(t *testing.T) {
	o := FigureOptions{Duration: 15 * time.Millisecond, MaxSize: 512, Threads: 2}
	if _, err := AblationAreaShift(o); err != nil {
		t.Fatal(err)
	}
	if _, err := AblationLinkCacheBuckets(o); err != nil {
		t.Fatal(err)
	}
	if _, err := AblationGenSize(o); err != nil {
		t.Fatal(err)
	}
}

func TestAblationAreaShiftTradeoff(t *testing.T) {
	// Larger areas must not lower APT hit rates (§6.3's direction).
	o := FigureOptions{Duration: 60 * time.Millisecond, MaxSize: 4096, Threads: 1}
	tab, err := AblationAreaShift(o)
	if err != nil {
		t.Fatal(err)
	}
	first := tab.Rows[0].Values[0]              // 4KiB insert-hit%
	last := tab.Rows[len(tab.Rows)-1].Values[0] // 256KiB insert-hit%
	if last+1 < first {                         // allow 1pp noise
		t.Fatalf("insert hit rate fell with area size: %.1f%% -> %.1f%%", first, last)
	}
}

func TestFig11TCPSmoke(t *testing.T) {
	o := FigureOptions{Duration: 30 * time.Millisecond, MaxSize: 1000, Threads: 2}
	tab, err := Fig11TCP(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Recovery must beat TCP warm-up.
	speedup := tab.Rows[0].Values[4]
	if speedup < 1 {
		t.Fatalf("recovery slower than warm-up: speedup=%.2f", speedup)
	}
}

// TestLoadGenInProcessAllBackends: the Figure 11 generator makes progress on
// all three KV back ends, and finds the keys its preload stored.
func TestLoadGenInProcessAllBackends(t *testing.T) {
	cfg := memcache.Config{MemoryBytes: 64 << 20, Buckets: 1024, MaxConns: 4}
	nv, err := memcache.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clht, err := memcache.NewCLHTCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lg := loadGen{keyRange: 200, threads: 2, duration: 40 * time.Millisecond}
	for name, kv := range map[string]memcache.KV{
		"nv-memcached": nv, "lock": memcache.NewLockCache(), "clht": clht,
	} {
		if err := lg.preload(kvClient{kv}); err != nil {
			t.Fatalf("%s: preload: %v", name, err)
		}
		r, err := lg.runKV(kv)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.ops == 0 || r.hits == 0 {
			t.Fatalf("%s: run empty: %+v", name, r)
		}
	}
}
