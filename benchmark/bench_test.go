package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/memcache"
)

func testEnv(t *testing.T, name string, seed int64) *env {
	t.Helper()
	w := findWorkload(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	return newEnv(w, smoke(), seed)
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		e := testEnv(t, w.name, 7)
		a := genStream(e.w, e.keys, 7, 0, 2, e.sz.streamOps)
		b := genStream(e.w, e.keys, 7, 0, 2, e.sz.streamOps)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave two different streams", w.name)
		}
		c := genStream(e.w, e.keys, 8, 0, 2, e.sz.streamOps)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same stream", w.name)
		}
		// How much work a stream holds never depends on the seed.
		count := func(ops []op) (kinds [3]int, sizes [8]int) {
			for _, o := range ops {
				kinds[o.kind]++
				if o.kind == opSet {
					sizes[o.size]++
				}
			}
			return kinds, sizes
		}
		ka, sa := count(a)
		kc, sc := count(c)
		if ka != kc || sa != sc {
			t.Errorf("%s: op counts differ between seeds: %v %v vs %v %v", w.name, ka, sa, kc, sc)
		}
		for k, n := range ka {
			want := 0
			for _, kind := range w.kinds {
				if int(kind) == k {
					want++
				}
			}
			if n*len(w.kinds) != want*len(a) {
				t.Errorf("%s: kind %d appears %d times in %d ops, want share %d/%d", w.name, k, n, len(a), want, len(w.kinds))
			}
		}
		for _, o := range a {
			if int(o.key) >= ownedKeys(e.keys, 0, 2) {
				t.Fatalf("%s: key ordinal %d outside the client's keys", w.name, o.key)
			}
		}
	}
}

func TestPercentilesWindowsAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	samples := make([]uint32, 100)
	for i := range samples {
		samples[i] = uint32(100 - i) // 1..100, unsorted
	}
	for _, c := range []struct {
		p    float64
		want uint32
	}{{50, 50}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(slices.Clone(samples), c.p); got != c.want {
			t.Errorf("p%v = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]uint32(nil), 50); got != 0 {
		t.Errorf("p50 of nothing = %d", got)
	}

	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of 1,2 = %v %v %v", q1, q2, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5", got)
	}

	// Two clients' records, joined slot by slot: each client's rate is over
	// its own window time (a stretched window keeps its rate), CPU comes from
	// the first client, latencies pool both clients' samples of the slot, the
	// speed is the median reference score around the slot, and a slot one
	// client missed does not count.
	a := record{
		windows: []window{
			{slot: 0, t0: 0, t1: 1e9, ops: 1000, cpu0: 10, cpu1: 4010, get0: 0, get1: 2},
			{slot: 1, t0: 1e9, t1: 3e9, ops: 2000, cpu0: 5000, cpu1: 9000, get0: 2, get1: 3, set0: 0, set1: 1},
			{slot: 2, t0: 3e9, t1: 4e9, ops: 7},
		},
		getLat: []uint32{1000, 3000, 9000}, setLat: []uint32{7000},
		refs: []refScore{{0, refUnit}, {1, 2 * refUnit}, {2, 2 * refUnit}, {3, 4 * refUnit}},
	}
	b := record{
		windows: []window{{slot: 0, t0: 5, t1: 5e8 + 5, ops: 500, get0: 0, get1: 1}, {slot: 1, t0: 1e9, t1: 2e9, ops: 3000}},
		getLat:  []uint32{2000},
	}
	got, ops, kept := aggregate([]record{a, b}, 3)
	want := []slotStat{
		{rate: 2000, cpuPerOp: 4000.0 / 1500, getP50: 2, speed: 2},
		{rate: 4000, cpuPerOp: 4000.0 / 5000, getP50: 9, setP50: 7, speed: 2},
	}
	if !reflect.DeepEqual(got, want) || ops != 6500 || kept != [2]int{4, 1} {
		t.Errorf("aggregate = %+v %d %v", got, ops, kept)
	}
}

func TestOracleTellsBadValuesApart(t *testing.T) {
	o := newOracle(3)
	buf := make([]byte, maxValue)
	good := slices.Clone(o.encode(buf, 17, 5, 256))
	if v := o.check(good, 17, 5); v != valueOK {
		t.Fatalf("good value judged %s", verdictNames[v])
	}
	if v := o.check(good, 17, 6); v != valueStale {
		t.Errorf("older version judged %s, want stale", verdictNames[v])
	}
	if v := o.check(good, 18, 5); v != valueMisplaced {
		t.Errorf("another key's value judged %s, want misplaced", verdictNames[v])
	}
	// Torn: the tail of one write under the head of another.
	torn := slices.Clone(good)
	copy(torn[128:], o.encode(buf, 17, 4, 256)[128:])
	if v := o.check(torn, 17, 5); v != valueTorn {
		t.Errorf("two writes spliced judged %s, want torn", verdictNames[v])
	}
	if v := o.check(good[:64], 17, 5); v != valueTorn {
		t.Errorf("truncated value judged %s, want torn", verdictNames[v])
	}
	for _, c := range []struct {
		name      string
		v         []byte
		found     bool
		state     uint32
		evictable bool
		want      verdict
	}{
		{"live and right", good, true, keyState(5, true), false, valueOK},
		{"live but absent", nil, false, keyState(5, true), false, valueMissing},
		{"live, absent, evictable", nil, false, keyState(5, true), true, valueOK},
		{"deleted and absent", nil, false, keyState(5, false), false, valueOK},
		{"deleted but present", good, true, keyState(5, false), true, valueUnexpected},
		{"never written, absent", nil, false, 0, false, valueOK},
		{"stale under eviction", good, true, keyState(6, true), true, valueStale},
	} {
		if got := o.judge(c.v, c.found, 17, c.state, c.evictable); got != c.want {
			t.Errorf("%s: judged %s, want %s", c.name, verdictNames[got], verdictNames[c.want])
		}
	}
}

// faultyKV is arrayKV with one injected fault, to show the client loop
// feeds every kind of violation into its failure count.
type faultyKV struct {
	arrayKV
	fault string
	sets  int
}

func (f *faultyKV) Set(key, value []byte, flags uint16, expiry uint32) error {
	f.sets++
	if f.fault == "stale" && f.sets%50 == 0 {
		return nil // acknowledged, never applied: the old value stays
	}
	return f.arrayKV.Set(key, value, flags, expiry)
}

func (f *faultyKV) Get(key []byte) ([]byte, uint16, bool) {
	v, flags, ok := f.arrayKV.Get(key)
	i := keyIndex(key)
	switch {
	case !ok:
	case f.fault == "missing" && i%7 == 0:
		return nil, 0, false
	case f.fault == "misplaced" && i%7 == 0:
		return f.slots[(i+1)%len(f.slots)], flags, f.slots[(i+1)%len(f.slots)] != nil
	case f.fault == "torn" && i%7 == 0:
		return v[:len(v)-8], flags, true
	}
	return v, flags, ok
}

func TestClientLoopCatchesInjectedFaults(t *testing.T) {
	for fault, want := range map[string]verdict{
		"": valueOK, "stale": valueStale, "torn": valueTorn, "misplaced": valueMisplaced, "missing": valueMissing,
	} {
		e := testEnv(t, "engine_mix", 11)
		kv := &faultyKV{arrayKV: arrayKV{slots: make([][]byte, e.keys)}, fault: fault}
		if _, err := e.preloadInto(kv); err != nil {
			t.Fatal(err)
		}
		c := e.newClientsFrom(e.genStreams(1))[0]
		c.runEngine(kv, 5000)
		if fault == "" {
			if c.failed != 0 {
				t.Errorf("no fault injected, yet %d failures: %s", c.failed, c.firstFail)
			}
			continue
		}
		if c.byVerdict[want] == 0 {
			t.Errorf("fault %q: no %s failure counted (failed=%d, first: %s)", fault, verdictNames[want], c.failed, c.firstFail)
		}
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{name: "x", bound: 0.25}
	higher := metricDef{name: "y", higher: true, bound: 0.25}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(k float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * k
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"lower-is-better got 40% higher", lower, steady, scale(1.4), "regressed"},
		{"lower-is-better got 40% lower", lower, steady, scale(0.6), "ok"},
		{"higher-is-better got 40% lower", higher, steady, scale(0.6), "regressed"},
		{"within the bound", higher, steady, scale(0.85), "ok"},
		{"too noisy to say", lower, noisy, steady, "unresolved"},
		{"noisy, but every run better", lower, noisy, scale(0.5), "ok"},
	} {
		if got, _ := verdictOf(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// benchmarkJSON is ../BENCHMARK.json as far as the tests hold the program
// to it.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func TestSmokeRunsPrintExactlyTheDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	for i, d := range decl.EndToEnd {
		def := findDef(endToEnd, d.Name)
		if def == nil || def.unit != d.Unit || def.bound != d.Bound || def.higher != (d.Better == "higher") || endToEnd[i].name != d.Name {
			t.Errorf("end-to-end metric %q differs between BENCHMARK.json and the catalog", d.Name)
		}
	}
	for i, w := range decl.Workloads {
		if workloads[i].name != w.Name || workloads[i].why != w.Why {
			t.Errorf("workload %q differs between BENCHMARK.json and the program", w.Name)
		}
		for _, trace := range []bool{false, true} {
			res, err := run(options{workload: w.Name, seed: 5, seconds: 1, trace: trace, smoke: true,
				outDir: t.TempDir(), log: io.Discard})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s trace=%v: failed=%d attempted=%d", w.Name, trace, res.failed, res.attempted)
			}
			var line struct {
				Correct   *bool
				Attempted *uint64
				Failed    *uint64
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			dec := json.NewDecoder(strings.NewReader(res.line()))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s trace=%v: result line: %v", w.Name, trace, err)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
				t.Errorf("%s trace=%v: result line lacks a key: %s", w.Name, trace, res.line())
			}
			want := map[string]string{}
			if trace {
				for _, d := range decl.PerLayer {
					want[d.Name] = d.Unit
				}
			} else {
				for _, d := range decl.EndToEnd {
					want[d.Name] = d.Unit
				}
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", w.Name, trace, len(line.Metrics), len(want))
			}
			for name, unit := range want {
				got, ok := line.Metrics[name]
				switch {
				case !ok || got.Value == nil:
					t.Errorf("%s trace=%v: metric %s not printed", w.Name, trace, name)
				case got.Unit != unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, declared %q", w.Name, trace, name, got.Unit, unit)
				case !trace && (*got.Value == 0 || math.IsNaN(*got.Value)):
					t.Errorf("%s: end-to-end metric %s is %v", w.Name, name, *got.Value)
				}
			}
			if trace {
				checkLayerShape(t, workloads[i], res.values)
			}
		}
	}
}

// checkLayerShape holds the traced run to what makes the workloads differ:
// each layer works on its own workload and is absent from the bypass.
func checkLayerShape(t *testing.T, w workload, m metrics) {
	t.Helper()
	positive := func(name string, want bool) {
		if (m[name] > 0) != want {
			t.Errorf("%s: %s = %v, want positive: %v", w.name, name, m[name], want)
		}
	}
	positive("linkcache.adds_per_op", w.linkCache)
	positive("cache.evictions_per_set", w.capped)
	positive("server.ns_per_op", w.wire)
	positive("repl.wait_share", w.repl)
	positive("repl.publishes_per_op", w.repl)
	positive("server.p50_us.r5k", w.name == "wire_read")
	positive("cache.ns_per_op", true)
	positive("nvram.sync_waits_per_op", true)
	positive("cache.recover_objects", true)
}

var _ memcache.KV = (*faultyKV)(nil)
