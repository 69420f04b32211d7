package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
)

// options is one invocation: one workload, once.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	outDir   string    // result and trace files; "" writes none
	log      io.Writer // progress and the manifest
}

// result is what the last line of standard output carries.
type result struct {
	correct   bool
	attempted uint64
	failed    uint64
	values    metrics
	defs      []metricDef // which catalog the values answer, in print order

	raw   metrics // untraced: the timed metrics as measured, before scaling
	speed float64 // untraced: the machine's speed relative to the reference machine

	manifest manifest
	notes    []string
}

func (o options) sizing() sizing {
	if o.smoke {
		return smoke()
	}
	return full(o.seconds)
}

// run executes one workload once, in the mode o names.
func run(o options) (*result, error) {
	w := findWorkload(o.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	e := newEnv(w, o.sizing(), o.seed)
	res := &result{values: metrics{}, manifest: newManifest(o, e)}
	res.manifest.write(o.log)
	var err error
	if o.trace {
		res.defs = perLayer
		err = runTraced(o, e, res)
	} else {
		res.defs = endToEnd
		err = runUntraced(o, e, res)
	}
	if err != nil {
		return nil, err
	}
	res.correct = res.correct && res.failed == 0
	for _, d := range res.defs {
		// A name never set is a layer this workload bypasses: it reads 0.
		if v := res.values[d.name]; math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(o.log, "FAIL %s is %v\n", d.name, v)
			res.values[d.name], res.correct = 0, false
		}
	}
	if o.outDir != "" {
		if err := res.writeFile(o); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// loop returns the closed loop a client runs against the sut: in-process
// calls for the engine workloads, a pipelined connection for the wire ones.
func (s *sut) loop(addr string, depth int) func(c *client) error {
	if !s.e.w.wire {
		return func(c *client) error {
			c.runEngine(s.cache, 0)
			return nil
		}
	}
	return func(c *client) error {
		wc, err := dialWire(addr, c, depth)
		if err != nil {
			return err
		}
		defer wc.close()
		return wc.run(0)
	}
}

// tally folds the clients' own failure counts, and the errors that ended
// any of their loops, into the result.
func (res *result) tally(log io.Writer, clients []*client, errs []error) {
	for _, c := range clients {
		res.attempted += c.done
		res.failed += c.failed
		if c.firstFail != "" {
			fmt.Fprintln(log, "FAIL", c.firstFail)
		}
	}
	for _, err := range errs {
		fmt.Fprintln(log, "FAIL", err)
		res.correct = false
	}
}

func (res *result) tallyVerify(log io.Writer, v verification) {
	res.attempted += v.checked
	res.failed += v.failed
	if v.first != "" {
		fmt.Fprintln(log, "FAIL", v.first)
	}
}

// runUntraced produces the end-to-end metrics: one discarded and several
// timed set-ups, a discarded warm-up, the measured slots, and then the
// quiesce / crash / recover / read-everything-back check. Timed metrics are
// reported at the reference machine's speed (see reference.go); the raw
// values go to the log and the result file.
func runUntraced(o options, e *env, res *result) error {
	sz := e.sz
	nclients := clientCount()
	var s *sut
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	// Reference slices before, between and after the set-ups tell how fast
	// the machine was while they ran; one speed for all of them, because a
	// single slice is too noisy to scale a single set-up by.
	ref := newRefWorker(0)
	setupRefs := []float64{ref.runUntil(now() + int64(sz.setupRef))}
	var raw, amps, drams []float64
	for i := 0; i <= sz.setups; i++ {
		if s != nil {
			s.close()
			s = nil
		}
		runtime.GC()
		var cost setupCost
		var err error
		if s, cost, err = e.open(nclients); err != nil {
			return err
		}
		setupRefs = append(setupRefs, ref.runUntil(now()+int64(sz.setupRef)))
		fmt.Fprintf(o.log, "setup %d: %.4fs (sync %.4fs); pool %d B for %d user B, heap +%d B\n",
			i, cost.seconds, cost.syncSeconds, cost.poolUsed, s.userBytes, cost.heapLoaded-cost.heapNew)
		if i == 0 {
			continue // the first set-up in a process page-faults everything fresh
		}
		raw = append(raw, cost.seconds)
		amps = append(amps, cost.spaceAmp(s.userBytes))
		drams = append(drams, cost.dramPerItem(e.preload))
	}
	setupSpeed := speedOf(setupRefs)

	clients := e.newClientsFrom(e.genStreams(nclients))
	addr := ""
	if s.srv != nil {
		addr = s.srv.Addr()
	}
	p := drive(clients, sz.warm, sz.window, sz.refSlice, sz.windows, s.loop(addr, e.w.depth), nil)
	e.absorb(clients)
	res.correct = true
	res.tally(o.log, clients, p.errs)
	fmt.Fprintf(o.log, "measured %d ops in %d windows; samples get %d set %d\n", p.ops, len(p.slots), p.samples[0], p.samples[1])
	for i, st := range p.slots {
		fmt.Fprintf(o.log, "window %2d: %8.0f ops/s, get p50 %.3f us, set p50 %.3f us, cpu %.3f us/op, speed %.3f\n",
			i, st.rate, st.getP50, st.setP50, st.cpuPerOp, st.speed)
	}

	v, rec, err := s.verify()
	if err != nil {
		return err
	}
	res.tallyVerify(o.log, v)
	fmt.Fprintf(o.log, "verified %d reads after crash+recover (%.1f ms, %d objects)\n",
		v.checked, float64(rec.total.Microseconds())/1e3, rec.stats.ObjectsChecked)

	// Every timed metric is the median over the windows, each window scaled
	// by the machine's speed around it; as measured, the same without scaling.
	timed := map[string]func(slotStat) (value, atSpeed1 float64){
		"ops_per_s":     func(s slotStat) (float64, float64) { return s.rate, s.rate / s.speed },
		"get_p50_us":    func(s slotStat) (float64, float64) { return s.getP50, s.getP50 * s.speed },
		"set_p50_us":    func(s slotStat) (float64, float64) { return s.setP50, s.setP50 * s.speed },
		"cpu_us_per_op": func(s slotStat) (float64, float64) { return s.cpuPerOp, s.cpuPerOp * s.speed },
	}
	res.raw = metrics{"setup_s": median(raw)}
	res.values["setup_s"] = median(raw) * setupSpeed
	for name, f := range timed {
		res.raw[name] = p.over(func(s slotStat) float64 { v, _ := f(s); return v })
		res.values[name] = p.over(func(s slotStat) float64 { _, v := f(s); return v })
	}
	res.speed = p.over(func(s slotStat) float64 { return s.speed })
	res.values["space_amp"] = median(amps)
	res.values["dram_bytes_per_item"] = median(drams)
	fmt.Fprintf(o.log, "as measured, before scaling to the reference machine (median speed %.3f, set-ups at %.3f): %v\n",
		res.speed, setupSpeed, res.raw)
	res.notes = append(res.notes,
		fmt.Sprintf("latency samples: get %d, set %d; windows %d", p.samples[0], p.samples[1], len(p.slots)))
	return nil
}
