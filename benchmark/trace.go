package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/memcache"
)

// tracedKV interposes on the seam the server already has (it serves any
// memcache.KV): each call into the cache becomes a "cache" span, child of
// the request the one traced connection has in flight.
type tracedKV struct {
	inner memcache.KV
	on    *atomic.Bool
	cur   *atomic.Uint64
	spans []span // appended only by the one serving goroutine
}

func (t *tracedKV) add(kind uint8, t0 int64) {
	if t.on.Load() {
		t.spans = append(t.spans, span{name: spanCache, kind: kind, req: t.cur.Load(), start: t0, end: now()})
	}
}

func (t *tracedKV) Set(key, value []byte, flags uint16, expiry uint32) error {
	t0 := now()
	err := t.inner.Set(key, value, flags, expiry)
	t.add(opSet, t0)
	return err
}

func (t *tracedKV) Get(key []byte) ([]byte, uint16, bool) {
	t0 := now()
	v, flags, ok := t.inner.Get(key)
	t.add(opGet, t0)
	return v, flags, ok
}

func (t *tracedKV) Delete(key []byte) bool {
	t0 := now()
	ok := t.inner.Delete(key)
	t.add(opDel, t0)
	return ok
}

// tracedSink interposes on the cache's replication seam: the wait for the
// follower's acknowledgement becomes a "repl.wait" span inside the cache
// span, and publications are counted.
type tracedSink struct {
	inner     memcache.ReplSink
	on        *atomic.Bool
	cur       *atomic.Uint64
	spans     []span
	publishes uint64
}

func (t *tracedSink) PublishSet(key, value []byte, flags uint16, aux uint64) uint64 {
	t.publishes++
	return t.inner.PublishSet(key, value, flags, aux)
}

func (t *tracedSink) PublishDelete(key []byte) uint64 {
	t.publishes++
	return t.inner.PublishDelete(key)
}

func (t *tracedSink) WaitAcked(seq uint64) {
	t0 := now()
	t.inner.WaitAcked(seq)
	if t.on.Load() {
		t.spans = append(t.spans, span{name: spanReplWait, kind: opSet, req: t.cur.Load(), start: t0, end: now()})
	}
}

// replay runs one client's next n operations against kv from the calling
// goroutine and returns nanoseconds per operation.
func replay(c *client, kv memcache.KV, n int) float64 {
	t0 := now()
	c.runEngine(kv, n)
	return float64(now()-t0) / float64(n)
}

// runTraced produces the per-layer metrics: the layer ledger and the
// counts from single-goroutine replays, spans through the existing seams,
// the open-loop sweep (wire_read), and repeated crash/recover cycles. All
// of it is observed from outside the program.
func runTraced(o options, e *env, res *result) error {
	sz, m := e.sz, res.values
	nclients := clientCount()
	var measuring atomic.Bool // a traced wire window is open: the server-side wrappers record
	res.correct = true

	// One client owning every key: what the ledger replays. Its stream does
	// not depend on the core count, so neither do the counts.
	ledgerOps := e.genStreams(1)[0]
	ledgerClient := func() *client { return e.newClientsFrom([][]op{ledgerOps})[0] }

	// The ledger: the run's own freshly preloaded cache and, below it, one
	// fresh instance per boundary sized like the cache's, all open at once.
	// Every row replays the same operations from the same state; the rows
	// take turns for a few rounds and report their median, so that drift of
	// the machine lands on all of them alike. The counter growth around the
	// cache row's first round gives the counts.
	e.resetState()
	runtime.GC()
	s, cost, err := e.openCache(nclients)
	if err != nil {
		return err
	}
	defer s.close()
	m["cache.dram_fixed_mb"] = (float64(cost.heapNew) - float64(cost.heapBefore)) / 1e6

	type ledgerRow struct {
		name string
		kv   memcache.KV
		c    *client
		ns   []float64
	}
	var rows []*ledgerRow
	var closers []func()
	closeRows := func() {
		for _, f := range closers {
			f()
		}
		closers = nil
	}
	defer closeRows()
	for _, l := range lowerLayers {
		kv, closeRow, err := l.open(e)
		if err != nil {
			return err
		}
		closers = append(closers, closeRow)
		if _, err := e.preloadInto(kv); err != nil {
			return fmt.Errorf("%s row: %w", l.name, err)
		}
		rows = append(rows, &ledgerRow{name: l.name, kv: kv, c: ledgerClient()})
	}
	cacheRow := &ledgerRow{name: "cache", kv: s.cache, c: ledgerClient()}
	rows = append(rows, cacheRow)
	lc := cacheRow.c
	var nvramNs []float64
	runtime.GC()
	for round := 0; round < sz.ledgerRounds; round++ {
		for _, r := range rows {
			counted := r == cacheRow && round == 0
			var before counters
			if counted {
				before = readCounters(s.cache)
			}
			r.ns = append(r.ns, replay(r.c, r.kv, sz.ledgerOps))
			if counted {
				countMetrics(m, before, readCounters(s.cache), sz.ledgerOps)
			}
		}
		nvramNs = append(nvramNs, nvramRow(m["nvram.clwbs_per_op"], m["nvram.fences_per_op"],
			m["nvram.sync_waits_per_op"], sz.ledgerOps))
	}
	closeRows()
	// One crash and recovery of the image the single-goroutine replays left,
	// before any concurrent phase: what it sweeps depends on the seed and on
	// the program's own tie-breaks only, not on how goroutines interleaved.
	if e.w.linkCache {
		s.cache.Flush()
	}
	recs := make([]recovery, 1, sz.recoveries+2)
	if recs[0], err = s.crashAndRecover(); err != nil {
		return err
	}
	m["cache.recover_objects"] = float64(recs[0].stats.ObjectsChecked)
	m["nvram.ns_per_op"] = median(nvramNs)
	fmt.Fprintf(o.log, "ledger %-8s %8.0f ns/op\n", "nvram", m["nvram.ns_per_op"])
	for _, r := range rows {
		m[r.name+".ns_per_op"] = median(r.ns)
		fmt.Fprintf(o.log, "ledger %-8s %8.0f ns/op %.0f\n", r.name, median(r.ns), r.ns)
		if r != cacheRow {
			res.tally(o.log, []*client{r.c}, nil)
		}
	}

	// The server row: the cache row's client continues over one connection
	// with one request in flight, before any follower exists.
	if e.w.wire {
		if s.srv, err = s.serve(s.cache); err != nil {
			return err
		}
		wc, err := dialWire(s.srv.Addr(), lc, 1)
		if err != nil {
			return err
		}
		mallocs0, _ := goAllocs()
		sys0 := rwSyscalls()
		var ns []float64
		for round := 0; round < sz.ledgerRounds && err == nil; round++ {
			t0 := now()
			err = wc.run(sz.serverOps)
			ns = append(ns, float64(now()-t0)/float64(sz.serverOps))
		}
		wc.close()
		if err != nil {
			fmt.Fprintln(o.log, "FAIL", err)
			res.correct = false
		}
		mallocs1, _ := goAllocs()
		n := float64(len(ns) * sz.serverOps)
		m["server.ns_per_op"] = median(ns)
		m["server.allocs_per_op"] = float64(mallocs1-mallocs0) / n
		m["server.rw_syscalls_per_op"] = float64(rwSyscalls()-sys0) / n
		m["server.self_ns_per_op"] = m["server.ns_per_op"] - m["cache.ns_per_op"]
		fmt.Fprintf(o.log, "ledger %-8s %8.0f ns/op %.0f\n", "server", m["server.ns_per_op"], ns)
		if e.w.repl {
			t0 := now()
			if err := s.attachFollower(); err != nil {
				return err
			}
			m["repl.sync_ms"] = float64(now()-t0) / 1e6
		}
	}
	res.tally(o.log, []*client{lc}, nil)
	e.absorb([]*client{lc})

	m["core.self_ns_per_op"] = m["core.ns_per_op"] - m["nvram.ns_per_op"]
	m["logfree.self_ns_per_op"] = m["logfree.ns_per_op"] - m["core.ns_per_op"]
	m["sharded.self_ns_per_op"] = m["sharded.ns_per_op"] - m["logfree.ns_per_op"]
	m["cache.self_ns_per_op"] = m["cache.ns_per_op"] - m["logfree.ns_per_op"]
	m["gen.share"] = ratio(m["gen.ns_per_op"], m["cache.ns_per_op"])

	// Measured phases of the same shape, without and with spans; their
	// throughput ratio is what tracing costs. Engine workloads keep their
	// client goroutines; wire workloads use one connection with one request
	// in flight, so that a span's parent is never in doubt.
	phaseClients := nclients
	if e.w.wire {
		phaseClients = 1
	}
	streams := [][]op{ledgerOps}
	if phaseClients > 1 {
		streams = e.genStreams(phaseClients)
	}
	var lagMax uint64
	tick := func() {
		if s.prim != nil {
			lagMax = max(lagMax, s.prim.Stats().LagOps)
		}
	}
	addr := ""
	if s.srv != nil {
		addr = s.srv.Addr()
	}
	var cur atomic.Uint64
	var tkv *tracedKV
	var tsink *tracedSink
	var tsrv *memcache.Server
	tracedAddr := addr
	if e.w.wire {
		tkv = &tracedKV{inner: s.cache, on: &measuring, cur: &cur}
		if tsrv, err = s.serve(tkv); err != nil {
			return err
		}
		tracedAddr = tsrv.Addr()
		if s.prim != nil {
			tsink = &tracedSink{inner: s.prim, on: &measuring, cur: &cur}
		}
	}
	// The two shapes take turns, one window each, so that drift of the
	// machine over the seconds this takes lands on both alike.
	var plain, traced phase
	var tracedOps uint64
	for round := 0; round < sz.phaseWindows; round++ {
		clients := e.newClientsFrom(streams)
		p := drive(clients, sz.warm/8, sz.window, 0, 1, s.loop(addr, 1), tick)
		e.absorb(clients)
		res.tally(o.log, clients, p.errs)
		plain.slots = append(plain.slots, p.slots...)

		clients = e.newClientsFrom(streams)
		for _, c := range clients {
			c.traced, c.reqBase = true, uint64(round)<<32
		}
		if e.w.wire {
			clients[0].curReq, clients[0].measuring = &cur, &measuring
		}
		if tsink != nil {
			s.setSink(tsink)
		}
		p = drive(clients, sz.warm/8, sz.window, 0, 1, s.loop(tracedAddr, 1), tick)
		if tsink != nil {
			s.setSink(s.prim)
		}
		e.absorb(clients)
		res.tally(o.log, clients, p.errs)
		traced.slots = append(traced.slots, p.slots...)
		traced.spans = append(traced.spans, p.spans...)
		tracedOps += clients[0].done
	}
	if tsrv != nil {
		tsrv.Close() // waits for the serving goroutine: its spans are ours now
	}
	m["trace.overhead_ratio"] = ratio(traced.opsPerSec(), plain.opsPerSec())
	fmt.Fprintf(o.log, "phases: plain %.0f ops/s, traced %.0f ops/s, %d spans from clients\n",
		plain.opsPerSec(), traced.opsPerSec(), len(traced.spans))

	spans := traced.spans
	if tkv != nil {
		spans = append(spans, tkv.spans...)
	}
	if tsink != nil {
		spans = append(spans, tsink.spans...)
		m["repl.publishes_per_op"] = ratio(float64(tsink.publishes), float64(tracedOps))
	}
	spanMetrics(m, spans)
	if s.prim != nil {
		m["repl.lag_ops_max"] = float64(lagMax)
		m["repl.sheds"] = float64(s.prim.Stats().Sheds)
	}

	if e.w.name == "wire_read" {
		if err := runSweep(o, e, s, res, ledgerOps); err != nil {
			return err
		}
	}

	m["logfree.sessions"] = float64(s.cache.Runtime().Sessions())
	v, rec, err := s.verify()
	if err != nil {
		return err
	}
	res.tallyVerify(o.log, v)
	recs = append(recs, rec)
	for len(recs) < sz.recoveries+1 {
		if rec, err = s.crashAndRecover(); err != nil {
			return err
		}
		recs = append(recs, rec)
	}
	var total, attach, rebuild []float64
	for _, r := range recs {
		total = append(total, float64(r.total)/1e6)
		attach = append(attach, float64(r.attach)/1e6)
		rebuild = append(rebuild, float64(r.total-r.attach)/1e6)
	}
	m["cache.recover_ms"] = median(total)
	m["logfree.attach_ms"] = median(attach)
	m["cache.rebuild_ms"] = median(rebuild)

	if o.outDir != "" {
		return writeTrace(o, e, spans)
	}
	return nil
}

// spanSums is the total time of the spans of each name.
func spanSums(spans []span) (sum [len(spanNames)]float64) {
	for _, sp := range spans {
		sum[sp.name] += float64(sp.end - sp.start)
	}
	return sum
}

// spanMetrics derives the span-based per-layer metrics.
func spanMetrics(m metrics, spans []span) {
	sum := spanSums(spans)
	var getNs, setNs, waitNs []int64
	for _, sp := range spans {
		d := sp.end - sp.start
		switch {
		case sp.name == spanCache && sp.kind == opGet:
			getNs = append(getNs, d)
		case sp.name == spanCache && sp.kind == opSet:
			setNs = append(setNs, d)
		case sp.name == spanReplWait:
			waitNs = append(waitNs, d)
		}
	}
	m["cache.get_p50_ns"] = float64(percentile(getNs, 50))
	m["cache.set_p50_ns"] = float64(percentile(setNs, 50))
	m["repl.wait_acked_us_p50"] = float64(percentile(waitNs, 50)) / 1e3
	m["repl.wait_share"] = ratio(sum[spanReplWait], sum[spanRequest])
}

// writeTrace writes the spans of the first requests (whole families, up to
// sz.maxSpans spans) with ids and parents, plus the self-time totals over
// every span recorded.
func writeTrace(o options, e *env, spans []span) error {
	// A layer's self time is its spans' time minus the spans they enclose.
	sum := spanSums(spans)
	self := map[string]float64{"cache": sum[spanCache] - sum[spanReplWait], "repl.wait": sum[spanReplWait]}
	if sum[spanRequest] > 0 {
		self["request"] = sum[spanRequest] - sum[spanCache]
	}
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.client != b.client {
			return a.client < b.client
		}
		if a.req != b.req {
			return a.req < b.req
		}
		return a.name < b.name
	})
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return fmt.Errorf("create output directory: %w", err)
	}
	name := filepath.Join(o.outDir, fmt.Sprintf("trace-%s.json", o.workload))
	f, err := os.Create(name)
	if err != nil {
		return fmt.Errorf("create trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	written := min(len(spans), e.sz.maxSpans)
	fmt.Fprintf(w, "{\"workload\": %q, \"seed\": %d, \"spans_recorded\": %d, \"spans_written\": %d,\n",
		o.workload, o.seed, len(spans), written)
	fmt.Fprintf(w, " \"self_ns\": {\"request\": %.0f, \"cache\": %.0f, \"repl.wait\": %.0f},\n \"spans\": [\n",
		self["request"], self["cache"], self["repl.wait"])
	// Sorted by (client, request, layer), a span's parent is the nearest
	// earlier span of the same request one layer up.
	var lastOf [len(spanNames)]int
	kinds := [...]string{"get", "set", "delete"}
	for i, sp := range spans[:written] {
		id := i + 1
		parent := 0
		if sp.name > 0 {
			if p := lastOf[sp.name-1]; p > 0 && spans[p-1].req == sp.req && spans[p-1].client == sp.client {
				parent = p
			}
		}
		lastOf[sp.name] = id
		sep := ","
		if id == written {
			sep = ""
		}
		fmt.Fprintf(w, "  {\"id\": %d, \"parent\": %d, \"name\": %q, \"op\": %q, \"client\": %d, \"request\": %d, \"start_ns\": %d, \"end_ns\": %d}%s\n",
			id, parent, spanNames[sp.name], kinds[sp.kind], sp.client, sp.req, sp.start, sp.end, sep)
	}
	fmt.Fprint(w, " ]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close trace: %w", err)
	}
	return nil
}

// sleepUntil waits for the monotonic instant due without time.Sleep or a
// ticker (both overshoot by about a millisecond here): nanosleep, which
// wakes 40-80 us late on a locked thread, to within 120 us, then spin.
func sleepUntil(due int64) {
	for {
		rem := due - now()
		if rem <= 0 {
			return
		}
		if rem > 200_000 {
			ts := syscall.NsecToTimespec(rem - 120_000)
			syscall.Nanosleep(&ts, nil) // an early return only means another lap
		}
	}
}

// sweepStep is one fixed-rate step of the open-loop sweep.
type sweepStep struct {
	rate     int
	requests int
	p50, p99 float64 // microseconds, from each request's intended send time
	worst    int64   // nanoseconds
	lagP50   float64 // microseconds the generator sent after the intended time
	failed   bool
}

// openLoop sends n requests on one connection at a fixed rate whether or
// not replies have come back, a sender and a reader goroutine apart, and
// times each request from the instant it was due, so a stall is charged to
// every request it delays.
func openLoop(c *client, addr string, rate int, dur time.Duration) (sweepStep, error) {
	wc, err := dialWire(addr, c, 1)
	if err != nil {
		return sweepStep{}, err
	}
	defer wc.close()
	n := max(int(float64(rate)*dur.Seconds()), 1)
	step := sweepStep{rate: rate, requests: n}
	pend := make([]pending, n)
	lags := make([]int64, n)
	lats := make([]int64, 0, n)
	var sent atomic.Int64
	interval := float64(time.Second) / float64(rate)
	start := now() + int64(2*time.Millisecond)

	sendErr := make(chan error, 1)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for i := 0; i < n; i++ {
			due := start + int64(float64(i)*interval)
			sleepUntil(due)
			lags[i] = now() - due
			p := wc.render()
			p.t0 = due
			pend[i] = p
			sent.Store(int64(i + 1))
			if err := wc.w.Flush(); err != nil {
				wc.conn.Close() // unblocks the reader
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()

	var readErr error
	for j := 0; j < n; j++ {
		// Sleep in the read until reply j starts to arrive; request j was
		// sent before that, and the atomic makes pend[j] visible here.
		if _, readErr = wc.r.Peek(1); readErr != nil {
			break
		}
		for sent.Load() <= int64(j) {
			runtime.Gosched()
		}
		if readErr = wc.readReply(pend[j]); readErr != nil {
			break
		}
		lats = append(lats, now()-pend[j].t0)
		c.done++
	}
	if readErr != nil {
		wc.conn.Close() // unblocks a sender stuck in a full socket
	}
	if err := <-sendErr; err != nil && readErr == nil {
		readErr = err
	}
	if missing := n - len(lats); missing > 0 {
		c.failed += uint64(missing)
		step.failed = true
	}
	for _, l := range lats {
		step.worst = max(step.worst, l)
	}
	step.p50 = float64(percentile(lats, 50)) / 1e3
	step.p99 = float64(percentile(lats, 99)) / 1e3
	step.lagP50 = float64(percentile(lags, 50)) / 1e3
	if readErr != nil {
		return step, fmt.Errorf("open loop at %d/s: %w", rate, readErr)
	}
	return step, nil
}

// runSweep is the open-loop part of the wire_read trace: latency at fixed
// rates, the highest rate that keeps p99 under 20 ms with nothing a second
// overdue, and how late the generator itself ran. These are reported per
// layer because on shared cores they cannot be held to a bound.
func runSweep(o options, e *env, s *sut, res *result, stream []op) error {
	const p99Limit, overdue = 20_000.0, int64(time.Second)
	m := res.values
	c := e.newClientsFrom([][]op{stream})[0]
	var lagWorst float64
	for _, rate := range sweepRates {
		step, err := openLoop(c, s.srv.Addr(), rate, e.sz.sweepStep)
		if err != nil {
			fmt.Fprintln(o.log, "FAIL", err)
			res.correct = false
		}
		label := fmt.Sprintf("r%dk", rate/1000)
		m["server.p50_us."+label] = step.p50
		m["server.p99_us."+label] = step.p99
		if !step.failed && err == nil && step.p99 <= p99Limit && step.worst < overdue {
			m["server.max_rate_ok"] = float64(rate)
		}
		lagWorst = max(lagWorst, step.lagP50)
		fmt.Fprintf(o.log, "open loop %6d/s: %d requests, p50 %.1f us, p99 %.1f us, worst %.1f us, generator lag p50 %.1f us\n",
			rate, step.requests, step.p50, step.p99, float64(step.worst)/1e3, step.lagP50)
	}
	m["server.gen_lag_p50_us"] = lagWorst
	if lagWorst > 100 {
		res.correct = false
		res.notes = append(res.notes, "open-loop generator ran more than 100 us late: the sweep measured the generator")
		fmt.Fprintln(o.log, "FAIL open-loop generator lag p50", lagWorst, "us > 100 us")
	}
	e.absorb([]*client{c})
	res.tally(o.log, []*client{c}, nil)
	return nil
}
