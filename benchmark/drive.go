package main

import (
	"slices"
	"sync"
	"syscall"
	"time"
)

// slotStat is one measured slot, all clients together, as measured.
type slotStat struct {
	rate     float64 // completed operations per second
	cpuPerOp float64 // process user+sys CPU microseconds per operation
	getP50   float64 // microseconds
	setP50   float64
	speed    float64 // the machine's speed around this slot (1 = the reference machine; 1 when no reference work ran)
}

// phase is what one closed-loop measured phase produced.
type phase struct {
	slots   []slotStat // the slots every client measured
	ops     uint64     // completed inside them
	samples [2]int     // latency samples kept: gets, sets
	spans   []span
	errs    []error
}

// over is the median over the phase's slots of f.
func (p phase) over(f func(slotStat) float64) float64 {
	vals := make([]float64, len(p.slots))
	for i, s := range p.slots {
		vals[i] = f(s)
	}
	return median(vals)
}

func (p phase) opsPerSec() float64 { return p.over(func(s slotStat) float64 { return s.rate }) }

// cpuMicros is the process's user+system CPU time so far.
func cpuMicros() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

// drive runs every client's loop at once on one schedule: a discarded
// warm-up, then `slots` slots of length slot, each opening with ref of
// reference work (0 = none) and measuring for the rest. The clients follow
// the clock themselves and time their own windows, so nothing here depends
// on when this goroutine wakes up. tick, if set, runs about once per slot.
func drive(clients []*client, warm, slot, ref time.Duration, slots int,
	run func(c *client) error, tick func()) phase {
	for i, c := range clients {
		if ref > 0 && c.ref == nil {
			c.ref = newRefWorker(uint64(i) + 1)
		}
	}
	sc := schedule{start: now() + int64(warm), slot: int64(slot), ref: int64(ref), slots: slots}
	for i, c := range clients {
		c.sched, c.edge, c.sampler = sc, sc.start, i == 0
	}
	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = run(c)
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		case <-time.After(slot):
			if tick != nil {
				tick()
			}
		}
	}

	var p phase
	recs := make([]record, len(clients))
	for i, c := range clients {
		recs[i] = c.record
		p.spans = append(p.spans, c.spans...)
		c.record, c.spans, c.edge = record{}, nil, 0
		if errs[i] != nil {
			p.errs = append(p.errs, errs[i])
		}
	}
	p.slots, p.ops, p.samples = aggregate(recs, slots)
	return p
}

// record is what one client measured in a phase.
type record struct {
	windows []window
	refs    []refScore
	getLat  []uint32 // ns; the windows hold index ranges into these
	setLat  []uint32
}

// refScore is the score of the reference slice taken at the head of slot
// `slice` (slice == slots: the closing one).
type refScore struct {
	slice int
	score float64
}

// aggregate joins the clients' own records slot by slot. A slot counts only
// when every client measured it. Its rate is the sum of the clients' rates
// over their own window times; its CPU per operation the sampling (first)
// client's process CPU over everyone's operations; its latencies the
// medians of everyone's samples in it; its speed the median reference
// score of the four slices around it (two before, two after), so that a
// change of the host's speed in the middle of a run is followed within a
// couple of seconds while one noisy slice is not.
func aggregate(recs []record, slots int) (out []slotStat, total uint64, samples [2]int) {
	for k := 0; k < slots; k++ {
		var st slotStat
		var ops uint64
		var cpu float64
		var gets, sets []uint32
		var scores []float64
		complete := true
		for i, r := range recs {
			j := slices.IndexFunc(r.windows, func(w window) bool { return w.slot == k })
			if j < 0 || r.windows[j].t1 <= r.windows[j].t0 {
				complete = false
				break
			}
			w := r.windows[j]
			st.rate += float64(w.ops) / (float64(w.t1-w.t0) / 1e9)
			ops += w.ops
			if i == 0 {
				cpu = w.cpu1 - w.cpu0
			}
			gets = append(gets, r.getLat[w.get0:w.get1]...)
			sets = append(sets, r.setLat[w.set0:w.set1]...)
			for _, s := range r.refs {
				if s.slice >= k-1 && s.slice <= k+2 {
					scores = append(scores, s.score)
				}
			}
		}
		if !complete || ops == 0 {
			continue
		}
		st.cpuPerOp = cpu / float64(ops)
		st.getP50 = float64(percentile(gets, 50)) / 1e3
		st.setP50 = float64(percentile(sets, 50)) / 1e3
		st.speed = 1
		if len(scores) > 0 {
			st.speed = speedOf(scores)
		}
		out = append(out, st)
		total += ops
		samples[0] += len(gets)
		samples[1] += len(sets)
	}
	return out, total, samples
}
