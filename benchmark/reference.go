package main

// The reference unit of work.
//
// The runner this benchmark has to hold still on is two vCPUs of a shared
// host whose speed moves by a third within minutes (measured: the same
// commit gave 255k and 403k ops/s a few minutes apart, every workload and
// every timed metric moving together). No estimator over one run's own
// windows removes that, because the whole run sits inside one such regime.
// So every run also measures the machine: between the measured windows each
// load goroutine runs a short slice of fixed work of the benchmark's own -
// dependent random reads and writes over 16 MiB with a little arithmetic,
// which is what an engine operation is made of - and every window's numbers
// are scaled to a reference machine on which that work runs at refUnit
// iterations per second per thread (see aggregate, and README.md for the
// spreads with and without).

const (
	refUnit  = 5e6     // iterations per second per thread on the reference machine
	refWords = 2 << 20 // 16 MiB per worker: well past the caches
)

// refWorker is one goroutine's reference work. Not safe for concurrent use.
type refWorker struct {
	arr []uint64
	x   uint64
}

func newRefWorker(seed uint64) *refWorker {
	r := &refWorker{arr: make([]uint64, refWords), x: seed}
	for i := range r.arr {
		r.arr[i] = mix64(uint64(i) + seed)
	}
	return r
}

// runUntil does reference work until the clock passes deadline (at least one
// batch) and returns iterations per second.
func (r *refWorker) runUntil(deadline int64) float64 {
	x, n := r.x, 0
	t0 := now()
	t := t0
	for {
		for k := 0; k < 64; k++ {
			i := x & (refWords - 1)
			v := r.arr[i]
			x = mix64(x ^ v)
			x = mix64(x + 1)
			x = mix64(x + 3)
			r.arr[i] = v + 1
		}
		n += 64
		if t = now(); t >= deadline {
			break
		}
	}
	r.x = x
	return float64(n) / (float64(t-t0) / 1e9)
}

// speedOf turns reference scores into the machine's speed relative to the
// reference machine: 1 means refUnit, 0 that nothing was measured.
func speedOf(scores []float64) float64 { return median(scores) / refUnit }
