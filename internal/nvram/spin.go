package nvram

import (
	"sync"
	"time"
)

// Wait busy-waits for approximately d, modeling the latency of an NVRAM
// write-back batch. It deliberately spins rather than sleeping: the paper's
// methodology injects pauses of hundreds of nanoseconds, far below scheduler
// granularity, and a store to NVRAM occupies the issuing core.
//
// The pause is a count of spin iterations priced by spinRate, which is
// calibrated once per process, at the first non-zero Wait. Reading the clock
// inside the loop would charge every pause at least one clock read, which on
// some hosts costs most of a 125 ns pause by itself.
func Wait(d time.Duration) {
	if d <= 0 {
		return
	}
	n := uint64(float64(d) * spinRate())
	for ; n > spinChunk; n -= spinChunk {
		spin(spinChunk)
	}
	spin(n)
}

// spin runs n iterations of a one-add dependency chain and returns its sum,
// so no compiler can drop the loop. Not inlined, so every call costs the
// same.
//
//go:noinline
func spin(n uint64) uint64 {
	var x uint64
	for i := uint64(0); i < n; i++ {
		x += i
	}
	return x
}

// Wait spins in calls of at most spinChunk iterations (one call for a
// 125 ns pause) and the calibration times calls of that size, so the rate
// includes a call's fixed cost (the call, the mispredicted loop exit) and a
// pause of any length pays it about as often per iteration.
const spinChunk = 512

// The calibration's rounds: spinRounds of spinCalls calls each, every round
// timed alone. A round takes tens of microseconds, so its two clock reads
// are well under 1 % of it, and the fastest round is taken: a round the
// scheduler interrupted, or another thread slowed, only reads slower.
const (
	spinRounds = 10
	spinCalls  = 128
)

// spinRate returns spin's iterations per nanosecond, calibrated on its
// first call.
var spinRate = sync.OnceValue(calibrateSpin)

// calibrateSpin measures spin's iterations per nanosecond.
func calibrateSpin() float64 {
	best := time.Duration(1<<63 - 1)
	for range spinRounds {
		start := time.Now()
		for range spinCalls {
			spin(spinChunk)
		}
		best = min(best, max(time.Since(start), 1))
	}
	return spinCalls * spinChunk / float64(best)
}
