package nvram

import "time"

// Wait busy-waits for d on the reference machine (see spinsPerMicrosecond),
// modeling the latency of an NVRAM write-back batch. It deliberately spins
// rather than sleeping: the paper's methodology injects pauses of hundreds
// of nanoseconds, far below scheduler granularity, and a store to NVRAM
// occupies the issuing core.
//
// The pause is a fixed amount of work, spinCount(d) iterations, and reads
// no clock: on a host faster or slower than the reference it takes less or
// more wall time, exactly like every other instruction the engine runs.
func Wait(d time.Duration) {
	for n := spinCount(d); n > 0; {
		c := min(n, spinChunk)
		spin(c)
		n -= c
	}
}

// spinCount is the number of spin iterations a pause of d costs.
func spinCount(d time.Duration) uint64 {
	if d <= 0 {
		return 0
	}
	return uint64(d) * spinsPerMicrosecond / 1000
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
// 125 ns pause), the call size spinsPerMicrosecond was measured at, so a
// pause of any length pays a call's fixed cost (the call, the mispredicted
// loop exit) about as often per iteration.
const spinChunk = 512
