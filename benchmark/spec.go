package main

import (
	"runtime"
	"time"
)

// Op kinds of a generated stream.
const (
	opGet uint8 = iota
	opSet
	opDel
)

const keyLen = 14 // "key-%010d"

// workload is one set of inputs the benchmark runs. The four below differ in
// the layers that do most of the work; see README.md for the table.
type workload struct {
	name string
	why  string

	keys    int // key space
	preload int // keys [0,preload) are stored, single-threaded, in set-up

	// kinds is one period of the op mix; a stream is this pattern repeated
	// and then shuffled by the seed, so kind counts never depend on the seed.
	kinds []uint8
	// sizes is one period of value sizes, used the same way for sets (and,
	// by key index, for the preload).
	sizes []int

	zipf      bool // key popularity: zipfian (s=1.01) instead of uniform
	linkCache bool
	capped    bool // MaxBytes = the preload's footprint: sets evict
	wire      bool // text protocol over loopback instead of in-process calls
	repl      bool // a live in-process follower gates every mutation
	depth     int  // wire: requests in flight per connection
}

func repeat(k uint8, n int) []uint8 {
	out := make([]uint8, n)
	for i := range out {
		out[i] = k
	}
	return out
}

func mix(gets, sets, dels int) []uint8 {
	return append(append(repeat(opGet, gets), repeat(opSet, sets)...), repeat(opDel, dels)...)
}

var workloads = []workload{
	{
		name: "engine_mix",
		why: "Fig. 11's 1:4 set:get mix with no socket: core/logfree/cache/nvram do all the work, " +
			"server and repl none; the bypass workload for every wire-side change",
		keys: 200_000, preload: 200_000,
		kinds: mix(4, 1, 0), sizes: []int{64},
	},
	{
		name: "engine_churn",
		why: "writes beside reads on a working set 8x the cache: pmem size classes, epoch reclaim/APT, " +
			"the link cache and LRU eviction dominate here and are idle or absent in engine_mix",
		keys: 400_000, preload: 50_000,
		kinds: mix(4, 5, 1), sizes: []int{64, 64, 64, 64, 64, 64, 64, 256, 256, 1024},
		zipf: true, linkCache: true, capped: true,
	},
	{
		name: "wire_read",
		why: "9:1 get:set over pipelined loopback connections: socket, parser and response writer " +
			"dominate and the engine does little; wire_repl's bypass (same pipeline, no follower)",
		keys: 200_000, preload: 200_000,
		kinds: mix(9, 1, 0), sizes: []int{64},
		wire: true, depth: 16,
	},
	{
		name: "wire_repl",
		why: "1:1 set:get with a live follower: per-mutation WaitAcked round trips dominate; " +
			"the row pipelined replication acks must move",
		keys: 50_000, preload: 50_000,
		kinds: mix(1, 1, 0), sizes: []int{64},
		wire: true, repl: true, depth: 16,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// sizing holds everything that scales a run. full() is what BENCHMARK.json
// measures; smoke() shrinks key spaces and phases so the tests can run every
// workload in both modes in well under a second each.
type sizing struct {
	memoryBytes   uint64
	followerBytes uint64
	buckets       int
	keyDiv        int // key spaces are divided by this
	streamOps     int // ops generated per client (cyclic); a multiple of 10
	ledgerOps     int // single-goroutine replay prefix
	serverOps     int // ledger ops replayed over one unpipelined connection, per round
	ledgerRounds  int // the ledger rows take turns this many times; medians are reported
	setups        int // timed set-ups, after one discarded
	recoveries    int // traced: crash -> recover cycles
	warm          time.Duration
	window        time.Duration // one slot: a reference slice, then the measured window
	refSlice      time.Duration // reference work at the head of every untraced slot
	setupRef      time.Duration // reference work before and after every set-up
	windows       int           // untraced measured windows
	phaseWindows  int           // traced: windows per measured phase
	sweepStep     time.Duration
	maxSpans      int // spans written to the trace file
}

func full(seconds int) sizing {
	return sizing{
		memoryBytes: 256 << 20, followerBytes: 64 << 20, buckets: 1 << 17, keyDiv: 1,
		streamOps: 1_050_000, ledgerOps: 200_000, serverOps: 40_000, ledgerRounds: 3,
		setups: 4, recoveries: 5,
		warm: 2 * time.Second, window: time.Second, windows: seconds,
		refSlice: 100 * time.Millisecond, setupRef: 100 * time.Millisecond,
		phaseWindows: max(seconds/6, 1),
		sweepStep:    time.Duration(max(seconds/10, 1)) * time.Second,
		maxSpans:     50_000,
	}
}

func smoke() sizing {
	return sizing{
		memoryBytes: 16 << 20, followerBytes: 16 << 20, buckets: 1 << 12, keyDiv: 100,
		streamOps: 10_000, ledgerOps: 2000, serverOps: 400, ledgerRounds: 2,
		setups: 2, recoveries: 2,
		warm: 10 * time.Millisecond, window: 15 * time.Millisecond, windows: 3,
		refSlice: 3 * time.Millisecond, setupRef: time.Millisecond,
		phaseWindows: 2,
		sweepStep:    40 * time.Millisecond,
		maxSpans:     1000,
	}
}

// sweepRates are the open-loop steps (requests per second); the catalog
// names a metric pair for each.
var sweepRates = []int{5000, 10000, 20000}

// clientCount is the number of load goroutines or connections: never more
// than the cores, because two clients already saturate two vCPUs here.
func clientCount() int { return min(runtime.NumCPU(), 4) }
