package logfree_test

// Concurrency torture for the byte-key maps: N goroutines hammer
// overlapping keys through the implicit context pool (no per-thread
// plumbing at all) while a scanning goroutine iterates continuously. Run
// under `go test -race`. The scans must never observe a torn entry (every
// value carries its key as a prefix, written atomically with the key) and,
// for the ordered map, never observe keys out of ascending byte order.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/logfree"
)

// raceOps is sized so the default `-race -short` CI lane stays quick.
func raceOps() int {
	if testing.Short() {
		return 1500
	}
	return 6000
}

const raceWriters = 4

// hammer drives one writer goroutine's op mix over a small overlapping key
// pool. Values embed the key and a sequence number so a torn read is
// detectable as a key/value mismatch.
func hammer(t *testing.T, m logfree.Map, w int) {
	rng := rand.New(rand.NewSource(int64(w) * 31))
	for i := 0; i < raceOps(); i++ {
		key := []byte(fmt.Sprintf("key-%02d", rng.Intn(32)))
		switch rng.Intn(5) {
		case 0, 1:
			val := append(append([]byte(nil), key...), []byte(fmt.Sprintf("#%d.%d", w, i))...)
			if err := m.Set(key, val); err != nil {
				t.Error(err)
				return
			}
		case 2:
			m.Delete(key)
		case 3:
			// Bursts of sets on scattered keys race against single ops
			// and scans too.
			for j := 0; j < 4; j++ {
				k := []byte(fmt.Sprintf("key-%02d", rng.Intn(32)))
				if err := m.Set(k, append(append([]byte(nil), k...), []byte(fmt.Sprintf("#b%d.%d.%d", w, i, j))...)); err != nil {
					t.Error(err)
					return
				}
			}
		default:
			if v, ok := m.Get(key); ok && !bytes.HasPrefix(v, key) {
				t.Errorf("torn get for %q: %q", key, v)
				return
			}
		}
	}
}

// runRace spins writers + one scanner until the writers finish.
func runRace(t *testing.T, m logfree.Map, ordered bool) {
	var wg sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < raceWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hammer(t, m, w)
		}(w)
	}
	go func() { wg.Wait(); stop.Store(true) }()

	scans := 0
	// At least one full scan always runs, even if the writers finish before
	// the scanner gets scheduled (on a single-CPU host fast writers can beat
	// the scanner to completion).
	for done := false; !done; {
		done = stop.Load()
		var prev []byte
		for k, v := range m.All() {
			if ordered && prev != nil && bytes.Compare(prev, k) >= 0 {
				t.Errorf("scan out of order: %q then %q", prev, k)
				break
			}
			if !bytes.HasPrefix(v, k) {
				t.Errorf("torn scan entry: key %q value %q", k, v)
				break
			}
			prev = append(prev[:0], k...)
		}
		scans++
		if t.Failed() {
			return
		}
	}
	if scans == 0 {
		t.Fatal("scanner never ran")
	}
}

func TestRaceByteMap(t *testing.T) {
	rt, err := logfree.New(
		logfree.WithSize(128<<20),
		logfree.WithMaxThreads(raceWriters+2),
		logfree.WithLinkCache(true))
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.OpenOrCreate("race-map", logfree.Spec{Buckets: 64})
	if err != nil {
		t.Fatal(err)
	}
	runRace(t, m, false)
}

func TestRaceOrderedMap(t *testing.T) {
	rt, err := logfree.New(
		logfree.WithSize(128<<20),
		logfree.WithMaxThreads(raceWriters+2),
		logfree.WithLinkCache(true))
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.OpenOrCreate("race-ordered",
		logfree.Spec{Kind: logfree.KindOrderedMap})
	if err != nil {
		t.Fatal(err)
	}
	runRace(t, m, true)

	// Quiescent cross-check: the surviving keys scan in strict order and
	// agree with point reads.
	om := m.(logfree.OrderedMap)
	var prev []byte
	for k, v := range om.Ascend() {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("final scan out of order: %q then %q", prev, k)
		}
		prev = append(prev[:0], k...)
		got, ok := om.Get(k)
		if !ok || !bytes.Equal(got, v) {
			t.Fatalf("final scan/get disagree on %q", k)
		}
	}
}

// TestRaceOrderedMapScanWindow hammers a narrow window of keys while a
// scanner repeatedly reads a sub-range, the pattern an expiry sweep or
// leaderboard page uses.
func TestRaceOrderedMapScanWindow(t *testing.T) {
	rt, err := logfree.New(
		logfree.WithSize(128<<20),
		logfree.WithMaxThreads(raceWriters+2),
		logfree.WithLinkCache(true))
	if err != nil {
		t.Fatal(err)
	}
	om, err := rt.OrderedMap("race-window")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < raceWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hammer(t, om, w)
		}(w)
	}
	go func() { wg.Wait(); stop.Store(true) }()
	lo, hi := []byte("key-08"), []byte("key-24")
	for !stop.Load() {
		var prev []byte
		for k, v := range om.Scan(lo, hi) {
			if bytes.Compare(k, lo) < 0 || bytes.Compare(k, hi) >= 0 {
				t.Errorf("scan escaped [%q,%q): %q", lo, hi, k)
				break
			}
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				t.Errorf("window scan out of order: %q then %q", prev, k)
				break
			}
			if !bytes.HasPrefix(v, k) {
				t.Errorf("torn window entry: %q -> %q", k, v)
				break
			}
			prev = append(prev[:0], k...)
		}
		if t.Failed() {
			return
		}
	}
}
