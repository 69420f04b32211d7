package nvram

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func newDev(t *testing.T, size uint64) *Device {
	t.Helper()
	return New(Config{Size: size})
}

func TestStoreLoadRoundTrip(t *testing.T) {
	d := newDev(t, 4096)
	d.Store(64, 42)
	if got := d.Load(64); got != 42 {
		t.Fatalf("Load = %d, want 42", got)
	}
}

func TestStoreIsNotDurableUntilFence(t *testing.T) {
	d := newDev(t, 4096)
	f := d.NewFlusher()
	d.Store(128, 7)
	if d.LinePersisted(128) {
		t.Fatal("line persisted before any write-back")
	}
	d.Crash()
	if got := d.Load(128); got != 0 {
		t.Fatalf("unflushed store survived crash: %d", got)
	}

	d.Store(128, 7)
	f.CLWB(128)
	if d.LinePersisted(128) {
		t.Fatal("CLWB alone must not persist (needs fence)")
	}
	f.Fence()
	if !d.LinePersisted(128) {
		t.Fatal("line not persisted after CLWB+Fence")
	}
	d.Crash()
	if got := d.Load(128); got != 7 {
		t.Fatalf("fenced store lost in crash: got %d, want 7", got)
	}
}

func TestFenceCoversWholeLine(t *testing.T) {
	d := newDev(t, 4096)
	f := d.NewFlusher()
	// Two words on the same 64B line: a write-back persists both.
	d.Store(256, 1)
	d.Store(256+8, 2)
	f.Sync(256)
	d.Crash()
	if d.Load(256) != 1 || d.Load(256+8) != 2 {
		t.Fatalf("whole-line persistence broken: %d %d", d.Load(256), d.Load(256+8))
	}
}

func TestCASBehaves(t *testing.T) {
	d := newDev(t, 4096)
	d.Store(64, 10)
	if d.CAS(64, 11, 12) {
		t.Fatal("CAS succeeded with wrong expected value")
	}
	if !d.CAS(64, 10, 12) {
		t.Fatal("CAS failed with right expected value")
	}
	if d.Load(64) != 12 {
		t.Fatalf("CAS result = %d, want 12", d.Load(64))
	}
}

func TestAdd(t *testing.T) {
	d := newDev(t, 4096)
	d.Store(64, 5)
	if got := d.Add(64, 3); got != 8 {
		t.Fatalf("Add returned %d, want 8", got)
	}
	if got := d.Load(64); got != 8 {
		t.Fatalf("Load after Add = %d, want 8", got)
	}
}

func TestMisalignedAccessPanics(t *testing.T) {
	d := newDev(t, 4096)
	defer func() {
		if recover() == nil {
			t.Fatal("misaligned access did not panic")
		}
	}()
	d.Load(65)
}

func TestNilAddressPanics(t *testing.T) {
	d := newDev(t, 4096)
	defer func() {
		if recover() == nil {
			t.Fatal("nil-address access did not panic")
		}
	}()
	d.Load(0)
}

func TestOutOfRangePanics(t *testing.T) {
	d := newDev(t, 4096)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range access did not panic")
		}
	}()
	d.Store(1<<20, 1)
}

func TestFenceWithoutPendingIsNotASyncWait(t *testing.T) {
	d := newDev(t, 4096)
	f := d.NewFlusher()
	f.Fence()
	if f.SyncWaits != 0 {
		t.Fatalf("empty fence counted as sync wait")
	}
	d.Store(64, 1)
	f.Sync(64)
	if f.SyncWaits != 1 {
		t.Fatalf("SyncWaits = %d, want 1", f.SyncWaits)
	}
}

func TestCLWBDeduplicatesLines(t *testing.T) {
	d := newDev(t, 4096)
	f := d.NewFlusher()
	f.CLWB(256)
	f.CLWB(256 + 8) // same line
	f.CLWB(256 + 56)
	if f.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 (same line)", f.Pending())
	}
	f.CLWB(512)
	if f.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", f.Pending())
	}
}

func TestBatchedFenceInjectsOneLatency(t *testing.T) {
	d := New(Config{Size: 1 << 16, WriteLatency: 2 * time.Millisecond})
	f := d.NewFlusher()
	for i := 0; i < 16; i++ {
		a := Addr(64 * (i + 1))
		d.Store(a, uint64(i))
		f.CLWB(a)
	}
	start := time.Now()
	f.Fence()
	batched := time.Since(start)
	if batched > 10*time.Millisecond {
		t.Fatalf("batched fence took %v; latency should be injected once, not per line", batched)
	}
	if f.SyncWaits != 1 {
		t.Fatalf("SyncWaits = %d, want 1", f.SyncWaits)
	}
}

func TestCrashPartialEvictsSomeLines(t *testing.T) {
	d := newDev(t, 1<<16)
	rng := rand.New(rand.NewSource(1))
	for i := 1; i <= 100; i++ {
		d.Store(Addr(i*64), uint64(i))
	}
	d.CrashPartial(rng, 0.5)
	survived := 0
	for i := 1; i <= 100; i++ {
		if d.Load(Addr(i*64)) == uint64(i) {
			survived++
		}
	}
	if survived == 0 || survived == 100 {
		t.Fatalf("partial crash survived=%d, want a strict subset", survived)
	}
}

func TestAutoEvictionPersistsWithoutFence(t *testing.T) {
	d := New(Config{Size: 1 << 16, AutoEvictEvery: 1})
	for i := 1; i <= 64; i++ {
		d.Store(Addr(i*64), uint64(i))
	}
	if d.Stats().Evictions == 0 {
		t.Fatal("auto-eviction never fired")
	}
}

func TestConcurrentCASCounter(t *testing.T) {
	d := newDev(t, 4096)
	const goroutines, per = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				for {
					v := d.Load(64)
					if d.CAS(64, v, v+1) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := d.Load(64); got != goroutines*per {
		t.Fatalf("counter = %d, want %d", got, goroutines*per)
	}
}

func TestConcurrentFlushersIndependent(t *testing.T) {
	d := newDev(t, 1<<16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f := d.NewFlusher()
			base := Addr((g + 1) * 1024)
			for i := 0; i < 100; i++ {
				a := base + Addr(i%8)*64
				d.Store(a, uint64(i))
				f.Sync(a)
			}
		}(g)
	}
	wg.Wait()
	// All four regions must be persisted.
	d.Crash()
	for g := 0; g < 4; g++ {
		base := Addr((g + 1) * 1024)
		found := false
		for i := 0; i < 8; i++ {
			if d.Load(base+Addr(i)*64) != 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("region %d lost all synced data", g)
		}
	}
}

func TestSaveLoadImage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "img")
	d := newDev(t, 1<<14)
	f := d.NewFlusher()
	d.Store(64, 0xDEADBEEF)
	f.Sync(64)
	d.Store(128, 0xBAD) // not synced: must not survive
	if err := d.SaveImage(path); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadImage(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Size() != d.Size() {
		t.Fatalf("size mismatch: %d vs %d", d2.Size(), d.Size())
	}
	if got := d2.Load(64); got != 0xDEADBEEF {
		t.Fatalf("persisted word = %#x, want 0xDEADBEEF", got)
	}
	if got := d2.Load(128); got != 0 {
		t.Fatalf("unpersisted word survived image: %#x", got)
	}
}

func TestLoadImageRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "img")
	if err := os.WriteFile(path, []byte("not an image"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadImage(path, Config{}); err == nil {
		t.Fatal("LoadImage accepted garbage")
	}
}

func TestQuickStoreSyncCrashPreserves(t *testing.T) {
	d := newDev(t, 1<<16)
	f := d.NewFlusher()
	check := func(off uint16, v uint64) bool {
		a := Addr(64 + (uint64(off)%1000)*8)
		a &^= 7
		if a == 0 {
			a = 64
		}
		d.Store(a, v)
		f.Sync(a)
		d.Crash()
		return d.Load(a) == v
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWaitApproximatesDuration(t *testing.T) {
	start := time.Now()
	Wait(500 * time.Microsecond)
	el := time.Since(start)
	if el < 400*time.Microsecond {
		t.Fatalf("Wait(500µs) returned after %v", el)
	}
}

// TestWaitCalibrated holds the model's pause to its price: right after a
// calibration, the fastest of ten batches of 10⁵ Wait(125ns) averages within
// ±20 % of 125 ns. The fastest batch keeps a batch the scheduler interrupted
// from counting. On a shared host the cores also change speed, by up to 2×
// within a second, which no calibration made once can follow: on a 2-vCPU
// runner one attempt in five left the band, and in a noisy hour one in two.
// So an attempt out of the band is made again, after a fresh calibration,
// up to ten times. A pause priced by a clock read per loop turn measured
// 228–238 ns on that runner, in every attempt.
func TestWaitCalibrated(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds a cost to every call that a 125 ns pause cannot absorb")
	}
	const pause, lo, hi = 125 * time.Nanosecond, 100 * time.Nanosecond, 150 * time.Nanosecond
	var attempts []time.Duration
	for range 10 {
		spinRate = sync.OnceValue(calibrateSpin)
		spinRate()
		best := time.Duration(1<<63 - 1)
		for range 10 {
			start := time.Now()
			for range 100_000 {
				Wait(pause)
			}
			best = min(best, time.Since(start)/100_000)
		}
		if attempts = append(attempts, best); lo <= best && best <= hi {
			t.Logf("Wait(%v) averages %v over the fastest batch (attempts %v)", pause, best, attempts)
			return
		}
	}
	t.Fatalf("Wait(%v) averages %v over the fastest batch of each attempt, want within [%v, %v]", pause, attempts, lo, hi)
}

func TestLatencyTableShape(t *testing.T) {
	if len(LatencyTable) != 6 {
		t.Fatalf("LatencyTable rows = %d, want 6", len(LatencyTable))
	}
	if LatencyTable[4].WriteNanos <= LatencyTable[3].WriteNanos {
		t.Fatal("PCM write latency should exceed DRAM")
	}
}
