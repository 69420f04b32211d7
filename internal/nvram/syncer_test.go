package nvram

// The file backend's async msync pipeline: policy plumbing, the strict
// watermark contract under concurrent fences, buffered batch coalescing,
// and the Device.SyncBarrier ordering hook growth relies on.

import (
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestSyncPolicyStrings(t *testing.T) {
	for mode, want := range map[SyncMode]string{
		SyncEager: "eager", SyncStrict: "strict", SyncBuffered: "buffered",
	} {
		if got := mode.String(); got != want {
			t.Errorf("SyncMode(%d).String() = %q, want %q", mode, got, want)
		}
	}
	if d := (SyncPolicy{Mode: SyncBuffered}).staleness(); d != DefaultMaxStaleness {
		t.Errorf("zero staleness = %v, want default %v", d, DefaultMaxStaleness)
	}
	if d := (SyncPolicy{Mode: SyncBuffered, MaxStaleness: time.Second}).staleness(); d != time.Second {
		t.Errorf("explicit staleness = %v, want 1s", d)
	}
}

// Strict mode: a fence returning means the syncer's durable watermark
// covers it, under many goroutines fencing concurrently (the group-commit
// path). The assertion is indirect — every synced word must be in the
// persisted image across a reopen — plus Drain must be a no-op afterwards
// rather than a hang.
func TestFileSyncerStrictConcurrentFences(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pm.img")
	d, _, err := OpenFileDevice(path, Config{Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	fb := d.Backend().(*FileBackend)
	fb.SetSyncPolicy(SyncPolicy{Mode: SyncStrict})

	const workers, opsEach = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fl := d.NewFlusher()
			for i := 0; i < opsEach; i++ {
				a := Addr((w*opsEach + i + 1)) * LineSize
				d.Store(a, uint64(w*opsEach+i+1))
				fl.Sync(a)
			}
		}(w)
	}
	wg.Wait()
	fb.Drain() // must return immediately: everything strict-fenced is durable
	// Group commit in counts: racing fences may share an fdatasync, and none
	// is ever issued that no fence asked for.
	st := fb.SyncStats()
	if st.Tickets != workers*opsEach {
		t.Fatalf("tickets = %d, want %d", st.Tickets, workers*opsEach)
	}
	if st.Fdatasyncs < 1 || st.Fdatasyncs > st.Tickets {
		t.Fatalf("fdatasyncs = %d, want 1..%d", st.Fdatasyncs, st.Tickets)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	nd, _, err := OpenFileDevice(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	for k := 1; k <= workers*opsEach; k++ {
		if got := nd.Load(Addr(k) * LineSize); got != uint64(k) {
			t.Fatalf("strict-fenced word %d lost: %d", k, got)
		}
	}
}

// What each policy costs in storage round trips, as counts: n fences from
// one goroutine, then Drain, on a fresh file device.
func TestFileSyncerFdatasyncsPerPolicy(t *testing.T) {
	const n = 64
	run := func(p SyncPolicy) SyncStats {
		d, _, err := OpenFileDevice(filepath.Join(t.TempDir(), "pm.img"), Config{Size: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		fb := d.Backend().(*FileBackend)
		fb.SetSyncPolicy(p)
		fl := d.NewFlusher()
		for i := 1; i <= n; i++ {
			d.Store(Addr(i)*LineSize, uint64(i))
			fl.Sync(Addr(i) * LineSize)
		}
		fb.Drain()
		st := fb.SyncStats()
		if st.Tickets != n || st.Flushes == 0 {
			t.Fatalf("%v: %+v, want %d tickets and at least one flush", p.Mode, st, n)
		}
		return st
	}
	// Synced never reaches for stable storage: msync(MS_ASYNC) only.
	if st := run(SyncPolicy{Mode: SyncEager}); st.Fdatasyncs != 0 {
		t.Fatalf("eager: %+v, want no fdatasync", st)
	}
	// Strict with nobody to share with: one fdatasync per fence.
	if st := run(SyncPolicy{Mode: SyncStrict}); st.Fdatasyncs != n {
		t.Fatalf("strict: %+v, want %d fdatasyncs", st, n)
	}
	// Buffered inside its window: the fences coalesce into the flush Drain
	// pulls forward (two when Drain lands while one is already under way).
	if st := run(SyncPolicy{Mode: SyncBuffered, MaxStaleness: time.Hour}); st.Fdatasyncs < 1 || st.Fdatasyncs > 2 {
		t.Fatalf("buffered: %+v, want 1 or 2 fdatasyncs", st)
	}
}

// Buffered mode: fences return without waiting, batches coalesce across
// fences, and Drain forces the pending batch out without waiting for the
// staleness timer.
func TestFileSyncerBufferedDrain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pm.img")
	d, _, err := OpenFileDevice(path, Config{Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	fb := d.Backend().(*FileBackend)
	// An hour of staleness: if Drain (or Close) waited for the timer the
	// test would hang, so passing at all proves the urgent path works.
	fb.SetSyncPolicy(SyncPolicy{Mode: SyncBuffered, MaxStaleness: time.Hour})

	fl := d.NewFlusher()
	for i := 1; i <= 64; i++ {
		d.Store(Addr(i)*LineSize, uint64(i))
		fl.Sync(Addr(i) * LineSize)
	}
	done := make(chan struct{})
	go func() { fb.Drain(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("buffered Drain did not complete (urgent path broken)")
	}
}

// Device.SyncBarrier reaches the backend's Drain through the optional
// DrainableBackend interface — Grow's pre-commit ordering hook.
func TestDeviceSyncBarrierDrains(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pm.img")
	d, _, err := OpenFileDevice(path, Config{Size: 1 << 18, MaxSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Backend().(*FileBackend).SetSyncPolicy(SyncPolicy{Mode: SyncBuffered, MaxStaleness: time.Hour})
	fl := d.NewFlusher()
	d.Store(64, 1)
	fl.Sync(64)
	done := make(chan struct{})
	go func() { d.SyncBarrier(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("SyncBarrier did not drain the buffered syncer")
	}
	// Growth itself must also complete under an hour-staleness policy: Grow
	// drains before committing capacity.
	if err := d.Grow(1 << 19); err != nil {
		t.Fatalf("Grow under buffered policy: %v", err)
	}
}

// A mem-backed device has no drainable syncer; the barrier must be a no-op,
// not a panic.
func TestSyncBarrierMemNoop(t *testing.T) {
	d := New(Config{Size: 1 << 16})
	d.SyncBarrier()
}
