package logfree

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/epoch"
)

// TestBoundedContexts: 64 goroutines share a runtime formatted with two
// operation contexts. They run mixed Sets, Gets and Deletes, and iterate a
// hash map and an ordered map with loop bodies that operate on the same
// runtime. An iterator that held its context across a yield would leave
// such bodies waiting for a context only another waiting body could return,
// so the run must finish before its deadline, and the pool must never have
// more than its two contexts out.
func TestBoundedContexts(t *testing.T) {
	rt, err := New(WithSize(16<<20), WithMaxThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	if n := rt.Sessions(); n != 2 {
		t.Fatalf("runtime has %d contexts, want 2", n)
	}
	m, err := rt.Map("hash", 256)
	if err != nil {
		t.Fatal(err)
	}
	om, err := rt.OrderedMap("ordered")
	if err != nil {
		t.Fatal(err)
	}
	const keys = 200
	key := func(i int) []byte { return fmt.Appendf(nil, "k-%04d", i%keys) }
	for i := 0; i < keys; i++ {
		if err := m.Set(key(i), key(i)); err != nil {
			t.Fatal(err)
		}
		if err := om.Set(key(i), key(i)); err != nil {
			t.Fatal(err)
		}
	}

	var maxOut atomic.Int64
	sample := func() {
		n := int64(rt.pool.out())
		for cur := maxOut.Load(); n > cur && !maxOut.CompareAndSwap(cur, n); cur = maxOut.Load() {
		}
	}

	// body is a loop body that calls back into the runtime.
	body := func(w, i int, k []byte) bool {
		sample()
		if _, ok := m.Get(k); !ok && i%2 == 0 {
			_ = om.Set(key(w+i), k)
		} else {
			om.Get(k)
		}
		return i < 40
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for w := 0; w < 64; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					k := key(w*31 + i)
					switch i % 8 {
					case 0:
						n := 0
						for k := range m.All() {
							if n++; !body(w, n, k) {
								break
							}
						}
					case 1:
						n := 0
						for k := range om.Scan(nil, nil) {
							if n++; !body(w, n, k) {
								break
							}
						}
					case 2:
						n := 0
						for k := range om.Descend() {
							if n++; !body(w, n, k) {
								break
							}
						}
					case 3:
						m.Delete(k)
						om.Delete(k)
					default:
						if err := m.Set(k, k); err != nil {
							t.Error(err)
							return
						}
						m.Get(k)
						om.Get(k)
						sample()
					}
				}
			}(w)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		// The runtime stays open: closing it would fail the waiters with
		// panics that bury this message.
		t.Fatal("goroutines still waiting for an operation context after 60s")
	}
	defer rt.Close()
	if n := maxOut.Load(); n > 2 {
		t.Fatalf("the pool showed %d contexts out at once; it has 2", n)
	}
	if out := rt.pool.out(); out != 0 {
		t.Fatalf("%d contexts still out after every operation returned", out)
	}
}

// TestCloseWakesWaiters: an operation waiting for a context fails with
// ErrClosed when the runtime closes.
func TestCloseWakesWaiters(t *testing.T) {
	rt, err := New(WithSize(16<<20), WithMaxThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.Map("m", 64)
	if err != nil {
		t.Fatal(err)
	}
	held := rt.acquire()
	got := make(chan error, 1)
	go func() { got <- m.Set([]byte("k"), []byte("v")) }()
	for rt.pool.wait.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("waiting Set returned %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close left the waiting Set parked")
	}
	rt.release(held)
}

// TestDefaultContexts: left unset, the context count is 2 × GOMAXPROCS, and
// on a device too small to give their durable tables an eighth of itself,
// as many as fit there: a small device formats on a many-core machine.
func TestDefaultContexts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	rt, err := New(WithSize(16 << 20))
	if err != nil {
		t.Fatal(err)
	}
	if n := rt.Sessions(); n != 6 {
		t.Fatalf("16 MiB runtime at GOMAXPROCS 3 has %d contexts, want 6", n)
	}
	rt.Close()
	runtime.GOMAXPROCS(64)
	rt, err = New(WithSize(512 << 10))
	if err != nil {
		t.Fatalf("512 KiB runtime at GOMAXPROCS 64: %v", err)
	}
	if n, want := rt.Sessions(), 512<<10/8/epoch.ThreadBytes; n != want {
		t.Fatalf("512 KiB runtime at GOMAXPROCS 64 has %d contexts, want %d", n, want)
	}
	rt.Close()
}

// TestContextsSurviveDroppedHints: a context whose hint a GC dropped is still
// found in its slot. Every context is taken and then every one released,
// with two GCs (which empty a sync.Pool) between the steps; each round takes
// all of them without waiting and leaves none out.
func TestContextsSurviveDroppedHints(t *testing.T) {
	rt, err := New(WithSize(16<<20), WithMaxThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	n := rt.Sessions()
	for round := 0; round < 2; round++ {
		held := make(map[int]bool)
		var ctxs []*core.Ctx
		for i := 0; i < n; i++ {
			c := rt.pool.pop()
			if c == nil {
				t.Fatalf("round %d: context %d of %d not found idle", round, i+1, n)
			}
			if held[c.Tid()] {
				t.Fatalf("round %d: context %d taken twice", round, c.Tid())
			}
			held[c.Tid()] = true
			ctxs = append(ctxs, c)
			runtime.GC()
			runtime.GC()
		}
		if c := rt.pool.pop(); c != nil {
			t.Fatalf("round %d: took context %d with all %d out", round, c.Tid(), n)
		}
		for _, c := range ctxs {
			rt.release(c)
			runtime.GC()
			runtime.GC()
		}
		if out := rt.pool.out(); out != 0 {
			t.Fatalf("round %d: %d contexts out after every one was released", round, out)
		}
	}
}

// TestLoneGoroutineUsesContextZero: operations from a single goroutine all
// run on tid 0's context, the one that formatted the directory, whether or
// not a GC dropped the pool's hints in between.
func TestLoneGoroutineUsesContextZero(t *testing.T) {
	rt, err := New(WithSize(16<<20), WithMaxThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	for i := 0; i < 1000; i++ {
		c := rt.acquire()
		tid := c.Tid()
		rt.release(c)
		if tid != 0 {
			t.Fatalf("acquire %d ran on context %d, want 0", i, tid)
		}
		if i%50 == 0 {
			runtime.GC()
		}
	}
}
