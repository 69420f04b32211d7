package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/nvram"
)

func TestStackLIFO(t *testing.T) {
	for _, lc := range []bool{false, true} {
		name := map[bool]string{false: "LP", true: "LC"}[lc]
		t.Run(name, func(t *testing.T) {
			s := newTestStore(t, Options{LinkCache: lc})
			c := s.MustCtx(0)
			st, err := NewStack(c)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := st.Pop(c); ok {
				t.Fatal("pop from empty stack succeeded")
			}
			for v := uint64(1); v <= 100; v++ {
				st.Push(c, v)
			}
			if got := st.Len(c); got != 100 {
				t.Fatalf("Len = %d, want 100", got)
			}
			if v, ok := st.Peek(c); !ok || v != 100 {
				t.Fatalf("Peek = %d,%v", v, ok)
			}
			for v := uint64(100); v >= 1; v-- {
				got, ok := st.Pop(c)
				if !ok || got != v {
					t.Fatalf("Pop = %d,%v want %d", got, ok, v)
				}
			}
		})
	}
}

func TestStackConcurrent(t *testing.T) {
	s := newTestStore(t, Options{LinkCache: true})
	c0 := s.MustCtx(0)
	st, _ := NewStack(c0)
	const workers, per = 8, 1500
	var wg sync.WaitGroup
	var mu sync.Mutex
	popped := make(map[uint64]bool)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := s.MustCtx(w)
			rng := rand.New(rand.NewSource(int64(w)))
			pushed := 0
			for i := 0; pushed < per; i++ {
				if rng.Intn(2) == 0 {
					st.Push(c, uint64(w)<<32|uint64(pushed))
					pushed++
				} else if v, ok := st.Pop(c); ok {
					mu.Lock()
					if popped[v] {
						t.Errorf("value %#x popped twice", v)
					}
					popped[v] = true
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	c := s.MustCtx(0)
	for {
		v, ok := st.Pop(c)
		if !ok {
			break
		}
		mu.Lock()
		if popped[v] {
			t.Fatalf("value %#x popped twice at drain", v)
		}
		popped[v] = true
		mu.Unlock()
	}
	if len(popped) != workers*per {
		t.Fatalf("popped %d values, want %d", len(popped), workers*per)
	}
}

func TestStackDurableAcrossCrash(t *testing.T) {
	dev := nvram.New(nvram.Config{Size: 16 << 20})
	s, _ := NewStore(dev, Options{MaxThreads: 2})
	c := s.MustCtx(0)
	st, _ := NewStack(c)
	for v := uint64(1); v <= 200; v++ {
		st.Push(c, v)
	}
	for i := 0; i < 50; i++ {
		st.Pop(c)
	}
	c.Shutdown()
	dev.Crash()

	s2, _ := AttachStore(dev)
	st2 := AttachStack(s2, st.Descriptor())
	RecoverStack(s2, st2, 2)
	auditSlots(t, s2, st2.Recoverer())
	c2 := s2.MustCtx(0)
	for v := uint64(150); v >= 1; v-- {
		got, ok := st2.Pop(c2)
		if !ok || got != v {
			t.Fatalf("recovered Pop = %d,%v want %d", got, ok, v)
		}
	}
	if _, ok := st2.Pop(c2); ok {
		t.Fatal("recovered stack has extra elements")
	}
}

func TestStackRecoveryFreesOrphan(t *testing.T) {
	dev := nvram.New(nvram.Config{Size: 16 << 20})
	s, _ := NewStore(dev, Options{MaxThreads: 2})
	c := s.MustCtx(0)
	st, _ := NewStack(c)
	st.Push(c, 7)
	c.ep.Begin()
	orphan, _ := c.ep.AllocNode(listClass)
	dev.Store(orphan+nKey, stackNodeTag)
	c.f.CLWB(orphan)
	c.f.Fence()
	c.ep.End()
	dev.Crash()

	s2, _ := AttachStore(dev)
	st2 := AttachStack(s2, st.Descriptor())
	stats := RecoverStack(s2, st2, 1)
	if stats.Leaked == 0 {
		t.Fatal("orphan stack node not freed")
	}
	auditSlots(t, s2, st2.Recoverer())
	c2 := s2.MustCtx(0)
	if v, ok := st2.Pop(c2); !ok || v != 7 {
		t.Fatalf("live entry damaged: %d,%v", v, ok)
	}
}
