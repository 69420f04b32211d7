package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/nvram"
)

func newTestQueue(t *testing.T, s *Store, c *Ctx) *Queue {
	t.Helper()
	q, err := NewQueue(c)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestQueueFIFO(t *testing.T) {
	for _, lc := range []bool{false, true} {
		name := map[bool]string{false: "LP", true: "LC"}[lc]
		t.Run(name, func(t *testing.T) {
			s := newTestStore(t, Options{LinkCache: lc})
			c := s.MustCtx(0)
			q := newTestQueue(t, s, c)
			if _, ok := q.Dequeue(c); ok {
				t.Fatal("dequeue from empty queue succeeded")
			}
			for v := uint64(1); v <= 100; v++ {
				q.Enqueue(c, v)
			}
			if got := q.Len(c); got != 100 {
				t.Fatalf("Len = %d, want 100", got)
			}
			if v, ok := q.Peek(c); !ok || v != 1 {
				t.Fatalf("Peek = %d,%v", v, ok)
			}
			for v := uint64(1); v <= 100; v++ {
				got, ok := q.Dequeue(c)
				if !ok || got != v {
					t.Fatalf("Dequeue = %d,%v want %d", got, ok, v)
				}
			}
			if _, ok := q.Dequeue(c); ok {
				t.Fatal("queue not empty after draining")
			}
		})
	}
}

func TestQueueInterleaved(t *testing.T) {
	s := newTestStore(t, Options{})
	c := s.MustCtx(0)
	q := newTestQueue(t, s, c)
	rng := rand.New(rand.NewSource(5))
	var model []uint64
	next := uint64(1)
	for i := 0; i < 5000; i++ {
		if rng.Intn(2) == 0 || len(model) == 0 {
			q.Enqueue(c, next)
			model = append(model, next)
			next++
		} else {
			v, ok := q.Dequeue(c)
			if !ok || v != model[0] {
				t.Fatalf("Dequeue = %d,%v want %d", v, ok, model[0])
			}
			model = model[1:]
		}
	}
	if q.Len(c) != len(model) {
		t.Fatalf("Len = %d, model %d", q.Len(c), len(model))
	}
}

// TestQueueConcurrentMPMC: producers tag values with their id and a
// per-producer sequence; consumers verify per-producer order (the MPMC FIFO
// invariant) and that nothing is lost or duplicated.
func TestQueueConcurrentMPMC(t *testing.T) {
	for _, lc := range []bool{false, true} {
		name := map[bool]string{false: "LP", true: "LC"}[lc]
		t.Run(name, func(t *testing.T) {
			s := newTestStore(t, Options{LinkCache: lc})
			c0 := s.MustCtx(0)
			q := newTestQueue(t, s, c0)
			const producers, consumers, perProducer = 4, 4, 2000
			var wg sync.WaitGroup
			results := make([][]uint64, consumers)
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					c := s.MustCtx(p)
					for i := 0; i < perProducer; i++ {
						q.Enqueue(c, uint64(p)<<32|uint64(i))
					}
				}(p)
			}
			var consumed sync.WaitGroup
			stop := make(chan struct{})
			for k := 0; k < consumers; k++ {
				consumed.Add(1)
				go func(k int) {
					defer consumed.Done()
					c := s.MustCtx(producers + k)
					for {
						v, ok := q.Dequeue(c)
						if ok {
							results[k] = append(results[k], v)
							continue
						}
						select {
						case <-stop:
							for { // drain stragglers
								v, ok := q.Dequeue(c)
								if !ok {
									return
								}
								results[k] = append(results[k], v)
							}
						default:
						}
					}
				}(k)
			}
			wg.Wait()
			close(stop)
			consumed.Wait()

			seen := make(map[uint64]bool)
			lastSeq := make([]int, producers)
			for p := range lastSeq {
				lastSeq[p] = -1
			}
			total := 0
			for k := range results {
				perProd := make([]int, producers)
				for p := range perProd {
					perProd[p] = -1
				}
				for _, v := range results[k] {
					if seen[v] {
						t.Fatalf("value %#x consumed twice", v)
					}
					seen[v] = true
					p, i := int(v>>32), int(v&0xFFFFFFFF)
					if i <= perProd[p] {
						t.Fatalf("consumer %d saw producer %d out of order: %d after %d",
							k, p, i, perProd[p])
					}
					perProd[p] = i
					total++
				}
			}
			if total != producers*perProducer {
				t.Fatalf("consumed %d values, want %d", total, producers*perProducer)
			}
		})
	}
}

func TestQueueDurableAcrossCrash(t *testing.T) {
	dev := nvram.New(nvram.Config{Size: 32 << 20})
	s, _ := NewStore(dev, Options{MaxThreads: 2})
	c := s.MustCtx(0)
	q := newTestQueue(t, s, c)
	for v := uint64(1); v <= 300; v++ {
		q.Enqueue(c, v)
	}
	for v := uint64(1); v <= 120; v++ {
		q.Dequeue(c)
	}
	c.Shutdown()
	dev.Crash()

	s2, err := AttachStore(dev)
	if err != nil {
		t.Fatal(err)
	}
	q2 := AttachQueue(s2, q.Descriptor())
	RecoverQueue(s2, q2, 2)
	auditSlots(t, s2, q2.Recoverer())
	c2 := s2.MustCtx(0)
	if got := q2.Len(c2); got != 180 {
		t.Fatalf("recovered Len = %d, want 180", got)
	}
	for v := uint64(121); v <= 300; v++ {
		got, ok := q2.Dequeue(c2)
		if !ok || got != v {
			t.Fatalf("recovered Dequeue = %d,%v want %d", got, ok, v)
		}
	}
}

func TestQueueRecoveryFreesOrphan(t *testing.T) {
	dev := nvram.New(nvram.Config{Size: 16 << 20})
	s, _ := NewStore(dev, Options{MaxThreads: 2})
	c := s.MustCtx(0)
	q := newTestQueue(t, s, c)
	q.Enqueue(c, 7)
	// Orphan a would-be queue node: allocated and durable, never linked.
	c.ep.Begin()
	orphan, _ := c.ep.AllocNode(listClass)
	dev.Store(orphan+nKey, queueNodeTag)
	c.f.CLWB(orphan)
	c.f.Fence()
	c.ep.End()
	dev.Crash()

	s2, _ := AttachStore(dev)
	q2 := AttachQueue(s2, q.Descriptor())
	stats := RecoverQueue(s2, q2, 1)
	if stats.Leaked == 0 {
		t.Fatal("orphan queue node not freed")
	}
	auditSlots(t, s2, q2.Recoverer())
	c2 := s2.MustCtx(0)
	if v, ok := q2.Dequeue(c2); !ok || v != 7 {
		t.Fatalf("live entry damaged: %d,%v", v, ok)
	}
}

func TestQueueCrashMidStream(t *testing.T) {
	// Crash-after-every-op durability, LP mode (cf. the list variant).
	dev := nvram.New(nvram.Config{Size: 32 << 20})
	s, _ := NewStore(dev, Options{MaxThreads: 1})
	c := s.MustCtx(0)
	q := newTestQueue(t, s, c)
	var model []uint64
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 150; i++ {
		if rng.Intn(2) == 0 || len(model) == 0 {
			v := uint64(i) + 1
			q.Enqueue(c, v)
			model = append(model, v)
		} else {
			v, ok := q.Dequeue(c)
			if !ok || v != model[0] {
				t.Fatalf("Dequeue = %d,%v want %d", v, ok, model[0])
			}
			model = model[1:]
		}
		if i%25 != 0 {
			continue
		}
		img := crashClone(t, dev)
		s2, err := AttachStore(img)
		if err != nil {
			t.Fatal(err)
		}
		q2 := AttachQueue(s2, q.Descriptor())
		RecoverQueue(s2, q2, 1)
		c2 := s2.MustCtx(0)
		for _, want := range model {
			got, ok := q2.Dequeue(c2)
			if !ok || got != want {
				t.Fatalf("op %d: crashed queue Dequeue = %d,%v want %d", i, got, ok, want)
			}
		}
		if _, ok := q2.Dequeue(c2); ok {
			t.Fatalf("op %d: crashed queue has extra elements", i)
		}
	}
}
