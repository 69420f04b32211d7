package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/nvram"
)

// TestCtxGrowthBeyondMaxThreads: contexts grow past the formatted thread
// count (each grown thread backed by its own durable APT bank), operations on
// grown contexts are fully durable, and a crash recovers APT entries written
// by grown threads — their banks are found through the durable bank table.
func TestCtxGrowthBeyondMaxThreads(t *testing.T) {
	dev := nvram.New(nvram.Config{Size: 64 << 20})
	s, err := NewStore(dev, Options{MaxThreads: 1})
	if err != nil {
		t.Fatal(err)
	}
	c0 := s.MustCtx(0)
	b, err := NewBytesMap(c0, 64)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRoot(c0, RootUser+0, b.Buckets())
	s.SetRoot(c0, RootUser+1, uint64(b.NumBuckets()))
	s.SetRoot(c0, RootUser+2, b.Tail())

	const workers = 6 // 5 past the formatted single thread
	ctxs := make([]*Ctx, workers)
	ctxs[0] = c0
	for w := 1; w < workers; w++ {
		c, err := s.GrowCtx()
		if err != nil {
			t.Fatalf("GrowCtx %d: %v", w, err)
		}
		ctxs[w] = c
	}
	if got := s.Manager().NumThreads(); got < workers {
		t.Fatalf("manager grew to %d threads, want >= %d", got, workers)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := ctxs[w]
			for i := 0; i < 200; i++ {
				k := []byte(fmt.Sprintf("w%d-%04d", w, i))
				if _, err := b.Set(c, k, k, 0, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	dev.Crash()
	s2, err := AttachStore(dev)
	if err != nil {
		t.Fatal(err)
	}
	b2 := AttachBytesMap(s2, s2.Root(RootUser+0), int(s2.Root(RootUser+1)), s2.Root(RootUser+2))
	RecoverSet(s2, []Recoverer{b2.Recoverer()}, 2)
	c2 := s2.MustCtx(0)
	for w := 0; w < workers; w++ {
		for i := 0; i < 200; i++ {
			k := []byte(fmt.Sprintf("w%d-%04d", w, i))
			if v, ok := b2.Get(c2, k); !ok || string(v) != string(k) {
				t.Fatalf("key %s lost across crash (grown-thread durability): %q,%v", k, v, ok)
			}
		}
	}
	// Grown banks must survive re-attach too: a context on a high tid works.
	if _, err := s2.NewCtx(workers + 3); err != nil {
		t.Fatalf("NewCtx on grown tid after attach: %v", err)
	}
}
