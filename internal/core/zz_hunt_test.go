package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/epoch"
	"repro/internal/nvram"
)

// TestHuntDoubleRetire amplifies the retire/reuse race: tiny generations
// (immediate reclamation), hot keys, maximum helper overlap.
func TestHuntDoubleRetire(t *testing.T) {
	defer epoch.EnableRetireDebug()()
	for _, lc := range []bool{false, true} {
		dev := nvram.New(nvram.Config{Size: 64 << 20})
		s, err := NewStore(dev, Options{MaxThreads: 8, LinkCache: lc, EpochGenSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		c0 := s.MustCtx(0)
		h, err := NewHashTable(c0, 8)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c := s.MustCtx(w)
				rng := rand.New(rand.NewSource(int64(w) * 911))
				for i := 0; i < 60_000; i++ {
					k := uint64(rng.Intn(24)) + 1
					if rng.Intn(2) == 0 {
						h.Insert(c, k, k)
					} else {
						h.Delete(c, k)
					}
				}
			}(w)
		}
		wg.Wait()
	}
}
