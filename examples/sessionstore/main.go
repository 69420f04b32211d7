// sessionstore: a durable web-session store — the kind of small, hot,
// update-heavy structure the paper's introduction motivates. Two durable
// structures share one NVRAM runtime: a hash table mapping session id →
// user, and a skip list ordered by expiry time for cheap expiration sweeps.
// Eight goroutines churn sessions concurrently; then the machine "dies" and
// the store comes back with every completed login intact.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"

	"repro/logfree"
)

const (
	workers           = 8
	sessionsPerWorker = 500
)

func main() {
	rt, err := logfree.New(
		logfree.WithSize(128<<20),
		logfree.WithLinkCache(true),
	)
	if err != nil {
		log.Fatal(err)
	}
	sessions, err := rt.HashTable("sessions", 4096)
	if err != nil {
		log.Fatal(err)
	}
	byExpiry, err := rt.SkipList("by-expiry")
	if err != nil {
		log.Fatal(err)
	}

	// Concurrent login/logout churn. Session ids partition by worker; the
	// expiry index is shared and contended.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < sessionsPerWorker; i++ {
				sid := uint64(w)<<32 | uint64(i) + 1
				expiry := uint64(1_000_000) + uint64(rng.Intn(86_400))<<20 | sid&0xFFFFF
				sessions.Insert(sid, uint64(w)*10_000+uint64(i))
				byExpiry.Insert(expiry, sid)
				if i%3 == 0 { // a third of the sessions log out again
					sessions.Delete(sid)
					byExpiry.Delete(expiry)
				}
			}
		}(w)
	}
	wg.Wait()
	fmt.Printf("live sessions before crash: %d (expiry index: %d)\n",
		sessions.Len(), byExpiry.Len())

	// Expire the 100 oldest sessions via the ordered index.
	type pair struct{ exp, sid uint64 }
	var oldest []pair
	for exp, sid := range byExpiry.All() {
		oldest = append(oldest, pair{exp, sid})
		if len(oldest) >= 100 {
			break
		}
	}
	for _, p := range oldest {
		sessions.Delete(p.sid)
		byExpiry.Delete(p.exp)
	}
	fmt.Printf("expired %d sessions; live: %d\n", len(oldest), sessions.Len())
	// Flush the link cache so "completed" means durable (§4.1) before the
	// deliberate power failure; without this, the last few buffered updates
	// would be legitimately lost (their callers' operations are not
	// considered complete until flushed).
	rt.Drain()
	want := sessions.Len()

	// Power failure + recovery.
	rt2, err := rt.SimulateCrash()
	if err != nil {
		log.Fatal(err)
	}
	sessions2, err := rt2.HashTable("sessions", 4096)
	if err != nil {
		log.Fatal(err)
	}
	byExpiry2, err := rt2.SkipList("by-expiry")
	if err != nil {
		log.Fatal(err)
	}
	got := sessions2.Len()
	fmt.Printf("live sessions after recovery: %d (expiry index: %d)\n",
		got, byExpiry2.Len())
	if got != want {
		log.Fatalf("lost sessions in the crash: want %d, got %d", want, got)
	}
	for _, rep := range rt2.RecoveryReports() {
		fmt.Printf("  recovered %v %q\n", rep.Kind, rep.Name)
	}
	st := rt2.RecoveryStats()
	fmt.Printf("  one combined sweep: %v, %d leaked objects freed\n", st.Duration, st.Leaked)
	fmt.Println("every completed login survived the power failure")
}
