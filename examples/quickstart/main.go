// Quickstart: create a durable byte-key map on simulated NVRAM, update it,
// power-fail the machine, recover, and observe that every completed
// operation survived — the paper's durable linearizability guarantee, with
// zero logging in the data-structure operations.
package main

import (
	"fmt"
	"log"

	"repro/logfree"
)

func main() {
	// 64 MiB of simulated NVRAM, link cache enabled (§4). No thread plumbing:
	// operations draw implicit sessions, which grow with demand.
	rt, err := logfree.New(
		logfree.WithSize(64<<20),
		logfree.WithLinkCache(true),
	)
	if err != nil {
		log.Fatal(err)
	}

	users, err := rt.OpenOrCreate("users", logfree.Spec{Buckets: 1024})
	if err != nil {
		log.Fatal(err)
	}

	// Arbitrary byte keys and values, durably linearizable: once Set
	// returns (and any link cache entries are flushed by dependent
	// operations), a crash cannot undo it.
	for id := 1; id <= 100; id++ {
		key := fmt.Sprintf("user:%03d", id)
		val := fmt.Sprintf(`{"id":%d,"credits":%d}`, id, id*1000)
		if err := users.Set([]byte(key), []byte(val)); err != nil {
			log.Fatal(err)
		}
	}
	users.Delete([]byte("user:042"))
	fmt.Printf("before crash: %d users\n", users.Len())

	// With the link cache, an update's durability may be deferred until a
	// dependent operation flushes it (§4.1: the client considers the
	// operation complete once the cache is flushed). Drain makes every
	// completed update durable before we pull the plug deliberately.
	rt.Drain()

	// Power failure: everything in the simulated CPU cache that was not
	// written back is lost; recovery sweeps the active pages for leaks.
	rt2, err := rt.SimulateCrash()
	if err != nil {
		log.Fatal(err)
	}
	for _, rep := range rt2.RecoveryReports() {
		fmt.Printf("recovered %v %q\n", rep.Kind, rep.Name)
	}
	st := rt2.RecoveryStats()
	fmt.Printf("recovery pass: %v, %d leaked objects freed\n", st.Duration, st.Leaked)

	users2, err := rt2.OpenOrCreate("users", logfree.Spec{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after recovery: %d users\n", users2.Len())
	if v, ok := users2.Get([]byte("user:007")); ok {
		fmt.Printf("user:007 -> %s\n", v)
	}
	if users2.Contains([]byte("user:042")) {
		log.Fatal("deleted user resurrected!")
	}
	fmt.Println("deleted user stayed deleted — durable linearizability holds")
}
