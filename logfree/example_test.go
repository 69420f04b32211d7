package logfree_test

import (
	"fmt"

	"repro/logfree"
)

// The canonical lifecycle: open-or-create a byte-key map, update it,
// crash, recover, read — no per-thread handles anywhere.
func Example() {
	rt, _ := logfree.New(logfree.WithSize(32<<20), logfree.WithLinkCache(true))

	users, _ := rt.OpenOrCreate("users", logfree.Spec{Buckets: 256})
	users.Set([]byte("alice"), []byte("pro"))
	users.Set([]byte("bob"), []byte("free"))
	users.Delete([]byte("bob"))

	rt.Drain() // make deferred link-cache work durable before pulling the plug
	rt2, _ := rt.SimulateCrash()

	users2, _ := rt2.OpenOrCreate("users", logfree.Spec{})
	v, ok := users2.Get([]byte("alice"))
	fmt.Println(string(v), ok)
	fmt.Println(users2.Contains([]byte("bob")))
	// Output:
	// pro true
	// false
}

// The typed uint64 wrappers remain as thin veneers; ordered structures
// iterate in key order via range-over-func.
func ExampleBST_All() {
	rt, _ := logfree.New(logfree.WithSize(32 << 20))
	t, _ := rt.BST("scores")
	for _, k := range []uint64{30, 10, 20} {
		t.Insert(k, k*10)
	}
	for k, v := range t.All() {
		fmt.Println(k, v)
	}
	// Output:
	// 10 100
	// 20 200
	// 30 300
}

// A durable FIFO queue survives power failures with order intact.
func ExampleQueue() {
	rt, _ := logfree.New(logfree.WithSize(32 << 20))
	q, _ := rt.Queue("jobs")
	q.Enqueue(100)
	q.Enqueue(200)

	rt2, _ := rt.SimulateCrash()
	q2, _ := rt2.Queue("jobs")
	for {
		v, ok := q2.Dequeue()
		if !ok {
			break
		}
		fmt.Println(v)
	}
	// Output:
	// 100
	// 200
}
