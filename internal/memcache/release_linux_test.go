//go:build linux && !race

package memcache

import (
	"bytes"
	"encoding/binary"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// vmRSS reads this process's resident set size in bytes.
func vmRSS(t *testing.T) int64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skipf("no /proc/self/status: %v", err)
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if f := bytes.Fields(line); len(f) == 3 && string(f[0]) == "VmRSS:" {
			kb, err := strconv.ParseInt(string(f[1]), 10, 64)
			if err != nil {
				t.Fatalf("status: %q: %v", line, err)
			}
			return kb << 10
		}
	}
	t.Skip("status has no VmRSS row")
	return 0
}

// settledRSS collects until VmRSS stops falling and returns it. Caches that
// earlier tests dropped are unmapped by finalizers that run after the
// collection finding them, so a single collection leaves a baseline that can
// still fall by hundreds of MiB. Settled means three readings in a row, 20 ms
// apart, none more than 1 MiB below the lowest before it; after limit the
// lowest reading is returned as it is.
func settledRSS(t *testing.T, limit time.Duration) int64 {
	t.Helper()
	low := vmRSS(t)
	for steady, deadline := 0, time.Now().Add(limit); steady < 3 && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
		if rss := vmRSS(t); rss < low-1<<20 {
			low, steady = rss, 0
		} else {
			low, steady = min(low, rss), steady+1
		}
	}
	return low
}

// A cache's device memory goes back to the system with the cache: Close
// unmaps it, and a cache dropped without Close is unmapped once the
// collector finds it garbage. Sixteen caches opened, preloaded and closed,
// then sixteen more dropped, leave the process within twice one preloaded
// cache.
func TestCacheMemoryIsReleased(t *testing.T) {
	key := []byte("key:0123456789")
	val := bytes.Repeat([]byte{'v'}, 64)
	preloaded := func() *Cache {
		c, err := New(Config{MemoryBytes: 256 << 20, Buckets: 1 << 14})
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 20_000; i++ {
			binary.BigEndian.PutUint64(key[6:], i)
			if err := c.Set(key, val, 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	base := settledRSS(t, 10*time.Second)
	c := preloaded()
	one := vmRSS(t) - base
	if one <= 0 {
		t.Fatalf("one preloaded cache measured %d MiB: VmRSS fell below the settled baseline while it was preloaded", one>>20)
	}
	c.Close()
	for i := 1; i < 16; i++ {
		preloaded().Close()
	}
	for i := 0; i < 16; i++ {
		preloaded()
	}
	// Finalizers run on their own goroutine after the collection that finds
	// the mappings unreachable.
	var grew int64
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		runtime.GC()
		if grew = vmRSS(t) - base; grew <= 2*one || time.Now().After(deadline) {
			break
		}
	}
	if grew > 2*one {
		t.Fatalf("after 32 caches VmRSS is up %d MiB; one preloaded cache holds %d MiB", grew>>20, one>>20)
	}
	t.Logf("one preloaded cache: %d MiB; after 32: %d MiB", one>>20, grew>>20)
}
