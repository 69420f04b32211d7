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
	runtime.GC()
	base := vmRSS(t)
	c := preloaded()
	one := vmRSS(t) - base
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
