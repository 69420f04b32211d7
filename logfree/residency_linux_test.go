//go:build linux && !race

package logfree

import (
	"bytes"
	"encoding/binary"
	"os"
	"runtime"
	"strconv"
	"testing"
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

// An in-memory runtime costs memory where its pool has carved, not where its
// device reaches: opening 256 MiB makes little resident, 200k small items
// make resident about twice the pool they fill (the volatile and the
// persisted image), and every carved page lies in the device's populated
// prefix, so no fence faults a page in.
func TestResidencyFollowsTheCarvePointer(t *testing.T) {
	runtime.GC()
	base := vmRSS(t)
	rt, err := New(WithSize(256 << 20))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if grew := vmRSS(t) - base; grew > 48<<20 {
		t.Fatalf("a fresh 256 MiB runtime raised VmRSS by %d MiB", grew>>20)
	} else {
		t.Logf("a fresh 256 MiB runtime raised VmRSS by %d MiB", grew>>20)
	}
	m, err := rt.Map("kv", 1<<17)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("key:0123456789")
	val := bytes.Repeat([]byte{'v'}, 64)
	for i := uint64(0); i < 200_000; i++ {
		binary.BigEndian.PutUint64(key[6:], i)
		if err := m.Set(key, val); err != nil {
			t.Fatal(err)
		}
	}
	heapEnd := int64(rt.Store().Pool().HeapEnd())
	grew := vmRSS(t) - base
	if grew > 2*heapEnd+16<<20 {
		t.Fatalf("200k items in %d MiB of pool raised VmRSS by %d MiB", heapEnd>>20, grew>>20)
	}
	t.Logf("200k items: pool carved %d MiB, VmRSS grew %d MiB", heapEnd>>20, grew>>20)
	populated, err := rt.Device().Populated()
	if err != nil {
		t.Skipf("the kernel refused MADV_POPULATE_WRITE: %v", err)
	}
	if int64(populated) < heapEnd {
		t.Fatalf("populated %d bytes, the pool has carved %d", populated, heapEnd)
	}
}
