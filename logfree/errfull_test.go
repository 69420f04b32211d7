package logfree_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/pmem"
	"repro/logfree"
)

// TestErrFullTaxonomy: exhausting a tiny device surfaces ErrFull (still
// wrapping the allocator's cause) through the public surface.
func TestErrFullTaxonomy(t *testing.T) {
	rt, err := logfree.New(logfree.WithSize(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.Map("full", 16)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 1024)
	var setErr error
	for i := 0; i < 4096 && setErr == nil; i++ {
		setErr = m.Set([]byte(fmt.Sprintf("k%05d", i)), val)
	}
	if !errors.Is(setErr, logfree.ErrFull) {
		t.Fatalf("exhaustion error = %v, want ErrFull", setErr)
	}
	if !errors.Is(setErr, pmem.ErrOutOfMemory) {
		t.Fatalf("ErrFull must wrap the core cause: %v", setErr)
	}
}

// TestErrFullFreshKeyAfterDeletes: a fresh key that finds no slot surfaces
// ErrFull from Set, also once deletes and a reclaim have freed some. The
// device is filled with same-hash keys and then with small distinct-hash
// keys; deleting every other same-hash key frees slots for about half as
// many fresh keys, and the next ones run out.
func TestErrFullFreshKeyAfterDeletes(t *testing.T) {
	logfree.SetHashForTesting(func(k []byte) uint64 {
		if k[0] == 'c' {
			return logfree.MinKey
		}
		return core.DefaultBytesHash(k)
	})
	defer logfree.SetHashForTesting(nil)
	rt, err := logfree.New(logfree.WithSize(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.Map("full", 16)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(prefix string, val []byte) int {
		for i := 0; ; i++ {
			if err := m.Set([]byte(fmt.Sprintf("%s%06d", prefix, i)), val); err != nil {
				if !errors.Is(err, logfree.ErrFull) {
					t.Fatalf("filling %s: %v, want ErrFull", prefix, err)
				}
				return i
			}
		}
	}
	same := fill("c", make([]byte, 100))
	fill("d", []byte{1})
	for i := 0; i < same; i += 2 {
		if !m.Delete([]byte(fmt.Sprintf("c%06d", i))) {
			t.Fatalf("c%06d missing", i)
		}
	}
	rt.Reclaim()
	var setErr error
	for i := 0; i < same && setErr == nil; i++ {
		setErr = m.Set([]byte(fmt.Sprintf("e%06d", i)), make([]byte, 100))
	}
	if !errors.Is(setErr, logfree.ErrFull) || !errors.Is(setErr, pmem.ErrOutOfMemory) {
		t.Fatalf("fresh key with no room: %v, want ErrFull wrapping pmem.ErrOutOfMemory", setErr)
	}
}
