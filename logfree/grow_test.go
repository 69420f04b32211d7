package logfree_test

// Runtime-level elastic capacity: Grow under live data, durability of grown
// state across SimulateCrash and across file reopen, and the adopt semantics
// of WithMaxSize.

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/logfree"
)

func TestRuntimeGrowMem(t *testing.T) {
	rt, err := logfree.New(logfree.WithSize(512<<10), logfree.WithMaxSize(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if got := rt.SizeBytes(); got != 512<<10 {
		t.Fatalf("SizeBytes = %d, want %d", got, 512<<10)
	}
	if got := rt.MaxSizeBytes(); got != 8<<20 {
		t.Fatalf("MaxSizeBytes = %d, want %d", got, 8<<20)
	}

	m, err := rt.Map("t", 64)
	if err != nil {
		t.Fatal(err)
	}
	// Fill past the initial capacity, growing on demand: every ErrFull is
	// recoverable by a Grow, and no write is lost across one.
	val := make([]byte, 1024)
	n := 0
	for n < 2000 {
		key := []byte(fmt.Sprintf("key-%06d", n))
		err := m.Set(key, val)
		if errors.Is(err, logfree.ErrFull) {
			if gerr := rt.Grow(rt.SizeBytes() * 2); gerr != nil {
				t.Fatalf("grow at n=%d: %v", n, gerr)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if rt.SizeBytes() <= 512<<10 {
		t.Fatal("fill of 2000×1KB entries should have forced at least one grow")
	}

	rt2, err := rt.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	if got := rt2.SizeBytes(); got != rt.SizeBytes() {
		t.Fatalf("crash lost the grown capacity: %d, want %d", got, rt.SizeBytes())
	}
	m2, err := rt2.Map("t", 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, ok := m2.Get([]byte(fmt.Sprintf("key-%06d", i))); !ok {
			t.Fatalf("key-%06d lost across crash", i)
		}
	}
}

func TestRuntimeGrowFileReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grow.pool")
	rt, err := logfree.New(logfree.WithSize(512<<10), logfree.WithMaxSize(8<<20),
		logfree.WithDevice(logfree.FileDevice(path)))
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.Map("t", 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Set([]byte("before"), []byte("grow")); err != nil {
		t.Fatal(err)
	}
	if err := rt.Grow(2 << 20); err != nil {
		t.Fatal(err)
	}
	if err := m.Set([]byte("after"), []byte("grow")); err != nil {
		t.Fatal(err)
	}
	grown := rt.SizeBytes()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with the ORIGINAL WithSize: WithMaxSize adopts the grown
	// capacity instead of erroring on the disagreement.
	rt2, err := logfree.New(logfree.WithSize(512<<10), logfree.WithMaxSize(8<<20),
		logfree.WithDevice(logfree.FileDevice(path)))
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	if !rt2.Recovered() {
		t.Fatal("reopen must recover, not reformat")
	}
	if got := rt2.SizeBytes(); got != grown {
		t.Fatalf("reopened SizeBytes = %d, want %d", got, grown)
	}
	m2, err := rt2.Map("t", 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"before", "after"} {
		if v, ok := m2.Get([]byte(k)); !ok || string(v) != "grow" {
			t.Fatalf("key %q lost across grow+reopen (ok=%v v=%q)", k, ok, v)
		}
	}
}
