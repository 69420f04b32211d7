package logfree_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/logfree"
)

// TestOrderedMapPublicSurface: OpenOrCreate with KindOrderedMap hands out a
// Map that satisfies OrderedMap, and a name keeps the kind it was created
// under. The ordered queries themselves are TestMapContract's.
func TestOrderedMapPublicSurface(t *testing.T) {
	rt, err := logfree.New(logfree.WithSize(32 << 20))
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.OpenOrCreate("scores", logfree.Spec{Kind: logfree.KindOrderedMap})
	if err != nil {
		t.Fatal(err)
	}
	om, ok := m.(logfree.OrderedMap)
	if !ok {
		t.Fatal("KindOrderedMap Map does not satisfy OrderedMap")
	}
	if m.Kind() != logfree.KindOrderedMap || m.Name() != "scores" {
		t.Fatalf("Kind/Name = %v/%q", m.Kind(), m.Name())
	}
	for _, k := range []string{"delta", "alpha", "charlie", "bravo", "echo"} {
		if err := om.Set([]byte(k), []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for k := range om.Scan([]byte("b"), []byte("d")) {
		got = append(got, string(k))
	}
	if fmt.Sprint(got) != fmt.Sprint([]string{"bravo", "charlie"}) {
		t.Fatalf("Scan[b,d) = %v", got)
	}

	// Opening the same name under a different kind fails.
	if _, err := rt.OpenOrCreate("scores", logfree.Spec{Kind: logfree.KindMap}); !errors.Is(err, logfree.ErrKindMismatch) {
		t.Fatalf("kind mismatch not detected: %v", err)
	}
}

func TestOrderedMapCrashRecovery(t *testing.T) {
	rt, err := logfree.New(logfree.WithSize(32<<20), logfree.WithLinkCache(true), logfree.WithMaxThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	om, err := rt.OrderedMap("sessions")
	if err != nil {
		t.Fatal(err)
	}
	// A sibling hash map shares the store: the combined sweep must keep
	// both structures' objects apart.
	bm, err := rt.Map("blobs", 64)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("s-%03d", i))
		if err := om.Set(k, []byte(fmt.Sprintf("ov-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := bm.Set(k, []byte(fmt.Sprintf("bv-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	om.Delete([]byte("s-010"))
	rt.Drain() // make deferred link-cache work durable before pulling the plug

	rt2, err := rt.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	om2, err := rt2.OrderedMap("sessions")
	if err != nil {
		t.Fatal(err)
	}
	bm2, err := rt2.Map("blobs", 64)
	if err != nil {
		t.Fatal(err)
	}
	var prev []byte
	count := 0
	for k := range om2.Ascend() {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("post-crash scan out of order: %q then %q", prev, k)
		}
		prev = append(prev[:0], k...)
		count++
	}
	if count != n-1 {
		t.Fatalf("ordered keys after crash = %d, want %d", count, n-1)
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("s-%03d", i))
		if v, ok := bm2.Get(k); !ok || string(v) != fmt.Sprintf("bv-%d", i) {
			t.Fatalf("sibling hash map damaged at %q: %q,%v", k, v, ok)
		}
		v, ok := om2.Get(k)
		if i == 10 {
			if ok {
				t.Fatal("deleted ordered key resurrected")
			}
			continue
		}
		if !ok || string(v) != fmt.Sprintf("ov-%d", i) {
			t.Fatalf("ordered key %q after crash: %q,%v", k, v, ok)
		}
	}
}

// TestSkipListSeekVeneer exercises the typed uint64 skip-list iteration
// plumbing exposed on the public surface.
func TestSkipListSeekVeneer(t *testing.T) {
	rt, err := logfree.New()
	if err != nil {
		t.Fatal(err)
	}
	sl, err := rt.SkipList("sl")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{5, 10, 15} {
		sl.Insert(k, k+1)
	}
	if k, v, ok := sl.SeekGE(7); !ok || k != 10 || v != 11 {
		t.Fatalf("SeekGE = %d,%d,%v", k, v, ok)
	}
	if k, _, ok := sl.Succ(10); !ok || k != 15 {
		t.Fatalf("Succ = %d,%v", k, ok)
	}
	var got []uint64
	for k := range sl.Scan(5, 15) {
		got = append(got, k)
	}
	if fmt.Sprint(got) != fmt.Sprint([]uint64{5, 10}) {
		t.Fatalf("Scan = %v", got)
	}
}
