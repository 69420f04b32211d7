package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func newTestOrdered(t *testing.T, s *Store, c *Ctx) *OrderedBytesMap {
	t.Helper()
	o, err := NewOrderedBytesMap(c)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestOrderedBytesMapBasics(t *testing.T) {
	s := newTestStore(t, Options{})
	c := s.MustCtx(0)
	o := newTestOrdered(t, s, c)
	if created, err := o.Set(c, []byte("k1"), []byte("v1"), 3, 77); err != nil || !created {
		t.Fatalf("Set = %v,%v", created, err)
	}
	v, meta, aux, ok := o.GetItem(c, []byte("k1"))
	if !ok || string(v) != "v1" || meta != 3 || aux != 77 {
		t.Fatalf("GetItem = %q,%d,%d,%v", v, meta, aux, ok)
	}
	if created, err := o.Set(c, []byte("k1"), []byte("longer value 1"), 4, 78); err != nil || created {
		t.Fatalf("replacing Set = %v,%v", created, err)
	}
	if v, _ := o.Get(c, []byte("k1")); string(v) != "longer value 1" {
		t.Fatalf("after replace: %q", v)
	}
	if !o.SetAux(c, []byte("k1"), 123) {
		t.Fatal("SetAux failed")
	}
	if _, _, aux, _ := o.GetItem(c, []byte("k1")); aux != 123 {
		t.Fatalf("aux = %d", aux)
	}
	if o.Len(c) != 1 {
		t.Fatalf("Len = %d", o.Len(c))
	}
	if !o.Delete(c, []byte("k1")) || o.Delete(c, []byte("k1")) {
		t.Fatal("delete semantics broken")
	}
	if o.Contains(c, []byte("k1")) {
		t.Fatal("deleted key present")
	}
	if _, err := o.Set(c, nil, []byte("v"), 0, 0); !errors.Is(err, ErrBadKey) {
		t.Fatalf("empty key: %v", err)
	}
	if _, err := o.Set(c, []byte("k"), make([]byte, 4096), 0, 0); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("huge value: %v", err)
	}
}

// orderedKeys collects an Ascend pass and asserts strict ascending order.
func orderedKeys(t *testing.T, o *OrderedBytesMap, c *Ctx) []string {
	t.Helper()
	var keys []string
	var prev []byte
	o.Ascend(c, func(k, _ []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("scan out of order: %q then %q", prev, k)
		}
		prev = append([]byte(nil), k...)
		keys = append(keys, string(k))
		return true
	})
	return keys
}

func TestOrderedBytesMapOrderAndScan(t *testing.T) {
	s := newTestStore(t, Options{})
	c := s.MustCtx(0)
	o := newTestOrdered(t, s, c)

	// Shuffled insert of keys with shared prefixes and mixed lengths.
	want := []string{"a", "aa", "ab", "abc", "ac", "b", "b\x00", "ba", "z", "zz"}
	perm := rand.New(rand.NewSource(7)).Perm(len(want))
	for _, i := range perm {
		if _, err := o.Set(c, []byte(want[i]), []byte("v:"+want[i]), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	got := orderedKeys(t, o, c)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Ascend = %v, want %v", got, want)
	}

	// Scan bounds: [aa, b) — start inclusive, end exclusive, shared-prefix
	// keys ordered bytewise.
	var got2 []string
	o.Scan(c, []byte("aa"), []byte("b"), func(k, v []byte) bool {
		if string(v) != "v:"+string(k) {
			t.Fatalf("value mismatch for %q: %q", k, v)
		}
		got2 = append(got2, string(k))
		return true
	})
	if fmt.Sprint(got2) != fmt.Sprint([]string{"aa", "ab", "abc", "ac"}) {
		t.Fatalf("Scan[aa,b) = %v", got2)
	}

	// Start between keys; open end.
	got2 = nil
	o.Scan(c, []byte("b\x00\x00"), nil, func(k, _ []byte) bool {
		got2 = append(got2, string(k))
		return true
	})
	if fmt.Sprint(got2) != fmt.Sprint([]string{"ba", "z", "zz"}) {
		t.Fatalf("Scan[b\\0\\0,∞) = %v", got2)
	}

	// Early stop.
	n := 0
	o.Scan(c, nil, nil, func(_, _ []byte) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}

	if k, v, ok := o.Min(c); !ok || string(k) != "a" || string(v) != "v:a" {
		t.Fatalf("Min = %q,%q,%v", k, v, ok)
	}
	if k, v, ok := o.Max(c); !ok || string(k) != "zz" || string(v) != "v:zz" {
		t.Fatalf("Max = %q,%q,%v", k, v, ok)
	}

	var desc []string
	o.Descend(c, func(k, _ []byte) bool { desc = append(desc, string(k)); return true })
	for i, j := 0, len(desc)-1; i < j; i, j = i+1, j-1 {
		desc[i], desc[j] = desc[j], desc[i]
	}
	if fmt.Sprint(desc) != fmt.Sprint(want) {
		t.Fatalf("Descend (reversed) = %v", desc)
	}

	// Delete min and max; Min/Max move inward.
	o.Delete(c, []byte("a"))
	o.Delete(c, []byte("zz"))
	if k, _, _ := o.Min(c); string(k) != "aa" {
		t.Fatalf("Min after delete = %q", k)
	}
	if k, _, _ := o.Max(c); string(k) != "z" {
		t.Fatalf("Max after delete = %q", k)
	}
}

// TestOrderedBytesMapSameHash forces every key onto one index hash: order
// and identity must come from the full key bytes alone.
func TestOrderedBytesMapSameHash(t *testing.T) {
	SetBytesHashForTesting(func([]byte) uint64 { return MinKey + 9 })
	defer SetBytesHashForTesting(nil)

	s := newTestStore(t, Options{LinkCache: true})
	c := s.MustCtx(0)
	o := newTestOrdered(t, s, c)
	const n = 40
	for i := n - 1; i >= 0; i-- {
		key := []byte(fmt.Sprintf("h-%03d", i))
		if _, err := o.Set(c, key, key, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	keys := orderedKeys(t, o, c)
	if len(keys) != n {
		t.Fatalf("len = %d, want %d (same-hash keys aliased?)", len(keys), n)
	}
	if !o.Delete(c, []byte("h-020")) {
		t.Fatal("delete failed")
	}
	if o.Contains(c, []byte("h-020")) || !o.Contains(c, []byte("h-021")) {
		t.Fatal("same-hash delete hit the wrong key")
	}
	if got := len(orderedKeys(t, o, c)); got != n-1 {
		t.Fatalf("len after delete = %d", got)
	}
}

func TestOrderedBytesMapCrashRecovery(t *testing.T) {
	s := newTestStore(t, Options{LinkCache: true})
	c := s.MustCtx(0)
	o := newTestOrdered(t, s, c)
	const n = 60
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("k-%03d", i))
		if _, err := o.Set(c, key, []byte(fmt.Sprintf("v-%d", i)), 0, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Rewrites and deletions that must all survive.
	o.Set(c, []byte("k-000"), []byte("first-rewrite"), 0, 0)
	o.Set(c, []byte("k-030"), []byte("mid-rewrite"), 0, 0)
	if !o.Delete(c, []byte("k-007")) || !o.Delete(c, []byte("k-059")) {
		t.Fatal("delete failed")
	}
	s.ForEachCtx(func(cx *Ctx) { cx.Shutdown() })
	head, tail := o.Head(), o.Tail()

	s2 := crashAndReattach(t, s)
	o2 := AttachOrderedBytesMap(s2, head, tail)
	RecoverOrderedBytesMap(s2, o2, 4)
	c2 := s2.MustCtx(0)

	keys := orderedKeys(t, o2, c2)
	if len(keys) != n-2 {
		t.Fatalf("keys after recovery = %d, want %d", len(keys), n-2)
	}
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("k-%03d", i))
		want := fmt.Sprintf("v-%d", i)
		switch i {
		case 0:
			want = "first-rewrite"
		case 30:
			want = "mid-rewrite"
		case 7, 59:
			if o2.Contains(c2, key) {
				t.Fatalf("deleted key %q resurrected", key)
			}
			continue
		}
		v, ok := o2.Get(c2, key)
		if !ok || string(v) != want {
			t.Fatalf("key %q after crash: %q,%v want %q", key, v, ok, want)
		}
	}
	// The recovered map serves updates (index rebuilt, sentinels intact).
	if _, err := o2.Set(c2, []byte("k-007"), []byte("back"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if v, ok := o2.Get(c2, []byte("k-007")); !ok || string(v) != "back" {
		t.Fatalf("post-recovery set: %q,%v", v, ok)
	}
}

// TestOrderedBytesMapRecoveryFreesOrphans: a fully persisted entry and an
// unlinked node (the crash landed between allocation and the level-0
// publish) must be freed by the sweep without damaging live keys.
func TestOrderedBytesMapRecoveryFreesOrphans(t *testing.T) {
	s := newTestStore(t, Options{})
	c := s.MustCtx(0)
	o := newTestOrdered(t, s, c)
	if _, err := o.Set(c, []byte("live"), []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
	// Orphan entry: persisted, in the APT, never referenced by a node.
	orphanE, err := writeBytesEntry(c, bytesHash([]byte("ghost")), []byte("ghost"), []byte("boo"), 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Orphan node: points at a second orphan entry, never linked at level 0.
	orphanE2, err := writeBytesEntry(c, bytesHash([]byte("wraith")), []byte("wraith"), []byte("woo"), 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	orphanN, err := c.ep.AllocNode(oClassFor(0))
	if err != nil {
		t.Fatal(err)
	}
	dev := s.Device()
	dev.Store(orphanN+oEntry, uint64(orphanE2))
	dev.Store(orphanN+oTop, 0)
	dev.Store(orphanN+oNext(0), 0)
	c.Flusher().CLWB(orphanN)
	c.Flusher().Fence()
	head, tail := o.Head(), o.Tail()

	s2 := crashAndReattach(t, s)
	o2 := AttachOrderedBytesMap(s2, head, tail)
	stats := RecoverOrderedBytesMap(s2, o2, 2)
	if stats.Leaked < 3 {
		t.Fatalf("leaked = %d, want >= 3 (entry, node, node's entry)", stats.Leaked)
	}
	for _, a := range []Addr{orphanE, orphanE2, orphanN} {
		if s2.Pool().SlotAllocated(a) {
			t.Fatalf("orphan %#x still allocated", a)
		}
	}
	c2 := s2.MustCtx(0)
	if v, ok := o2.Get(c2, []byte("live")); !ok || string(v) != "v" {
		t.Fatalf("live key damaged: %q,%v", v, ok)
	}
}

// TestOrderedBytesMapConcurrent: core-level smoke for concurrent writers
// plus an ordered scanner (the public-surface race test lives in logfree).
func TestOrderedBytesMapConcurrent(t *testing.T) {
	s := newTestStore(t, Options{MaxThreads: 6, LinkCache: true})
	c0 := s.MustCtx(0)
	o := newTestOrdered(t, s, c0)
	const writers = 4
	ops := 400
	if testing.Short() {
		ops = 120
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := s.MustCtx(w + 1)
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < ops; i++ {
				key := []byte(fmt.Sprintf("key-%02d", rng.Intn(24)))
				switch rng.Intn(3) {
				case 0:
					if _, err := o.Set(c, key, append(key, '#'), 0, 0); err != nil {
						t.Error(err)
						return
					}
				case 1:
					o.Delete(c, key)
				default:
					if v, ok := o.Get(c, key); ok && !bytes.HasPrefix(v, key) {
						t.Errorf("torn value for %q: %q", key, v)
						return
					}
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	cs := s.MustCtx(5)
	for {
		var prev []byte
		o.Scan(cs, nil, nil, func(k, v []byte) bool {
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				t.Errorf("concurrent scan out of order: %q then %q", prev, k)
				return false
			}
			if !bytes.HasPrefix(v, k) {
				t.Errorf("concurrent scan torn value for %q: %q", k, v)
				return false
			}
			prev = append(prev[:0], k...)
			return true
		})
		select {
		case <-done:
			return
		default:
		}
	}
}
