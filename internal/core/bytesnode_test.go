package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/nvram"
	"repro/internal/pmem"
	"repro/internal/ptrtag"
)

// classZeroPages counts the carved allocator pages of class 0, the class of
// sentinels and uint64 list nodes.
func classZeroPages(s *Store) int {
	pool, n := s.Pool(), 0
	for page := pmem.HeapStart; page < pool.HeapEnd(); {
		cl, _, ok, next := pool.HeapPage(page)
		if ok && cl == 0 {
			n++
		}
		page = next
	}
	return n
}

// TestOneObjectPerKeyAllocs: a byte map's item is one durable object, its
// entry extent. A fresh key's Set allocates exactly that extent, and so does
// a replace; no class-0 page is carved for keys beyond the tail sentinel's.
func TestOneObjectPerKeyAllocs(t *testing.T) {
	s := newTestStore(t, Options{})
	c := s.MustCtx(0)
	b := newTestBytesMap(t, s, c, 1<<10)
	pages := classZeroPages(s)
	allocs := func() uint64 { return s.Pool().Stats().Allocs }
	const n = 2000
	key := func(i int) []byte { return []byte(fmt.Sprintf("one-object-%05d", i)) }
	for _, row := range []struct {
		what string
		meta uint16
	}{{"fresh key", 0}, {"replace", 1}} {
		for i := 0; i < n; i++ {
			before := allocs()
			if _, err := b.Set(c, key(i), []byte("value"), row.meta, 0); err != nil {
				t.Fatal(err)
			}
			if got := allocs() - before; got != 1 {
				t.Fatalf("Set (%s) of %s made %d allocations, want 1", row.what, key(i), got)
			}
		}
	}
	if got := classZeroPages(s); got != pages {
		t.Fatalf("%d keys carved %d class-0 pages beyond the map's own %d", n, got-pages, pages)
	}
}

// TestReplaceRacesSameBucketNeighbours: a replace takes its entry's place in
// a bucket list that other keys' writers change at the same time, without
// the replaced key's stripe. One goroutine replaces key A in a loop while
// others insert and delete keys that sort just after A in the same bucket —
// A's own hash with larger key bytes, and the next few hashes — so inserts
// land right after A and A's successor is unlinked while A is being
// replaced. A reader checks that A is never absent, and at the end every key
// is as its writer left it.
func TestReplaceRacesSameBucketNeighbours(t *testing.T) {
	const hashA = MinKey + 1000
	SetBytesHashForTesting(func(k []byte) uint64 {
		if k[0] == 'A' {
			return hashA
		}
		return hashA + 1 + uint64(k[len(k)-1]%3)
	})
	defer SetBytesHashForTesting(nil)
	replaces, ops := 4000, 4000
	if testing.Short() {
		replaces, ops = 1000, 1000
	}
	const writers, keysPerWriter = 3, 2
	for _, lc := range []bool{false, true} {
		t.Run(fmt.Sprintf("linkcache=%v", lc), func(t *testing.T) {
			// A write latency holds each replace between its staging and its
			// publish for a while: that is the window the neighbours hit.
			s, err := NewStore(nvram.New(nvram.Config{Size: 64 << 20, WriteLatency: time.Microsecond}),
				Options{MaxThreads: 8, LinkCache: lc})
			if err != nil {
				t.Fatal(err)
			}
			b := newTestBytesMap(t, s, s.MustCtx(0), 1) // one bucket: every key shares A's list
			if _, err := b.Set(s.MustCtx(0), []byte("A"), []byte("a-start"), 0, 0); err != nil {
				t.Fatal(err)
			}
			var (
				wg     sync.WaitGroup
				done   = make(chan struct{})
				models = make([]map[string]string, writers)
				errs   = make(chan error, writers+2) // at most one per goroutine
			)
			wg.Add(1)
			go func() { // the replacer
				defer wg.Done()
				defer close(done)
				c := s.MustCtx(1)
				for i := 0; i < replaces; i++ {
					if created, err := b.Set(c, []byte("A"), []byte(fmt.Sprintf("a-%d", i)), 0, 0); err != nil || created {
						errs <- fmt.Errorf("replace %d of A: created=%v err=%v", i, created, err)
						return
					}
				}
			}()
			wg.Add(1)
			go func() { // the reader
				defer wg.Done()
				c := s.MustCtx(2)
				for {
					select {
					case <-done:
						return
					default:
					}
					if _, ok := b.Get(c, []byte("A")); !ok {
						errs <- fmt.Errorf("A was absent while being replaced")
						return
					}
				}
			}()
			for w := 0; w < writers; w++ {
				models[w] = map[string]string{}
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					c := s.MustCtx(3 + w)
					rng := rand.New(rand.NewSource(int64(w) + 1))
					model := models[w]
					for i := 0; i < ops; i++ {
						// Half the keys share A's hash and sort after "A";
						// the others take the next three hashes.
						k := fmt.Sprintf("n%d-%d", w, rng.Intn(keysPerWriter))
						if rng.Intn(2) == 0 {
							k = "A" + k
						}
						if _, present := model[k]; present && rng.Intn(2) == 0 {
							if !b.Delete(c, []byte(k)) {
								errs <- fmt.Errorf("delete of present %s failed", k)
								return
							}
							delete(model, k)
							continue
						}
						v := fmt.Sprintf("%s=%d", k, i)
						if _, err := b.Set(c, []byte(k), []byte(v), 0, 0); err != nil {
							errs <- err
							return
						}
						model[k] = v
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			c := s.MustCtx(0)
			if v, ok := b.Get(c, []byte("A")); !ok || string(v) != fmt.Sprintf("a-%d", replaces-1) {
				t.Fatalf("A = %q,%v after %d replaces", v, ok, replaces)
			}
			want := 1
			for w, model := range models {
				want += len(model)
				for i := 0; i < keysPerWriter; i++ {
					for _, k := range []string{fmt.Sprintf("n%d-%d", w, i), fmt.Sprintf("An%d-%d", w, i)} {
						v, ok := b.Get(c, []byte(k))
						mv, mok := model[k]
						if ok != mok || string(v) != mv {
							t.Fatalf("%s = %q,%v, its writer left %q,%v", k, v, ok, mv, mok)
						}
					}
				}
			}
			if got := b.Len(c); got != want {
				t.Fatalf("Len = %d, want %d", got, want)
			}
		})
	}
}

// TestRecoveryClearsLeftoverFreeze: a crash inside a replace, after the
// replaced entry's link was frozen, leaves the freeze in the image. The
// entry is still the key's binding; recovery keeps it and clears the freeze,
// so inserts after it and the unlink of its successor go through again.
func TestRecoveryClearsLeftoverFreeze(t *testing.T) {
	SetBytesHashForTesting(func(k []byte) uint64 { return MinKey + 7 })
	defer SetBytesHashForTesting(nil)
	s := newTestStore(t, Options{})
	c := s.MustCtx(0)
	b := newTestBytesMap(t, s, c, 1)
	for _, k := range []string{"a", "c"} {
		if _, err := b.Set(c, []byte(k), []byte("v-"+k), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	// The replace of "a" as far as its freeze: pre-retired, link tagged, and
	// the tag written back.
	a, ok := b.Find(c, []byte("a"))
	if !ok {
		t.Fatal("a missing")
	}
	c.ep.Begin()
	c.ep.PreRetire(a)
	c.ep.End()
	w := s.dev.Load(a + nNext)
	s.dev.Store(a+nNext, w|ptrtag.Tag)
	c.sync(a + nNext)
	desc := [3]uint64{b.Buckets(), uint64(b.NumBuckets()), b.Tail()}

	s2 := crashAndReattach(t, s)
	b2 := AttachBytesMap(s2, desc[0], int(desc[1]), desc[2])
	RecoverBytesMap(s2, b2, 1)
	if ptrtag.IsTagged(s2.dev.Load(a + nNext)) {
		t.Fatal("recovery kept the entry but left its freeze")
	}
	c2 := s2.MustCtx(0)
	if _, err := b2.Set(c2, []byte("b"), []byte("v-b"), 0, 0); err != nil { // links after "a"
		t.Fatal(err)
	}
	if !b2.Delete(c2, []byte("b")) || !b2.Delete(c2, []byte("c")) {
		t.Fatal("delete after recovery failed")
	}
	if v, ok := b2.Get(c2, []byte("a")); !ok || string(v) != "v-a" {
		t.Fatalf("a after recovery: %q,%v", v, ok)
	}
	if got := b2.Len(c2); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
}
