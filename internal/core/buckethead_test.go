package core

// Crash tests of the bucket array's layout: one 8-byte link word per bucket,
// eight to a cache line (hash.go). The format must write back every line the
// words cover, a partial last line included, and store nothing but the link
// words; an operation on one bucket must leave its line-mates' links intact
// whatever the crash keeps of the shared line.

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/nvram"
)

// bucketMap puts the byte map and the uint64 table behind one surface, keyed
// by integers: the byte map stores key k under its decimal bytes, and value v
// as decimal bytes too.
type bucketMap interface {
	array() bucketArray
	recoverer() Recoverer
	set(c *Ctx, k, v uint64) error // insert or replace
	get(c *Ctx, k uint64) (uint64, bool)
	del(c *Ctx, k uint64) bool
}

type bmBytes struct{ b *BytesMap }

func (m bmBytes) array() bucketArray   { return m.b.bucketArray }
func (m bmBytes) recoverer() Recoverer { return m.b.Recoverer() }
func (m bmBytes) set(c *Ctx, k, v uint64) error {
	_, err := m.b.Set(c, strconv.AppendUint(nil, k, 10), strconv.AppendUint(nil, v, 10), 0, 0)
	return err
}
func (m bmBytes) get(c *Ctx, k uint64) (uint64, bool) {
	v, ok := m.b.Get(c, strconv.AppendUint(nil, k, 10))
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(string(v), 10, 64)
	return n, err == nil
}
func (m bmBytes) del(c *Ctx, k uint64) bool { return m.b.Delete(c, strconv.AppendUint(nil, k, 10)) }

type bmTable struct{ h *HashTable }

func (m bmTable) array() bucketArray                  { return m.h.bucketArray }
func (m bmTable) recoverer() Recoverer                { return m.h.Recoverer() }
func (m bmTable) set(c *Ctx, k, v uint64) error       { m.h.Upsert(c, k, v); return nil }
func (m bmTable) get(c *Ctx, k uint64) (uint64, bool) { return m.h.Search(c, k) }
func (m bmTable) del(c *Ctx, k uint64) bool           { _, ok := m.h.Delete(c, k); return ok }

// bucketKinds are the two users of bucketArray (the durable directory is a
// byte map).
var bucketKinds = []struct {
	name   string
	create func(c *Ctx, nbuckets int) (bucketMap, error)
	attach func(s *Store, a bucketArray) bucketMap
}{
	{"bytes",
		func(c *Ctx, n int) (bucketMap, error) {
			b, err := NewBytesMap(c, n)
			if err != nil {
				return nil, err
			}
			return bmBytes{b}, nil
		},
		func(s *Store, a bucketArray) bucketMap {
			return bmBytes{AttachBytesMap(s, a.buckets, a.NumBuckets(), a.tail)}
		}},
	{"uint64",
		func(c *Ctx, n int) (bucketMap, error) {
			h, err := NewHashTable(c, n)
			if err != nil {
				return nil, err
			}
			return bmTable{h}, nil
		},
		func(s *Store, a bucketArray) bucketMap {
			return bmTable{AttachHashTable(s, a.buckets, a.NumBuckets(), a.tail)}
		}},
}

// newSmallStore is a fresh two-context store on a small device: the crash
// tests below build hundreds of them.
func newSmallStore(t *testing.T) (*nvram.Device, *Store) {
	t.Helper()
	dev := nvram.New(nvram.Config{Size: 4 << 20})
	s, err := NewStore(dev, Options{MaxThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	return dev, s
}

// abortAt runs op with the device's StoreHook armed to panic at the k-th word
// store, and reports whether it fired: false means op completed in fewer
// than k stores.
func abortAt(dev *nvram.Device, k int, op func()) (aborted bool) {
	n := 0
	dev.StoreHook = func() {
		if n++; n == k {
			panic(injectedCrash{})
		}
	}
	defer func() {
		dev.StoreHook = nil
		if r := recover(); r != nil {
			if _, ok := r.(injectedCrash); !ok {
				panic(r)
			}
			aborted = true
		}
	}()
	op()
	return false
}

// checkHeadsPersisted fails unless every bucket's persisted link word is the
// tail, as a crash at this instant would leave it.
func checkHeadsPersisted(t *testing.T, dev *nvram.Device, a bucketArray) {
	t.Helper()
	for i := 0; i < a.NumBuckets(); i++ {
		if w := dev.PersistedWord(a.head(i) + nNext); w != uint64(a.tail) {
			t.Fatalf("bucket %d of %d: persisted head word %#x, want the tail %#x", i, a.NumBuckets(), w, a.tail)
		}
	}
}

// checkRecoversEmpty reopens a crashed device, recovers the empty structure
// at a and checks it serves a write and a read of a few keys per bucket.
func checkRecoversEmpty(t *testing.T, dev *nvram.Device, attach func(*Store, bucketArray) bucketMap, a bucketArray) {
	t.Helper()
	s, err := AttachStore(dev)
	if err != nil {
		t.Fatal(err)
	}
	m := attach(s, a)
	RecoverSet(s, []Recoverer{m.recoverer()}, 1)
	c := s.MustCtx(0)
	keys := uint64(4 * a.NumBuckets())
	for k := MinKey; k < MinKey+keys; k++ {
		if _, ok := m.get(c, k); ok {
			t.Fatalf("key %d present in a recovered empty structure", k)
		}
		if err := m.set(c, k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	for k := MinKey; k < MinKey+keys; k++ {
		if v, ok := m.get(c, k); !ok || v != k*10 {
			t.Fatalf("key %d after recovery: %d,%v, want %d", k, v, ok, k*10)
		}
	}
}

// TestBucketFormatThenCrash crashes small bucket arrays straight after their
// format, with no eviction: every head's link word must have reached the
// persisted image — arrays of fewer than eight buckets cover only part of a
// line — and the structure must recover and serve. Then it cuts the format
// at every store: the pool must reopen, the words the format wrote must read
// as not yet stored or the tail, and a new format on the reopened pool must
// hold across a crash.
func TestBucketFormatThenCrash(t *testing.T) {
	for _, kind := range bucketKinds {
		for _, n := range []int{1, 2, 4, 8, 16, 64} {
			t.Run(fmt.Sprintf("%s/buckets=%d", kind.name, n), func(t *testing.T) {
				dev, s := newSmallStore(t)
				m, err := kind.create(s.MustCtx(0), n)
				if err != nil {
					t.Fatal(err)
				}
				ref := m.array()
				dev.Crash()
				checkHeadsPersisted(t, dev, ref)
				checkRecoversEmpty(t, dev, kind.attach, ref)

				for k := 1; ; k++ {
					dev, s := newSmallStore(t)
					var got bucketArray
					aborted := abortAt(dev, k, func() {
						m, err := kind.create(s.MustCtx(0), n)
						if err != nil {
							t.Fatal(err)
						}
						got = m.array()
					})
					dev.Crash()
					if !aborted {
						// The whole format ran: the fresh store formats the
						// array where the reference did, which is where the cut
						// runs looked.
						if got != ref {
							t.Fatalf("format landed at %+v, the reference at %+v", got, ref)
						}
						checkHeadsPersisted(t, dev, got)
						break
					}
					for i := 0; i < n; i++ {
						if w := dev.PersistedWord(ref.head(i) + nNext); w != 0 && w != uint64(ref.tail) {
							t.Fatalf("cut at store %d: bucket %d persisted %#x, want 0 or the tail %#x", k, i, w, ref.tail)
						}
					}
					s2, err := AttachStore(dev)
					if err != nil {
						t.Fatalf("cut at store %d: %v", k, err)
					}
					RecoverSet(s2, nil, 1)
					m2, err := kind.create(s2.MustCtx(0), n)
					if err != nil {
						t.Fatalf("cut at store %d: format after recovery: %v", k, err)
					}
					dev.Crash()
					checkHeadsPersisted(t, dev, m2.array())
					checkRecoversEmpty(t, dev, kind.attach, m2.array())
				}
			})
		}
	}
}

// keyInBucket returns the smallest key at or above MinKey that hashes to
// bucket i of an array of nbuckets; neighbourHash below makes it the byte
// map's index hash too.
func keyInBucket(i, nbuckets int) uint64 {
	for k := MinKey; ; k++ {
		if hashMix(k)&uint64(nbuckets-1) == uint64(i) {
			return k
		}
	}
}

// neighbourHash is the byte map's index hash under the neighbouring-heads
// test: the integer the key bytes spell, so a key lands in the bucket
// keyInBucket chose it for.
func neighbourHash(key []byte) uint64 {
	k, err := strconv.ParseUint(string(key), 10, 64)
	if err != nil || k < MinKey || k > MaxKey {
		return DefaultBytesHash(key)
	}
	return k
}

// TestBucketNeighboursCrash puts two keys in buckets 2j and 2j+1, whose link
// words share a cache line, and cuts an insert, a replace and a delete of one
// of them at every store while the other's line is dirty (its insert's
// clearing of the Dirty mark is not written back). The crash then keeps
// none, a random half or all of the dirty lines. After recovery the cut key
// holds its value from before the operation or, only if it completed, after
// it; its neighbour holds its own value; and no allocated object is left
// unreachable.
func TestBucketNeighboursCrash(t *testing.T) {
	SetBytesHashForTesting(neighbourHash)
	defer SetBytesHashForTesting(nil)
	const nbuckets, j = 16, 3
	const before, after, other = 11, 22, 33
	pairs := [][2]uint64{ // {the cut key, its neighbour}
		{keyInBucket(2*j, nbuckets), keyInBucket(2*j+1, nbuckets)},
		{keyInBucket(2*j+1, nbuckets), keyInBucket(2*j, nbuckets)},
	}
	ops := []struct {
		name    string
		present bool // the cut key is set to before first
		apply   func(m bucketMap, c *Ctx, k uint64) error
		absent  bool // the key is absent after the operation
	}{
		{"insert", false, func(m bucketMap, c *Ctx, k uint64) error { return m.set(c, k, after) }, false},
		{"replace", true, func(m bucketMap, c *Ctx, k uint64) error { return m.set(c, k, after) }, false},
		{"delete", true, func(m bucketMap, c *Ctx, k uint64) error {
			if !m.del(c, k) {
				return fmt.Errorf("delete of present key %d failed", k)
			}
			return nil
		}, true},
	}
	for _, kind := range bucketKinds {
		for _, op := range ops {
			for _, pair := range pairs {
				cut, nb := pair[0], pair[1]
				t.Run(fmt.Sprintf("%s/%s/bucket=%d", kind.name, op.name, hashMix(cut)&(nbuckets-1)), func(t *testing.T) {
					// setup is deterministic: every run formats the same
					// addresses and stores the same words.
					setup := func() (*nvram.Device, bucketMap, *Ctx) {
						dev, s := newSmallStore(t)
						c := s.MustCtx(0)
						m, err := kind.create(c, nbuckets)
						if err != nil {
							t.Fatal(err)
						}
						if op.present {
							if err := m.set(c, cut, before); err != nil {
								t.Fatal(err)
							}
						}
						if err := m.set(c, nb, other); err != nil {
							t.Fatal(err)
						}
						if dev.LinePersisted(m.array().bucket(nb) + nNext) {
							t.Fatalf("the neighbour's head line is clean before the cut")
						}
						return dev, m, c
					}
					for k := 1; ; k++ {
						var aborted bool
						for pi, p := range []float64{0, 0.5, 1} {
							dev, m, c := setup()
							aborted = abortAt(dev, k, func() {
								if err := op.apply(m, c, cut); err != nil {
									t.Fatal(err)
								}
							})
							dev.CrashPartial(rand.New(rand.NewSource(int64(k*3+pi))), p)
							s2, err := AttachStore(dev)
							if err != nil {
								t.Fatal(err)
							}
							m2 := kind.attach(s2, m.array())
							RecoverSet(s2, []Recoverer{m2.recoverer()}, 1)
							c2 := s2.MustCtx(0)
							if v, ok := m2.get(c2, nb); !ok || v != other {
								t.Fatalf("cut at store %d, evict %.1f: neighbour %d = %d,%v, want %d", k, p, nb, v, ok, other)
							}
							v, ok := m2.get(c2, cut)
							atBefore := ok == op.present && (!ok || v == before)
							atAfter := ok == !op.absent && (!ok || v == after)
							if !(atAfter || aborted && atBefore) {
								t.Fatalf("cut at store %d (aborted %v), evict %.1f: key %d = %d,%v", k, aborted, p, cut, v, ok)
							}
							leakCheck(t, s2, m2.recoverer().Keep)
						}
						if !aborted {
							break
						}
					}
				})
			}
		}
	}
}
