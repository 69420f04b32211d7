package core

import "repro/internal/nvram"

// HashTable is a durable lock-free hash table: one Harris linked list per
// bucket (§3, "the hash table uses one Harris linked list per bucket"),
// each made durable with link-and-persist.
type HashTable struct {
	s *Store
	bucketArray
}

// bucketArray is a hash table's bucket array, shared by the uint64 table, the
// byte map (whose entries are its lists' nodes) and so the durable directory:
// a structure-lifetime region of one 8-byte link word per bucket, persisted
// once at creation, and one tail sentinel every bucket's list ends at.
//
// A bucket's head is a predecessor and nothing else. The list machinery
// (searchFrom, linkAndPersist, the link cache, recovery) loads, CASes and
// persists a head's link word, and reads a predecessor's key only when it
// reached that predecessor through a link, which no head is (§3 needs only
// the predecessor's link). So head(i) is the pseudo-node whose nNext field
// is bucket i's word, and the words its key and value would occupy belong
// to buckets i-2 and i-1. Eight heads share a cache line; a write-back of
// one's line writes its neighbours back early, which §2's model allows for
// any line at any time.
type bucketArray struct {
	buckets Addr   // region: nbuckets link words
	mask    uint64 // nbuckets-1 (power of two)
	tail    Addr   // shared tail sentinel
}

// headsPerFence bounds the format's pending write-backs to 64 lines.
const headsPerFence = 64 * nvram.LineSize / 8

// newBucketArray creates nbuckets empty buckets (rounded up to a power of
// two). It stores each bucket's link word and nothing else: a head's key or
// value word is its neighbour's link.
func newBucketArray(c *Ctx, nbuckets int) (bucketArray, error) {
	n := 1
	for n < nbuckets {
		n <<= 1
	}
	dev := c.s.dev
	tail, err := c.ep.AllocNode(listClass)
	if err != nil {
		return bucketArray{}, err
	}
	dev.Store(tail+nKey, ^uint64(0))
	dev.Store(tail+nValue, 0)
	dev.Store(tail+nNext, 0)
	c.clwb(tail)

	region, err := c.s.pool.AllocRegion(c.f, uint64(n)*8)
	if err != nil {
		return bucketArray{}, err
	}
	for lo := 0; lo < n; lo += headsPerFence {
		hi := min(lo+headsPerFence, n)
		for i := lo; i < hi; i++ {
			dev.Store(region+Addr(i)*8, tail)
		}
		// Every line the words cover, the last partial one included.
		c.clwbRange(region+Addr(lo)*8, uint64(hi-lo)*8)
		c.fence()
	}
	return bucketArray{buckets: region, mask: uint64(n - 1), tail: tail}, nil
}

// NewHashTable creates a table with nbuckets buckets (rounded up to a power
// of two). Persist Descriptor's fields in root slots to re-attach later.
func NewHashTable(c *Ctx, nbuckets int) (*HashTable, error) {
	ba, err := newBucketArray(c, nbuckets)
	if err != nil {
		return nil, err
	}
	return &HashTable{s: c.s, bucketArray: ba}, nil
}

// AttachHashTable reopens a table from its durable descriptor values.
func AttachHashTable(s *Store, buckets Addr, nbuckets int, tail Addr) *HashTable {
	return &HashTable{s: s, bucketArray: bucketArray{buckets, uint64(nbuckets - 1), tail}}
}

// Buckets returns the bucket-region address (persist in a root).
func (h bucketArray) Buckets() Addr { return h.buckets }

// NumBuckets returns the bucket count.
func (h bucketArray) NumBuckets() int { return int(h.mask) + 1 }

// Tail returns the shared tail sentinel address (persist in a root).
func (h bucketArray) Tail() Addr { return h.tail }

// hashMix is the same finalizer the link cache uses; keys spread uniformly.
func hashMix(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xBF58476D1CE4E5B9
	k ^= k >> 27
	k *= 0x94D049BB133111EB
	k ^= k >> 31
	return k
}

// bucket returns the head of key's bucket.
func (h bucketArray) bucket(key uint64) Addr {
	return h.head(int(hashMix(key) & h.mask))
}

// head returns the head of bucket i: the pseudo-node whose link word is the
// bucket's (see bucketArray). Only its nNext field may be accessed.
func (h bucketArray) head(i int) Addr { return h.buckets + Addr(i)*8 - nNext }

// Search looks key up with the §3 durability guarantees.
func (h *HashTable) Search(c *Ctx, key uint64) (uint64, bool) {
	checkKey(key)
	c.ep.Begin()
	defer c.ep.End()
	return listSearch(c, h.s, h.bucket(key), key)
}

// Contains reports whether key is present.
func (h *HashTable) Contains(c *Ctx, key uint64) bool {
	_, ok := h.Search(c, key)
	return ok
}

// Insert adds key→value; false if already present.
func (h *HashTable) Insert(c *Ctx, key, value uint64) bool {
	checkKey(key)
	c.ep.Begin()
	defer c.ep.End()
	return listInsert(c, h.s, h.bucket(key), key, value)
}

// Delete removes key, returning its value.
func (h *HashTable) Delete(c *Ctx, key uint64) (uint64, bool) {
	checkKey(key)
	c.ep.Begin()
	defer c.ep.End()
	return listDelete(c, h.s, h.bucket(key), key)
}

// Upsert inserts key→value or durably replaces the value of an existing
// key in place (one word store + sync; the value word shares the node's
// cache line with its links, so a single write-back covers it). Returns
// true if the key was newly inserted.
func (h *HashTable) Upsert(c *Ctx, key, value uint64) bool {
	checkKey(key)
	c.ep.Begin()
	defer c.ep.End()
	return listUpsert(c, h.s, h.bucket(key), key, value)
}

// Len counts live keys (quiescent use).
func (h *HashTable) Len(c *Ctx) int {
	n := 0
	for i := 0; i < h.NumBuckets(); i++ {
		n += AttachList(h.s, h.head(i), h.tail).Len(c)
	}
	return n
}

// Range calls fn for every live key/value (unordered across buckets).
func (h *HashTable) Range(c *Ctx, fn func(key, value uint64) bool) {
	stopped := false
	for i := 0; i < h.NumBuckets() && !stopped; i++ {
		AttachList(h.s, h.head(i), h.tail).Range(c, func(k, v uint64) bool {
			stopped = !fn(k, v)
			return !stopped
		})
	}
}
