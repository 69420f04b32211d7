package core

// HashTable is a durable lock-free hash table: one Harris linked list per
// bucket (§3, "the hash table uses one Harris linked list per bucket"),
// each made durable with link-and-persist.
type HashTable struct {
	s *Store
	bucketArray
}

// bucketArray is a hash table's bucket array, shared by the uint64 table and
// the byte map (whose entries are its lists' nodes): a structure-lifetime
// region of per-bucket head sentinels laid out like ordinary nodes (64 bytes
// apiece) so the list machinery applies unchanged, persisted once at
// creation, and one tail sentinel every bucket's list ends at.
type bucketArray struct {
	buckets Addr   // region: nbuckets sentinel pseudo-nodes, 64B stride
	mask    uint64 // nbuckets-1 (power of two)
	tail    Addr   // shared tail sentinel
}

// newBucketArray creates nbuckets empty buckets (rounded up to a power of
// two).
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

	region, err := c.s.pool.AllocRegion(c.f, uint64(n)*64)
	if err != nil {
		return bucketArray{}, err
	}
	for i := 0; i < n; i++ {
		h := region + Addr(i)*64
		dev.Store(h+nKey, 0)
		dev.Store(h+nValue, 0)
		dev.Store(h+nNext, tail)
		c.clwb(h + nNext)
		if i%64 == 63 {
			c.fence() // bound the pending set while initializing
		}
	}
	c.fence()
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

// bucket returns the head sentinel of key's bucket.
func (h bucketArray) bucket(key uint64) Addr {
	return h.head(int(hashMix(key) & h.mask))
}

// head returns the head sentinel of bucket i.
func (h bucketArray) head(i int) Addr { return h.buckets + Addr(i)*64 }

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
