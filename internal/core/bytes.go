package core

import (
	"encoding/binary"
	"errors"
	"math/bits"

	"repro/internal/nvram"
	"repro/internal/pmem"
)

// This file implements the durable bytes layer: a BytesMap stores arbitrary
// []byte keys and values in NVRAM extents anchored from the uint64 core
// entries of a durable hash table. The index key is a 64-bit hash of the
// byte key folded into [MinKey, MaxKey]; the index value is the head of a
// durable collision chain of entry extents. Every lookup verifies the full
// key bytes inside the entry, so distinct byte keys can never alias, no
// matter how the hash behaves.
//
// Entry extents are allocated from slab classes ≥ 1, keeping class 0 to the
// index nodes — the paper's "areas hold one type of data" discipline, which
// recovery relies on to tell index nodes from entries.
//
// Entry layout (allocated at class ≥ 1):
//
//	[0]  keyLen(16) | valLen(32) | meta(16)
//	[8]  64-bit index key (the folded hash)
//	[16] aux: one caller-owned durable word (expiry, version, …)
//	[24] next entry with the same index key (collision chain)
//	[32] key bytes, then value bytes
const (
	beHeader = 0
	beHash   = 8
	beAux    = 16
	beNext   = 24
	beData   = 32

	// MaxBytesKeyLen bounds key length (memcached-style limit, far below
	// the 16-bit field).
	MaxBytesKeyLen = 512
	// BytesEntryOverhead is the per-entry header size: key and value bytes
	// start at this offset.
	BytesEntryOverhead = beData
	// MaxBytesEntrySize is the largest slab class; an entry (header + key +
	// value) must fit in one extent.
	MaxBytesEntrySize = 2048
)

// Errors returned by the bytes layer.
var (
	// ErrTooLarge reports an entry (header + key + value) exceeding the
	// largest slab class.
	ErrTooLarge = errors.New("core: entry exceeds the largest slab class")
	// ErrBadKey reports an empty or oversized byte key.
	ErrBadKey = errors.New("core: bad byte-key length")
)

// DefaultBytesHash maps a byte key to the index key space: an FNV-style
// multiply-xor over 8-byte chunks (word-at-a-time rather than byte-at-a-
// time — the hash runs on every operation and its quality only has to
// spread keys, since full keys are always verified and same-hash keys
// chain durably), length-mixed, folded into [MinKey, MaxKey].
func DefaultBytesHash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	i := 0
	for ; i+8 <= len(key); i += 8 {
		h = (h ^ binary.LittleEndian.Uint64(key[i:])) * 1099511628211
	}
	if i < len(key) {
		var w uint64
		for j := 0; i+j < len(key); j++ {
			w |= uint64(key[i+j]) << (8 * j)
		}
		h = (h ^ w) * 1099511628211
	}
	// Mix in the length (distinguishes trailing-zero bytes from absence)
	// and finalize so low-entropy tails still spread.
	h = (h ^ uint64(len(key))) * 1099511628211
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	if h < MinKey || h > MaxKey {
		h = h%(MaxKey-MinKey+1) + MinKey
	}
	return h
}

// bytesHash is the index-key derivation, a variable so tests can inject
// colliding hashes and exercise the chain machinery deterministically.
var bytesHash = DefaultBytesHash

// SetBytesHashForTesting overrides the index-key derivation (nil restores
// the default). Entries persist the index key they were stored under, so the
// override must stay in place across any crash/recover cycle of the test.
func SetBytesHashForTesting(f func([]byte) uint64) {
	if f == nil {
		f = DefaultBytesHash
	}
	bytesHash = f
}

// BytesMap is a durable lock-free-read hash map from byte keys to byte
// values. Reads are lock-free (epoch-protected); the lifecycle of the entry
// extents (set/delete) is serialized per index key by a volatile stripe
// lock, exactly as memcached's striped item locks do. The stripes live on
// the Store, not the BytesMap value, so independently attached handles to
// the same durable map (open-by-name twice, re-attach) stay mutually
// serialized.
type BytesMap struct {
	s   *Store
	idx *HashTable
}

// NewBytesMap creates a durable byte-key map with nbuckets index buckets
// (rounded up to a power of two). Persist Buckets/NumBuckets/Tail in root
// slots (or a directory) to re-attach later.
func NewBytesMap(c *Ctx, nbuckets int) (*BytesMap, error) {
	idx, err := NewHashTable(c, nbuckets)
	if err != nil {
		return nil, err
	}
	return &BytesMap{s: c.s, idx: idx}, nil
}

// AttachBytesMap reopens a map from its durable descriptor values.
func AttachBytesMap(s *Store, buckets Addr, nbuckets int, tail Addr) *BytesMap {
	return &BytesMap{s: s, idx: AttachHashTable(s, buckets, nbuckets, tail)}
}

// Buckets returns the index bucket-region address (persist it).
func (b *BytesMap) Buckets() Addr { return b.idx.Buckets() }

// NumBuckets returns the index bucket count (persist it).
func (b *BytesMap) NumBuckets() int { return b.idx.NumBuckets() }

// Tail returns the index tail sentinel address (persist it).
func (b *BytesMap) Tail() Addr { return b.idx.Tail() }

// storeBytesPair writes the concatenation p||q into the device word by word
// without materializing the concatenation (the entry write path stores
// key||value on every Set; this keeps it allocation-free). Full words that
// fall entirely inside p or q are composed with one unaligned 8-byte read
// instead of a byte loop. Writes use StorePrivate: entry extents are
// unpublished while their contents are written (the publishing CAS is the
// release point).
func storeBytesPair(dev *nvram.Device, a Addr, p, q []byte) {
	total := len(p) + len(q)
	i := 0
	for ; i+8 <= len(p); i += 8 { // words entirely within p
		dev.StorePrivate(a+Addr(i), binary.LittleEndian.Uint64(p[i:]))
	}
	if i < total && i < len(p) { // the word straddling the p/q boundary
		var w uint64
		for j := 0; j < 8 && i+j < total; j++ {
			k := i + j
			if k < len(p) {
				w |= uint64(p[k]) << (8 * j)
			} else {
				w |= uint64(q[k-len(p)]) << (8 * j)
			}
		}
		dev.StorePrivate(a+Addr(i), w)
		i += 8
	}
	for ; i+8 <= total; i += 8 { // words entirely within q
		dev.StorePrivate(a+Addr(i), binary.LittleEndian.Uint64(q[i-len(p):]))
	}
	if i < total { // final partial word
		var w uint64
		for j := 0; i+j < total; j++ {
			w |= uint64(q[i+j-len(p)]) << (8 * j)
		}
		dev.StorePrivate(a+Addr(i), w)
	}
}

// loadBytes reads n bytes starting at a (not necessarily word-aligned) into a
// fresh slice of exactly n bytes: the value-copy path allocates the value,
// not key+value.
func loadBytes(dev *nvram.Device, a Addr, n int) []byte {
	out := make([]byte, n)
	loadInto(dev, a, out)
	return out
}

// loadInto fills out from the device bytes starting at a, a word at a time:
// one atomic device load per word touched, whole words stored with one
// 8-byte write. Off alignment each output word is merged from two
// neighbouring device words, of which the later is carried into the next
// round; the load that would cross the last word holding wanted bytes is
// never issued (the extent may end there).
func loadInto(dev *nvram.Device, a Addr, out []byte) {
	if len(out) == 0 {
		return
	}
	base := a &^ 7
	lo := uint(a&7) * 8 // bit offset of the first wanted byte in its word
	last := (a + Addr(len(out)) - 1) &^ 7
	w := dev.Load(base)
	for len(out) > 0 {
		v := w >> lo
		if base < last {
			base += 8
			w = dev.Load(base)
			if lo != 0 {
				v |= w << (64 - lo)
			}
		}
		if len(out) >= 8 {
			binary.LittleEndian.PutUint64(out, v)
			out = out[8:]
			continue
		}
		for j := range out { // the tail
			out[j] = byte(v >> (8 * j))
		}
		return
	}
}

// Entry field readers (addresses come from Find or recovery sweeps). They
// are store-level functions because two index structures share the entry
// layout: the hash-indexed BytesMap here and the skiplist-indexed
// OrderedBytesMap (bytesindex.go).

func bytesEntryKeyLen(s *Store, e Addr) int { return int(s.dev.Load(e+beHeader) & 0xFFFF) }

func bytesEntryValueLen(s *Store, e Addr) int {
	return int(s.dev.Load(e+beHeader) >> 16 & 0xFFFFFFFF)
}

// bytesEntryKeyEqual reports whether the entry's stored key equals key,
// comparing a device word at a time without copying the stored key out.
// This is the chain-walk hot path: materializing a []byte per probe costs
// an allocation per comparison, which dominates lookup time.
func bytesEntryKeyEqual(s *Store, e Addr, key []byte) bool {
	dev := s.dev
	if int(dev.Load(e+beHeader)&0xFFFF) != len(key) {
		return false
	}
	for i := 0; i < len(key); i += 8 {
		w := dev.Load(e + beData + Addr(i))
		rem := len(key) - i
		if rem >= 8 {
			if w != binary.LittleEndian.Uint64(key[i:]) {
				return false
			}
			continue
		}
		// Final partial word: the bytes above rem belong to the value.
		if rem >= 4 {
			if uint32(w) != binary.LittleEndian.Uint32(key[i:]) {
				return false
			}
			w >>= 32
			i += 4
			rem -= 4
		}
		for j := 0; j < rem; j++ {
			if byte(w>>(8*j)) != key[i+j] {
				return false
			}
		}
		break
	}
	return true
}

// bytesEntryKeyCompare orders the entry's stored key against key as
// bytes.Compare would, again without copying: stored words are packed
// little-endian (byte i at bit 8i), so byte-reversing a word yields its
// big-endian value and word comparison becomes lexicographic comparison.
func bytesEntryKeyCompare(s *Store, e Addr, key []byte) int {
	dev := s.dev
	klen := int(dev.Load(e+beHeader) & 0xFFFF)
	n := min(klen, len(key))
	for i := 0; i < n; i += 8 {
		w := dev.Load(e + beData + Addr(i))
		rem := n - i
		if rem >= 8 {
			a := bits.ReverseBytes64(w)
			b := binary.BigEndian.Uint64(key[i:])
			if a != b {
				if a < b {
					return -1
				}
				return 1
			}
			continue
		}
		if rem >= 4 { // 4-byte chunk of the final partial word
			a := bits.ReverseBytes32(uint32(w))
			b := binary.BigEndian.Uint32(key[i:])
			if a != b {
				if a < b {
					return -1
				}
				return 1
			}
			w >>= 32
			i += 4
			rem -= 4
		}
		for j := 0; j < rem; j++ {
			a, b := byte(w>>(8*j)), key[i+j]
			if a != b {
				if a < b {
					return -1
				}
				return 1
			}
		}
		break
	}
	switch {
	case klen < len(key):
		return -1
	case klen > len(key):
		return 1
	}
	return 0
}

func bytesEntryKey(s *Store, e Addr) []byte {
	return loadBytes(s.dev, e+beData, bytesEntryKeyLen(s, e))
}

func bytesEntryValue(s *Store, e Addr) []byte {
	hdr := s.dev.Load(e + beHeader)
	klen := int(hdr & 0xFFFF)
	vlen := int(hdr >> 16 & 0xFFFFFFFF)
	return loadBytes(s.dev, e+beData+Addr(klen), vlen)
}

func bytesEntryMeta(s *Store, e Addr) uint16 { return uint16(s.dev.Load(e+beHeader) >> 48) }

func bytesEntryAux(s *Store, e Addr) uint64 { return s.dev.Load(e + beAux) }

func bytesEntryHash(s *Store, e Addr) uint64 { return s.dev.Load(e + beHash) }

// entryShape vets the shape of an extent that may hold anything — an entry,
// another structure's object, a stale slot — before it is read as an entry:
// the key and value lengths fit class cl and the stored index hash lies in
// the index range. It returns the extent's header word. Recovery and the
// sweep (sweep.go) both rely on it.
func entryShape(s *Store, e Addr, cl pmem.Class) (hdr uint64, ok bool) {
	hdr = s.dev.Load(e + beHeader)
	klen := int(hdr & 0xFFFF)
	vlen := int(hdr >> 16 & 0xFFFFFFFF)
	if klen < 1 || klen > MaxBytesKeyLen || beData+klen+vlen > int(pmem.ClassSizes[cl]) {
		return hdr, false
	}
	h := s.dev.Load(e + beHash)
	return hdr, h >= MinKey && h <= MaxKey
}

// EntryKey reads an entry's key bytes.
func (b *BytesMap) EntryKey(e Addr) []byte { return bytesEntryKey(b.s, e) }

// EntryValue reads an entry's value bytes.
func (b *BytesMap) EntryValue(e Addr) []byte { return bytesEntryValue(b.s, e) }

// EntryMeta reads an entry's 16-bit metadata field.
func (b *BytesMap) EntryMeta(e Addr) uint16 { return bytesEntryMeta(b.s, e) }

// EntryAux reads an entry's aux word.
func (b *BytesMap) EntryAux(e Addr) uint64 { return bytesEntryAux(b.s, e) }

func (b *BytesMap) entryNext(e Addr) Addr { return Addr(b.s.dev.Load(e + beNext)) }

// entryClass picks the slab class for an entry (never class 0: index nodes
// own class-0 pages, preserving the paper's "areas hold one type of data").
func entryClass(total uint64) (pmem.Class, error) {
	cl, err := pmem.ClassFor(total)
	if err != nil {
		return 0, ErrTooLarge
	}
	if cl == 0 {
		cl = 1
	}
	return cl, nil
}

// writeBytesEntry allocates an entry and schedules write-backs of all its
// cache lines in the caller's Flusher — WITHOUT fencing. The caller MUST
// complete the batch with one fence before the entry's address is stored
// anywhere reachable (link CAS, chain swing, entry-reference swap): the
// contents have to be durable before any pointer to them can persist, but
// deferring the fence lets the entry lines share one NVRAM pause with the
// index node written next (the paper's one-pause-per-batch model, §6.1).
// Shared by the hash-indexed and the ordered byte maps; ordered entries
// carry next = 0 (no collision chains).
func writeBytesEntry(c *Ctx, hash uint64, key, value []byte, meta uint16, aux uint64, next Addr) (Addr, error) {
	total := uint64(beData + len(key) + len(value))
	cl, err := entryClass(total)
	if err != nil {
		return 0, err
	}
	e, err := c.ep.AllocNode(cl)
	if err != nil {
		return 0, err
	}
	dev := c.s.dev
	hdr := uint64(len(key)) | uint64(len(value))<<16 | uint64(meta)<<48
	dev.StorePrivate(e+beHeader, hdr)
	dev.StorePrivate(e+beHash, hash)
	dev.StorePrivate(e+beAux, aux)
	dev.StorePrivate(e+beNext, uint64(next))
	storeBytesPair(dev, e+beData, key, value)
	c.clwbRange(e, total)
	return e, nil
}

// findInChain walks a collision chain for an exact key match, returning the
// entry and its predecessor in the chain (0 if it is the head).
func (b *BytesMap) findInChain(head Addr, key []byte) (entry, pred Addr) {
	for e := head; e != 0; e = b.entryNext(e) {
		if bytesEntryKeyEqual(b.s, e, key) {
			return e, pred
		}
		pred = e
	}
	return 0, 0
}

// chainHead looks the index key up lock-free; the whole call must run inside
// an epoch section.
func (b *BytesMap) chainHead(c *Ctx, hash uint64) (Addr, bool) {
	headV, ok := listSearch(c, b.s, b.idx.bucket(hash), hash)
	return Addr(headV), ok
}

// Find returns the address of the live entry for key (0, false if absent).
// The address stays valid while the caller's handle is between operations
// only in quiescent use; Get copies instead.
func (b *BytesMap) Find(c *Ctx, key []byte) (Addr, bool) {
	hash := bytesHash(key)
	c.ep.Begin()
	defer c.ep.End()
	head, ok := b.chainHead(c, hash)
	if !ok {
		return 0, false
	}
	e, _ := b.findInChain(head, key)
	return e, e != 0
}

// Get returns a copy of the value bound to key.
func (b *BytesMap) Get(c *Ctx, key []byte) ([]byte, bool) {
	v, _, _, ok := b.GetItem(c, key)
	return v, ok
}

// GetItem returns copies of the value, metadata and aux word bound to key.
func (b *BytesMap) GetItem(c *Ctx, key []byte) (value []byte, meta uint16, aux uint64, ok bool) {
	hash := bytesHash(key)
	c.ep.Begin()
	defer c.ep.End()
	head, found := b.chainHead(c, hash)
	if !found {
		return nil, 0, 0, false
	}
	e, _ := b.findInChain(head, key)
	if e == 0 {
		return nil, 0, 0, false
	}
	return b.EntryValue(e), b.EntryMeta(e), b.EntryAux(e), true
}

// GetAux returns the aux word bound to key and the length of its value — no
// value copy, for metadata probes on hot paths (e.g. reading an item's expiry
// and footprint before a rewrite).
func (b *BytesMap) GetAux(c *Ctx, key []byte) (aux uint64, valueLen int, ok bool) {
	hash := bytesHash(key)
	c.ep.Begin()
	defer c.ep.End()
	head, found := b.chainHead(c, hash)
	if !found {
		return 0, 0, false
	}
	e, _ := b.findInChain(head, key)
	if e == 0 {
		return 0, 0, false
	}
	return b.EntryAux(e), bytesEntryValueLen(b.s, e), true
}

// Contains reports whether key is present.
func (b *BytesMap) Contains(c *Ctx, key []byte) bool {
	_, ok := b.Find(c, key)
	return ok
}

// Set binds key to value (with metadata and aux word), durably, through the
// write path (write.go): the entry is fully persisted before the single
// atomic link that publishes it, and a crash leaves either the old binding
// or the new one, never neither. Returns whether the key was newly created.
// May return ErrOutOfMemory-wrapping errors under memory pressure; the
// caller owns eviction policy.
func (b *BytesMap) Set(c *Ctx, key, value []byte, meta uint16, aux uint64) (created bool, err error) {
	return writeTarget{b: b}.set(c, key, value, meta, aux)
}

// SetAux durably replaces the aux word of an existing entry in place
// (touch-style update: no entry rewrite). Returns false if key is absent.
func (b *BytesMap) SetAux(c *Ctx, key []byte, aux uint64) bool {
	hash := bytesHash(key)
	mu := b.s.stripe(hash)
	mu.Lock()
	defer mu.Unlock()
	c.ep.Begin()
	defer c.ep.End()
	head, found := b.chainHead(c, hash)
	if !found {
		return false
	}
	e, _ := b.findInChain(head, key)
	if e == 0 {
		return false
	}
	b.s.dev.Store(e+beAux, aux)
	c.sync(e + beAux)
	return true
}

// Delete removes key durably. Returns false if key is absent.
func (b *BytesMap) Delete(c *Ctx, key []byte) bool {
	hash := bytesHash(key)
	mu := b.s.stripe(hash)
	mu.Lock()
	defer mu.Unlock()
	c.ep.Begin()
	defer c.ep.End()
	dev := b.s.dev

	head, exists := b.chainHead(c, hash)
	if !exists {
		return false
	}
	e, pred := b.findInChain(head, key)
	if e == 0 {
		return false
	}
	// The unlink makes the entry durably unreachable; cover its area first.
	c.ep.PreRetire(e)
	next := b.entryNext(e)
	switch {
	case pred == 0 && next == 0:
		if _, ok := listDelete(c, b.s, b.idx.bucket(hash), hash); !ok {
			return false
		}
	case pred == 0:
		listUpsert(c, b.s, b.idx.bucket(hash), hash, uint64(next))
	default:
		dev.Store(pred+beNext, uint64(next))
		c.sync(pred + beNext)
	}
	c.ep.Retire(e)
	return true
}

// Len counts live entries (linearizable only in quiescence; diagnostic).
func (b *BytesMap) Len(c *Ctx) int {
	n := 0
	b.RangeEntries(c, func(Addr) bool { n++; return true })
	return n
}

// Range calls fn for every live key/value (copies; unordered). Safe for
// concurrent use: the walk runs inside epoch sections, so entry extents
// cannot be reclaimed mid-scan and every observed entry is internally
// consistent (entries are immutable once published). Under concurrent
// updates the scan is not a snapshot: it may miss keys inserted during the
// walk and may see either the old or the new binding of a replaced key. fn
// must not call operations on the same Ctx (epoch sections do not nest).
func (b *BytesMap) Range(c *Ctx, fn func(key, value []byte) bool) {
	b.RangeEntries(c, func(e Addr) bool {
		return fn(b.EntryKey(e), b.EntryValue(e))
	})
}

// RangeEntries visits every live entry address, one epoch section per chunk
// of buckets (see Range for the concurrency contract).
func (b *BytesMap) RangeEntries(c *Ctx, fn func(e Addr) bool) {
	stopped := false
	for cursor := uint64(0); ; {
		cursor = b.walkEntries(c, cursor, func(e Addr) bool {
			stopped = !fn(e)
			return !stopped
		})
		if cursor == 0 || stopped {
			return
		}
	}
}

// walkChunk is how many index buckets one walk step covers. A step is one
// epoch section, so this bounds how long a walker — however slowly its
// caller consumes what it found — holds reclamation back.
const walkChunk = 64

// walkEntries is one step of the bucket walk: fn sees every live entry of the
// walkChunk buckets starting at bucket cursor, under one epoch section. It
// returns the cursor of the next step, 0 once the last bucket is done. When fn
// returns false the step ends with the bucket it was in.
func (b *BytesMap) walkEntries(c *Ctx, cursor uint64, fn func(e Addr) bool) (next uint64) {
	c.ep.Begin()
	defer c.ep.End()
	n := b.idx.NumBuckets()
	from := int(min(cursor, uint64(n)))
	reached := b.idx.rangeBuckets(c, from, min(from+walkChunk, n), func(_, headV uint64) bool {
		for e := Addr(headV); e != 0; e = b.entryNext(e) {
			if !fn(e) {
				return false
			}
		}
		return true
	})
	if reached >= n {
		return 0
	}
	return uint64(reached)
}

// WalkEntry is one entry as Walk presents it to its visitor, valid until the
// visitor returns.
type WalkEntry struct {
	Key      []byte // the context's scratch buffer; copy it to keep it
	Meta     uint16
	Aux      uint64
	ValueLen int

	s *Store
	e Addr
}

// Value returns a copy of the entry's value.
func (w WalkEntry) Value() []byte { return bytesEntryValue(w.s, w.e) }

// Walk is the resumable form of the bucket walk, with the contract of Redis's
// SCAN: start at cursor 0, pass each returned cursor to the next call, stop
// when 0 comes back. The index has a fixed bucket count and each call visits
// the next few buckets whole, so one full cycle presents every key that was
// in the map throughout it at least once (exactly once if it was not rewritten
// meanwhile); a key inserted or deleted during the cycle may or may not
// appear. Each call is one epoch section, so nothing is held between calls. A
// visitor that returns false ends its call after the current bucket.
func (b *BytesMap) Walk(c *Ctx, cursor uint64, visit func(WalkEntry) bool) (next uint64) {
	dev := b.s.dev
	return b.walkEntries(c, cursor, func(e Addr) bool {
		hdr := dev.Load(e + beHeader)
		k := c.walkKey[:hdr&0xFFFF]
		loadInto(dev, e+beData, k)
		return visit(WalkEntry{Key: k, Meta: uint16(hdr >> 48), Aux: dev.Load(e + beAux),
			ValueLen: int(hdr >> 16 & 0xFFFFFFFF), s: b.s, e: e})
	})
}
