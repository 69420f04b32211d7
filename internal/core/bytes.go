package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"slices"

	"repro/internal/nvram"
	"repro/internal/pmem"
	"repro/internal/ptrtag"
)

// This file implements the durable bytes layer: a BytesMap stores arbitrary
// []byte keys and values in NVRAM entry extents, and the extents are the
// nodes of a durable hash table — one Harris list per bucket (§3), made
// durable with link-and-persist, whose nodes are the items, as NV-Memcached
// swaps the paper's table in under memcached's items (§6.5). The list key is
// a 64-bit hash of the byte key folded into [MinKey, MaxKey]; a bucket's
// list is ordered by that hash and, among entries of equal hash, by the key
// bytes, so every search compares full keys and distinct byte keys can never
// alias, no matter how the hash behaves.
//
// Entry extents are allocated from slab classes ≥ 1, keeping class 0 to the
// sentinels and the uint64 structures' nodes — the paper's "areas hold one
// type of data" discipline, which recovery and the sweep rely on to tell
// entries from other objects.
//
// Entry layout (allocated at class ≥ 1). The first three words sit where a
// list node keeps its key, value and link, so the bucket heads, the tail and
// the list code work on entries unchanged:
//
//	[0]  64-bit index key (the folded hash): the list node's key
//	[8]  keyLen(16) | valLen(32) | meta(16)
//	[16] next entry in the bucket's list, with the Harris mark, the Dirty
//	     mark and a replace's freeze (ptrtag.Tag)
//	[24] aux: one caller-owned durable word (expiry, version, …)
//	[32] the entry this one replaced, 0 if it bound a fresh key: the
//	     replaced entry's unlink is charged to this entry's area (§5.4), and
//	     recovery reaches the replaced entry through this word (RecoverSet).
//	     The low 48 bits hold the address, the top 16 the store's run. The
//	     word is cleared once the replaced entry is freed, and this entry is
//	     not freed before that (replaceChain); after a crash it may be stale,
//	     so recovery vets it.
//	[40] key bytes, then value bytes
const (
	beHash     = nKey
	beHeader   = nValue
	beAux      = 24
	beReplaced = 32
	beData     = 40

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
// spread keys, since full keys are always compared and same-hash keys sit
// side by side in their bucket), length-mixed, folded into [MinKey, MaxKey].
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
// colliding hashes and exercise same-hash ordering deterministically.
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
	s *Store
	bucketArray
	slotBase uint64 // ORed into every slot the map reports (WithSlotBase)
}

// WithSlotBase returns a handle on the same map whose slots (AppendItem,
// KeyStep.Slot, SweepEntry.Slot) carry base above the entry's device
// address, so that the maps of several stores joined into one can name their
// entries apart. base must leave the address bits clear.
func (b *BytesMap) WithSlotBase(base uint64) *BytesMap {
	h := *b
	h.slotBase = base
	return &h
}

// slot is entry e's slot: its device address under the map's slot base. Two
// live entries never share a 64-byte granule of the device (every extent is
// at least SlotAlign long), so a slot names one granule.
func (b *BytesMap) slot(e Addr) uint64 { return b.slotBase | uint64(e) }

// NewBytesMap creates a durable byte-key map with nbuckets buckets (rounded
// up to a power of two). Persist Buckets/NumBuckets/Tail in root slots (or a
// directory) to re-attach later.
func NewBytesMap(c *Ctx, nbuckets int) (*BytesMap, error) {
	ba, err := newBucketArray(c, nbuckets)
	if err != nil {
		return nil, err
	}
	return &BytesMap{s: c.s, bucketArray: ba}, nil
}

// AttachBytesMap reopens a map from its durable descriptor values.
func AttachBytesMap(s *Store, buckets Addr, nbuckets int, tail Addr) *BytesMap {
	return &BytesMap{s: s, bucketArray: bucketArray{buckets, uint64(nbuckets - 1), tail}}
}

// loadBytes reads n bytes starting at a (not necessarily word-aligned) into a
// fresh slice of exactly n bytes: the value-copy path allocates the value,
// not key+value.
func loadBytes(dev *nvram.Device, a Addr, n int) []byte {
	out := make([]byte, n)
	dev.LoadBytes(a, out)
	return out
}

// Entry field readers (addresses come from Find or recovery sweeps). They
// are store-level functions because two index structures share the entry
// layout: the hash-indexed BytesMap here and the skiplist-indexed
// OrderedBytesMap (bytesindex.go).

func bytesEntryKeyLen(s *Store, e Addr) int { return int(s.dev.Load(e+beHeader) & 0xFFFF) }

func bytesEntryValueLen(s *Store, e Addr) int {
	return int(s.dev.Load(e+beHeader) >> 16 & 0xFFFFFFFF)
}

// bytesEntryKeyCompare orders the entry's stored key against key as
// bytes.Compare would — the bucket search's and the skip list's comparison.
// The stored key is copied into a buffer on the stack (a []byte per probe
// would cost an allocation per comparison) a line's worth at a time, so a
// skip-list probe that differs early zeroes and copies 64 bytes, not
// MaxBytesKeyLen; no byte past the shorter key is read.
func bytesEntryKeyCompare(s *Store, e Addr, key []byte) int {
	var buf [64]byte
	klen := bytesEntryKeyLen(s, e)
	n := min(klen, len(key))
	for i := 0; i < n; i += len(buf) {
		stored := buf[:min(n-i, len(buf))]
		s.dev.LoadBytes(e+beData+Addr(i), stored)
		if c := bytes.Compare(stored, key[i:i+len(stored)]); c != 0 {
			return c
		}
	}
	return cmp.Compare(klen, len(key))
}

func bytesEntryKey(s *Store, e Addr) []byte {
	return loadBytes(s.dev, e+beData, bytesEntryKeyLen(s, e))
}

func bytesEntryValue(s *Store, e Addr) []byte { return appendEntryValue(s, nil, e) }

// appendEntryValue appends the entry's value to dst. A nil dst gets a fresh
// slice of exactly the value's length: the copying reads allocate the value,
// no more.
func appendEntryValue(s *Store, dst []byte, e Addr) []byte {
	hdr := s.dev.Load(e + beHeader)
	klen := int(hdr & 0xFFFF)
	vlen := int(hdr >> 16 & 0xFFFFFFFF)
	if dst == nil {
		dst = make([]byte, 0, vlen)
	}
	n := len(dst)
	dst = slices.Grow(dst, vlen)[:n+vlen]
	s.dev.LoadBytes(e+beData+Addr(klen), dst[n:])
	return dst
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

// entryAt reports whether a, a word read from the device that may hold
// anything, names an allocated slot of an entry class (≥ 1), and its class:
// past the pool's header page, inside the heap, at the start of a slot of
// its page's class. Recovery vets an entry reference with it before any
// load through it.
func (s *Store) entryAt(a Addr) (pmem.Class, bool) {
	cl, ok := s.pool.SlotStart(a)
	return cl, ok && cl >= 1 && s.pool.SlotAllocated(a)
}

// A beReplaced word holds the replaced entry's address in its low 48 bits
// and the run of the store that wrote it (Store.run) above them.
const (
	replacedRunShift = 48
	replacedAddrMask = 1<<replacedRunShift - 1
	runMask          = 1<<(64-replacedRunShift) - 1
)

// replacedWord is the beReplaced word naming replaced, written in this run.
func (s *Store) replacedWord(replaced Addr) uint64 {
	if replaced == 0 {
		return 0
	}
	return uint64(replaced) | s.run<<replacedRunShift
}

// replaceChain is the store's epoch.Chain. A replace's entry names the entry
// it replaced (beReplaced), and that is how recovery reaches the replaced
// entry, whose unlink was charged to the new entry's area: the new entry may
// be unlinked and reclaimed by another context while the replaced one still
// waits in the generation of the context that retired it. So an entry whose
// word, written in this run, still names one is held back (Pending), and the
// word is cleared once the entry it names is durably free (Release). Only
// the context that retired the replaced entry clears it, while the holding
// context keeps the entry allocated, so the store never lands on a freed
// slot. A word from an earlier run names nothing pending: recovery has
// settled every entry of that run.
type replaceChain struct{ s *Store }

func (ch replaceChain) Pending(a Addr) bool {
	s := ch.s
	if s.dev.Load(a+beReplaced)>>replacedRunShift != s.run {
		return false // 0, a word from an earlier run, or not an entry's word
	}
	cl, ok := s.pool.PageClass(pmem.PageOf(a))
	if !ok || cl < 1 {
		return false
	}
	_, ok = entryShape(s, a, cl)
	return ok
}

func (ch replaceChain) Release(by Addr) { ch.s.dev.Store(by+beReplaced, 0) }

// replacedOf returns the entry that the object at n names as the one it
// replaced (beReplaced), or 0: when n has no entry's shape, names none, or
// names an address that entryAt rejects — stale (freed, its page recycled)
// or cut short by a crash.
func (s *Store) replacedOf(n Addr) Addr {
	cl, ok := s.pool.PageClass(pmem.PageOf(n))
	if !ok || cl < 1 {
		return 0
	}
	if _, ok := entryShape(s, n, cl); !ok {
		return 0
	}
	r := Addr(s.dev.Load(n+beReplaced) & replacedAddrMask)
	if _, ok := s.entryAt(r); !ok {
		return 0
	}
	return r
}

// EntryKey reads an entry's key bytes.
func (b *BytesMap) EntryKey(e Addr) []byte { return bytesEntryKey(b.s, e) }

// EntryValue reads an entry's value bytes.
func (b *BytesMap) EntryValue(e Addr) []byte { return bytesEntryValue(b.s, e) }

// EntryMeta reads an entry's 16-bit metadata field.
func (b *BytesMap) EntryMeta(e Addr) uint16 { return bytesEntryMeta(b.s, e) }

// EntryAux reads an entry's aux word.
func (b *BytesMap) EntryAux(e Addr) uint64 { return bytesEntryAux(b.s, e) }

// entryClass picks the slab class for an entry (never class 0: sentinels and
// list nodes own class-0 pages, preserving the paper's "areas hold one type
// of data").
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
// anywhere reachable (link CAS, entry-reference swap): the contents have to
// be durable before any pointer to them can persist, but deferring the fence
// lets the entry lines share one NVRAM pause with the allocator lines (the
// paper's one-pause-per-batch model, §6.1). Shared by the hash-indexed and
// the ordered byte maps; next is the bucket-list successor (ordered entries
// carry 0: the skip list's nodes link them), and replaced the entry the
// publish will unlink (0 for a fresh key).
func writeBytesEntry(c *Ctx, hash uint64, key, value []byte, meta uint16, aux uint64, next, replaced Addr) (Addr, error) {
	total := uint64(beData + len(key) + len(value))
	cl, err := entryClass(total)
	if err != nil {
		return 0, err
	}
	e, err := c.ep.AllocNode(cl)
	if err != nil {
		return 0, err
	}
	// Entry extents are unpublished while their contents are written (the
	// publishing CAS is the release point): header, key and value go in as
	// one private range.
	var hdr [beData]byte
	binary.LittleEndian.PutUint64(hdr[beHash:], hash)
	binary.LittleEndian.PutUint64(hdr[beHeader:], uint64(len(key))|uint64(len(value))<<16|uint64(meta)<<48)
	binary.LittleEndian.PutUint64(hdr[nNext:], uint64(next))
	binary.LittleEndian.PutUint64(hdr[beAux:], aux)
	binary.LittleEndian.PutUint64(hdr[beReplaced:], c.s.replacedWord(replaced))
	c.s.dev.StorePrivateBytes(e, hdr[:], key, value)
	c.clwbRange(e, total)
	return e, nil
}

// find looks key up with §3's read guarantees (listFind); the whole call must
// run inside an epoch section.
func (b *BytesMap) find(c *Ctx, hash uint64, key []byte) (Addr, bool) {
	_, e, _, found := listFind(c, b.s, b.bucket(hash), hash, key)
	return e, found
}

// Find returns the address of the live entry for key (0, false if absent).
// The address stays valid while the caller's handle is between operations
// only in quiescent use; Get copies instead.
func (b *BytesMap) Find(c *Ctx, key []byte) (Addr, bool) {
	hash := bytesHash(key)
	c.ep.Begin()
	defer c.ep.End()
	return b.find(c, hash, key)
}

// Get returns a copy of the value bound to key.
func (b *BytesMap) Get(c *Ctx, key []byte) ([]byte, bool) {
	v, _, _, ok := b.GetItem(c, key)
	return v, ok
}

// GetItem returns copies of the value, metadata and aux word bound to key.
func (b *BytesMap) GetItem(c *Ctx, key []byte) (value []byte, meta uint16, aux uint64, ok bool) {
	value, meta, aux, _, ok = b.AppendItem(c, nil, key)
	return value, meta, aux, ok
}

// AppendItem is GetItem appending the value to dst (see appendEntryValue)
// instead of copying it into a slice of its own, and returning the found
// entry's slot too (see slot): an identity of the entry, not of the key, that
// the caller may key volatile per-entry state by. A replace writes a new
// entry, so the key's slot changes with it. The value is nil and the slot 0
// when key is absent.
func (b *BytesMap) AppendItem(c *Ctx, dst, key []byte) (value []byte, meta uint16, aux, slot uint64, ok bool) {
	hash := bytesHash(key)
	c.ep.Begin()
	defer c.ep.End()
	e, found := b.find(c, hash, key)
	if !found {
		return nil, 0, 0, 0, false
	}
	return appendEntryValue(b.s, dst, e), b.EntryMeta(e), b.EntryAux(e), b.slot(e), true
}

// Contains reports whether key is present.
func (b *BytesMap) Contains(c *Ctx, key []byte) bool {
	_, ok := b.Find(c, key)
	return ok
}

// Set binds key to value (with metadata and aux word), durably: a one-step
// Update whose step sets (KeyStep.Set). Returns whether the key was newly
// created.
func (b *BytesMap) Set(c *Ctx, key, value []byte, meta uint16, aux uint64) (created bool, err error) {
	err = b.Update(c, key, func(st *KeyStep) error {
		created, err = st.Set(value, meta, aux)
		return err
	})
	return created, err
}

// SetAux durably replaces the aux word of an existing entry in place
// (touch-style update: no entry rewrite). Returns false if key is absent.
func (b *BytesMap) SetAux(c *Ctx, key []byte, aux uint64) (ok bool) {
	b.Update(c, key, func(st *KeyStep) error {
		ok = st.SetAux(aux)
		return nil
	})
	return ok
}

// Delete removes key durably. Returns false if key is absent.
func (b *BytesMap) Delete(c *Ctx, key []byte) (ok bool) {
	b.Update(c, key, func(st *KeyStep) error {
		ok = st.Delete()
		return nil
	})
	return ok
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

// walkChunk is how many buckets one walk step covers. A step is one epoch
// section, so this bounds how long a walker — however slowly its caller
// consumes what it found — holds reclamation back.
const walkChunk = 64

// walkEntries is one step of the bucket walk: fn sees every live entry of the
// walkChunk buckets starting at bucket cursor, under one epoch section. It
// returns the cursor of the next step, 0 once the last bucket is done. When fn
// returns false the step ends with the bucket it was in.
func (b *BytesMap) walkEntries(c *Ctx, cursor uint64, fn func(e Addr) bool) (next uint64) {
	c.ep.Begin()
	defer c.ep.End()
	dev := b.s.dev
	n := b.NumBuckets()
	i := int(min(cursor, uint64(n)))
	for to := min(i+walkChunk, n); i < to; i++ {
		stopped := false
		for e := ptrtag.Addr(dev.Load(b.head(i) + nNext)); e != b.tail && !stopped; {
			w := dev.Load(e + nNext)
			stopped = !ptrtag.IsMarked(w) && !fn(e)
			e = ptrtag.Addr(w)
		}
		if stopped {
			i++
			break
		}
	}
	if i >= n {
		return 0
	}
	return uint64(i)
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
// when 0 comes back. The table has a fixed bucket count and each call visits
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
		dev.LoadBytes(e+beData, k)
		return visit(WalkEntry{Key: k, Meta: uint16(hdr >> 48), Aux: dev.Load(e + beAux),
			ValueLen: int(hdr >> 16 & 0xFFFFFFFF), s: b.s, e: e})
	})
}
