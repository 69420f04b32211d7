// Package linkcache implements the paper's link cache (§4): an extremely
// fast, best-effort, volatile hash table holding data-structure links that
// have been modified but not yet durably written.
//
// Instead of persisting each updated link one at a time (one sync each), an
// update deposits the link's address in the cache and returns. When an
// operation that depends on one of the cached links occurs (detected by the
// mandatory Scan on every operation's key), the whole bucket is written back
// as one batch — one sync for up to six links. FlushAll, which the
// reclamation hooks run, writes every bucket back under one sync.
//
// The cache is strictly best effort: if an insertion cannot reserve an entry
// on the first try, or the bucket is being flushed, the caller falls back to
// plain link-and-persist. Insertions therefore have constant worst-case
// cost, and losing the entire cache in a crash is safe: a link still in the
// cache means no operation depending on it completed (§4.1).
//
// Layout mirrors Figure 2 (flush flag, per-entry state, 2-byte key hashes,
// six link addresses per bucket). The Go port widens the hash and state
// words for portable atomics; the semantics — six entries per bucket, one
// batched write-back per flush, 16-bit hash collisions causing only
// spurious flushes — are identical.
package linkcache

import (
	"math/bits"
	"runtime"
	"sync/atomic"

	"repro/internal/nvram"
	"repro/internal/ptrtag"
)

// Addr is a byte offset into the device.
type Addr = nvram.Addr

// Entries per bucket, as in the paper (Figure 2).
const entriesPerBucket = 6

// Entry states.
const (
	stFree    = 0
	stPending = 1
	stBusy    = 2
	// stSunk: written back by a flush that has not fenced yet. The entry
	// stays taken until the flush releases its bucket, so a Scan that meets
	// it waits for the fence instead of returning ahead of it.
	stSunk = 3

	flushFlag   = uint64(1)
	stateShift  = 16 // states live at bits 16..27, 2 bits each
	stateMaskAt = 0b11
)

type bucket struct {
	ctrl atomic.Uint64 // bit 0: flushing; bits 16+2i: state of entry i
	hash [entriesPerBucket]atomic.Uint32
	addr [entriesPerBucket]atomic.Uint64
	_    [8]uint64 // pad to keep buckets off each other's lines
}

func state(ctrl uint64, i int) uint64 { return (ctrl >> (stateShift + 2*i)) & stateMaskAt }

func withState(ctrl uint64, i int, s uint64) uint64 {
	shift := uint(stateShift + 2*i)
	return ctrl&^(uint64(stateMaskAt)<<shift) | s<<shift
}

// AddResult reports the outcome of TryLinkAndAdd.
type AddResult int

const (
	// Added: the link was atomically updated and cached; the caller may
	// return without a sync (completion deferred until the bucket flushes).
	Added AddResult = iota
	// CASFailed: the data-structure CAS failed (lost a race); the cache
	// entry was released. The caller retries its operation.
	CASFailed
	// NoSpace: the cache could not accept the entry (full, contended, or
	// flushing); the caller must persist the link itself (link-and-persist).
	NoSpace
)

// Stats counts cache behaviour.
type Stats struct {
	Adds      uint64
	NoSpace   uint64
	CASFails  uint64
	Flushes   uint64 // buckets written back, whatever triggered it
	Scans     uint64
	ScanHits  uint64
	LinksSunk uint64 // links written back by flushes

	Fences           uint64 // fences the flushes issued
	DependentFlushes uint64 // buckets written back for a dependent operation (Scan, FlushBucketOf)
	FlushAlls        uint64 // FlushAll calls
}

// Cache is a link cache for one device. Safe for concurrent use.
type Cache struct {
	dev     *nvram.Device
	buckets []bucket

	// busy over-approximates the number of finalized (stBusy) entries in
	// the whole cache. FlushAll — invoked on every APT trim and every
	// reclamation batch — returns immediately when it is zero, instead of
	// probing all buckets; in steady states where deposits are rare the
	// hooks become free.
	busy atomic.Int64

	adds      atomic.Uint64
	noSpace   atomic.Uint64
	casFails  atomic.Uint64
	flushes   atomic.Uint64
	scans     atomic.Uint64
	scanHits  atomic.Uint64
	linksSunk atomic.Uint64
	fences    atomic.Uint64
	dependent atomic.Uint64
	flushAlls atomic.Uint64
}

// New creates a cache with nbuckets buckets (the paper's configuration uses
// 32, occupying 32 cache lines).
func New(dev *nvram.Device, nbuckets int) *Cache {
	if nbuckets <= 0 {
		nbuckets = 32
	}
	return &Cache{dev: dev, buckets: make([]bucket, nbuckets)}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Adds:      c.adds.Load(),
		NoSpace:   c.noSpace.Load(),
		CASFails:  c.casFails.Load(),
		Flushes:   c.flushes.Load(),
		Scans:     c.scans.Load(),
		ScanHits:  c.scanHits.Load(),
		LinksSunk: c.linksSunk.Load(),

		Fences:           c.fences.Load(),
		DependentFlushes: c.dependent.Load(),
		FlushAlls:        c.flushAlls.Load(),
	}
}

// FlushLines is the most links one fence of FlushAll writes back: size a
// flusher's pending batch by it (nvram.Flusher.Reserve).
func (c *Cache) FlushLines() int { return min(len(c.buckets), flushRound) * entriesPerBucket }

// mix is a 64-bit finalizer (splitmix64); bucket index and the 16-bit entry
// hash are taken from independent bit ranges.
func mix(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xBF58476D1CE4E5B9
	k ^= k >> 27
	k *= 0x94D049BB133111EB
	k ^= k >> 31
	return k
}

func (c *Cache) locate(key uint64) (*bucket, uint32) {
	h := mix(key)
	return &c.buckets[h%uint64(len(c.buckets))], uint32(h>>48) | 1 // nonzero 16-bit hash
}

// TryLinkAndAdd atomically installs new (which must carry ptrtag.Dirty) over
// old at linkAddr and records the link in the cache, following the paper's
// protocol: reserve an entry (free→pending), publish hash and address,
// perform the data-structure CAS, finalize (pending→busy). The caller clears
// the Dirty mark afterwards; every reader path must Scan its key so the
// in-flight window is covered.
func (c *Cache) TryLinkAndAdd(key uint64, linkAddr Addr, old, new uint64) AddResult {
	b, h16 := c.locate(key)
	ctrl := b.ctrl.Load()
	if ctrl&flushFlag != 0 {
		c.noSpace.Add(1)
		return NoSpace
	}
	slot := -1
	for i := 0; i < entriesPerBucket; i++ {
		if state(ctrl, i) == stFree {
			slot = i
			break
		}
	}
	if slot < 0 || !b.ctrl.CompareAndSwap(ctrl, withState(ctrl, slot, stPending)) {
		// Best effort: one attempt only (§4.2).
		c.noSpace.Add(1)
		return NoSpace
	}
	b.hash[slot].Store(h16)
	b.addr[slot].Store(linkAddr)
	if !c.dev.CAS(linkAddr, old, new) {
		c.setState(b, slot, stFree)
		c.casFails.Add(1)
		return CASFailed
	}
	// Count before the stBusy transition: busy must OVER-approximate (a
	// concurrent flush could write the entry back and decrement between
	// the transition and a late increment, letting FlushAll's zero fast
	// path skip a bucket that still holds a finalized link).
	c.busy.Add(1)
	c.setState(b, slot, stBusy)
	c.adds.Add(1)
	return Added
}

// setState transitions one entry's state with a CAS loop (the control word
// is contended by concurrent reservations and the flush flag).
func (c *Cache) setState(b *bucket, i int, s uint64) {
	for {
		ctrl := b.ctrl.Load()
		if b.ctrl.CompareAndSwap(ctrl, withState(ctrl, i, s)) {
			return
		}
	}
}

// Scan searches the cache for links pertaining to key and enforces their
// durability, per §4.2: a busy entry triggers a bucket flush, and an entry a
// flush has written back but not yet fenced waits for that fence; a pending
// entry whose data-structure CAS already happened gets its link written back
// directly. Every data-structure operation calls Scan for its key (and for
// the predecessor's key on updates) before returning.
func (c *Cache) Scan(f *nvram.Flusher, key uint64) {
	c.scans.Add(1)
	b, h16 := c.locate(key)
	ctrl := b.ctrl.Load()
	for i := 0; i < entriesPerBucket; i++ {
		st := state(ctrl, i)
		if st == stFree || b.hash[i].Load() != h16 {
			continue
		}
		c.scanHits.Add(1)
		if st != stPending {
			if c.flushBucket(f, b) {
				c.dependent.Add(1)
			}
			return
		}
		// Pending: the inserter has reserved the entry but may or may not
		// have performed the link CAS yet. If the link carries the Dirty
		// mark, the CAS happened (our linearization point is after theirs):
		// write the link back ourselves. Otherwise their linearization point
		// is after ours and nothing needs to happen.
		a := b.addr[i].Load()
		if a == 0 {
			continue
		}
		if ptrtag.IsDirty(c.dev.Load(a)) {
			f.Sync(a)
		}
	}
}

// FlushBucketOf flushes the bucket that key maps to.
func (c *Cache) FlushBucketOf(f *nvram.Flusher, key uint64) {
	b, _ := c.locate(key)
	if c.flushBucket(f, b) {
		c.dependent.Add(1)
	}
}

// hasBusy reports whether a control word holds a finalized entry.
func hasBusy(ctrl uint64) bool {
	for i := 0; i < entriesPerBucket; i++ {
		if state(ctrl, i) == stBusy {
			return true
		}
	}
	return false
}

// claim sets b's flush flag, or reports false at once if another flush holds
// it.
func (b *bucket) claim() bool {
	for {
		ctrl := b.ctrl.Load()
		if ctrl&flushFlag != 0 {
			return false
		}
		if b.ctrl.CompareAndSwap(ctrl, ctrl|flushFlag) {
			return true
		}
	}
}

// release frees the entries a flush of b wrote back and drops its flag, in
// one step, once the flush's fence made them durable.
func (b *bucket) release() {
	for {
		ctrl := b.ctrl.Load()
		next := ctrl &^ flushFlag
		for i := 0; i < entriesPerBucket; i++ {
			if state(ctrl, i) == stSunk {
				next = withState(next, i, stFree)
			}
		}
		if b.ctrl.CompareAndSwap(ctrl, next) {
			return
		}
	}
}

// waitFlushed yields until the flush holding b's flag releases it: flags are
// held across a whole FlushAll, and a bare spin would keep the flusher off a
// core it may be waiting for.
func (b *bucket) waitFlushed() {
	for b.ctrl.Load()&flushFlag != 0 {
		runtime.Gosched()
	}
}

// writeBack schedules the write-back of every busy entry of b, whose flag the
// caller holds, until none is left, and returns how many it scheduled. The
// caller's fence completes them.
func (c *Cache) writeBack(f *nvram.Flusher, b *bucket) int {
	wrote := 0
	for {
		progress := false
		ctrl := b.ctrl.Load()
		for i := 0; i < entriesPerBucket; i++ {
			if state(ctrl, i) != stBusy {
				continue
			}
			f.CLWB(b.addr[i].Load())
			c.setState(b, i, stSunk)
			progress = true
			wrote++
		}
		if !progress {
			return wrote
		}
	}
}

// fence completes a flush of buckets buckets holding links links: one sync
// for the whole batch.
func (c *Cache) fence(f *nvram.Flusher, buckets, links int) {
	f.Fence()
	c.fences.Add(1)
	c.flushes.Add(uint64(buckets))
	c.linksSunk.Add(uint64(links))
	c.busy.Add(-int64(links))
}

// flushBucket writes back every finalized entry in b under a single fence
// (§4.2) and reports whether it did. If another thread is already flushing
// b, it waits for that flush and looks again: an entry can turn busy after
// that flush wrote the bucket back.
func (c *Cache) flushBucket(f *nvram.Flusher, b *bucket) (flushed bool) {
	for {
		// Fast path: nothing finalized and nobody flushing.
		if ctrl := b.ctrl.Load(); ctrl&flushFlag == 0 && !hasBusy(ctrl) {
			return false
		}
		if b.claim() {
			c.fence(f, 1, c.writeBack(f, b))
			b.release()
			return true
		}
		b.waitFlushed()
	}
}

// flushRound is how many buckets one FlushAll fence covers: the width of the
// bit sets that hold its claims. The paper's 32-bucket cache takes one.
const flushRound = 64

// FlushAll writes back every finalized entry of the cache under one fence
// per flushRound buckets. Used by the APT trim hook (§5.4: trimming must
// ensure the cache holds no entries for the pages under consideration), by
// reclamation, and at orderly shutdown.
func (c *Cache) FlushAll(f *nvram.Flusher) {
	c.flushAlls.Add(1)
	if c.busy.Load() == 0 {
		return // nothing finalized anywhere (the steady-state fast path)
	}
	for lo := 0; lo < len(c.buckets); lo += flushRound {
		c.flushAllRound(f, c.buckets[lo:min(lo+flushRound, len(c.buckets))])
	}
}

// flushAllRound is FlushAll over at most flushRound buckets. It claims, in
// index order, every bucket holding a finalized entry, writes all their
// entries back under one fence and releases them. Only then does it wait for
// the buckets another flush held — a flush never waits while it holds a
// flag, so flushes cannot wait on each other in a cycle — and goes over
// those again, as flushBucket does.
func (c *Cache) flushAllRound(f *nvram.Flusher, bs []bucket) {
	for todo := ^uint64(0) >> (flushRound - len(bs)); todo != 0; { // bit i stands for bs[i]
		var mine, theirs uint64
		links := 0
		for t := todo; t != 0; t &= t - 1 {
			i := bits.TrailingZeros64(t)
			b := &bs[i]
			if ctrl := b.ctrl.Load(); ctrl&flushFlag == 0 && !hasBusy(ctrl) {
				continue
			}
			if !b.claim() {
				theirs |= 1 << i
				continue
			}
			mine |= 1 << i
			links += c.writeBack(f, b)
		}
		if mine != 0 {
			c.fence(f, bits.OnesCount64(mine), links)
			for m := mine; m != 0; m &= m - 1 {
				bs[bits.TrailingZeros64(m)].release()
			}
		}
		for t := theirs; t != 0; t &= t - 1 {
			bs[bits.TrailingZeros64(t)].waitFlushed()
		}
		todo = theirs
	}
}

// Len returns the number of non-free entries (diagnostic).
func (c *Cache) Len() int {
	n := 0
	for i := range c.buckets {
		ctrl := c.buckets[i].ctrl.Load()
		for e := 0; e < entriesPerBucket; e++ {
			if state(ctrl, e) != stFree {
				n++
			}
		}
	}
	return n
}
