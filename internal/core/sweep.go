package core

import (
	"math/bits"

	"repro/internal/pmem"
)

// This file implements the address-order sweep: a walk over the entry
// extents of a byte map's store in the order of their device addresses,
// allocator page by allocator page. An eviction hand that takes its victims
// in this order frees slots that sit together, so the unlinks land in the
// few areas NV-epochs already holds active (§5.4) and the freed slots are
// reused from the same pages. The bucket walk (Walk) visits keys in hash
// order, which scatters them over the device.
//
// The sweep reads the allocator's pages, not the map: an allocated slot of
// an entry class is presented if it has an entry's shape (entryShape) and
// its stored index hash is the hash of its stored key. That admits replaced
// or deleted versions not yet freed, entries of other byte maps on the same
// store and extents still being written; Live tells the map's own current
// entries from them. An address sweep can miss a key that is rewritten
// behind its cursor, so it does not meet Walk's contract and does not stand
// in for it.

// sweepPages is how many allocator pages one sweep step covers. A step is one
// epoch section.
const sweepPages = 4

// SweepEntry is one entry extent as Sweep presents it to its visitor, valid
// until the visitor returns.
type SweepEntry struct {
	Key  []byte // the context's scratch buffer; copy it to keep it
	Aux  uint64
	Slot uint64 // the extent's slot, as AppendItem and KeyStep.Slot report it

	b    *BytesMap
	c    *Ctx
	e    Addr
	hash uint64 // the key's index hash, as stored in the entry
}

// Live reports whether the extent is the entry its key is bound to in the
// map now: the search for its key lands on it, as in recovery
// (bytesRecover.Keep). Call it only on an entry about to be acted on.
func (w SweepEntry) Live() bool {
	_, curr, _, found := searchFrom(w.c, w.b.s, w.b.bucket(w.hash), w.hash, w.Key)
	return found && curr == w.e
}

// Sweep is one step of the address-order sweep: visit sees the entry-shaped
// extents of the next sweepPages allocator pages from cursor, in address
// order, under one epoch section. Start at cursor 0 and pass each returned
// cursor to the next call; 0 comes back once the step reached the end of the
// carved heap. Class-0 pages (sentinels and list nodes) and regions are
// skipped. When
// visit returns false the step ends there, and the returned cursor resumes
// at the next extent.
func (b *BytesMap) Sweep(c *Ctx, cursor uint64, visit func(SweepEntry) bool) (next uint64) {
	c.ep.Begin()
	defer c.ep.End()
	pool, dev := b.s.pool, b.s.dev
	end := pool.HeapEnd()
	from := max(Addr(cursor), pmem.HeapStart)
	page := pmem.PageOf(from)
	for n := 0; n < sweepPages && page < end; n++ {
		cl, bm, ok, following := pool.HeapPage(page)
		if ok && cl >= 1 {
			size := Addr(cl.Size())
			if first := page + pmem.SlotAlign; from > first {
				bm &^= 1<<((from-first+size-1)/size) - 1 // slots before the cursor
			}
			for ; bm != 0; bm &= bm - 1 {
				e := page + pmem.SlotAlign + Addr(bits.TrailingZeros64(bm))*size
				hdr, ok := entryShape(b.s, e, cl)
				if !ok {
					continue
				}
				k := c.walkKey[:hdr&0xFFFF]
				dev.LoadBytes(e+beData, k)
				hash := dev.Load(e + beHash)
				if bytesHash(k) != hash {
					continue
				}
				if !visit(SweepEntry{Key: k, Aux: dev.Load(e + beAux), Slot: b.slot(e), b: b, c: c, e: e, hash: hash}) {
					return uint64(e + size)
				}
			}
		}
		page, from = following, following
	}
	if page >= end {
		return 0
	}
	return uint64(page)
}
