package core

import (
	"fmt"
	"math/bits"

	"repro/internal/pmem"
	"repro/internal/ptrtag"
)

// AuditHeap checks, over the whole heap rather than the active areas, what a
// recovery pass must leave behind (§5.5: every leak sits in an area the APTs
// name, or is reached from one): every allocated slot on every object page —
// class 0's list, hash, skip list, BST, queue and stack nodes and sentinels
// as well as the entry classes' entries — is claimed by one of rs's Keep,
// and no claimed entry keeps a replace's freeze. Every recoverer is
// prepared against the whole heap first (Prepare with a nil area set). It
// returns the number of allocated slots it audited and, of those, entries
// (entry-shaped slots whose stored hash is their key's), and an error naming
// the first slot, page and class that fails.
//
// It is a check for tests. Run it on c's store, quiescent, right after a
// recovery or once reclamation has drained: a replaced or deleted object
// that waits for its generation is allocated and claimed by nobody.
func AuditHeap(c *Ctx, rs []Recoverer) (slots, entries int, err error) {
	s := c.s
	pool, dev := s.pool, s.dev
	for _, r := range rs {
		r.Prepare(c, nil)
	}
	for page := pmem.HeapStart; page < pool.HeapEnd(); {
		cl, bm, ok, next := pool.HeapPage(page)
		for ; ok && bm != 0; bm &= bm - 1 {
			n := page + pmem.SlotAlign + Addr(bits.TrailingZeros64(bm))*Addr(cl.Size())
			entry := false
			if cl >= 1 {
				var hdr uint64
				if hdr, entry = entryShape(s, n, cl); entry {
					key := c.walkKey[:hdr&0xFFFF]
					dev.LoadBytes(n+beData, key)
					entry = bytesHash(key) == dev.Load(n+beHash)
				}
			}
			if entry && ptrtag.IsTagged(dev.Load(n+nNext)) {
				return slots, entries, fmt.Errorf("core: audit: entry %#x (page %#x, class %d) keeps a replace's freeze", n, page, cl)
			}
			kept := false
			for _, r := range rs {
				if kept = r.Keep(c, n); kept {
					break
				}
			}
			if !kept {
				return slots, entries, fmt.Errorf("core: audit: allocated slot %#x (page %#x, class %d) is claimed by no structure", n, page, cl)
			}
			slots++
			if entry {
				entries++
			}
		}
		page = next
	}
	return slots, entries, nil
}
