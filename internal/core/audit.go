package core

import (
	"fmt"
	"math/bits"

	"repro/internal/pmem"
	"repro/internal/ptrtag"
)

// AuditHeap checks, over the whole heap rather than the active areas, what a
// recovery pass must leave behind (§5.5: every leak sits in an area the APTs
// name, or is reached from one): every allocated slot of an entry class
// (≥ 1) on every object page is claimed by one of rs's Keep — an entry that
// its key's search lands on, or a sibling structure's object — and no
// claimed entry keeps a replace's freeze. It returns the number of entries
// (entry-shaped slots whose stored hash is their key's) it audited, and an
// error naming the first slot, page and class that fails.
//
// It is a check for tests. Run it on c's store, quiescent, right after a
// recovery or once reclamation has drained: a replaced or deleted entry that
// waits for its generation is allocated and claimed by nobody.
func AuditHeap(c *Ctx, rs []Recoverer) (entries int, err error) {
	s := c.s
	pool, dev := s.pool, s.dev
	for page := pmem.HeapStart; page < pool.HeapEnd(); {
		cl, bm, ok, next := pool.HeapPage(page)
		for ; ok && cl >= 1 && bm != 0; bm &= bm - 1 {
			n := page + pmem.SlotAlign + Addr(bits.TrailingZeros64(bm))*Addr(cl.Size())
			hdr, entry := entryShape(s, n, cl)
			if entry {
				key := c.walkKey[:hdr&0xFFFF]
				dev.LoadBytes(n+beData, key)
				entry = bytesHash(key) == dev.Load(n+beHash)
			}
			if entry && ptrtag.IsTagged(dev.Load(n+nNext)) {
				return entries, fmt.Errorf("core: audit: entry %#x (page %#x, class %d) keeps a replace's freeze", n, page, cl)
			}
			kept := false
			for _, r := range rs {
				if kept = r.Keep(c, n); kept {
					break
				}
			}
			if !kept {
				return entries, fmt.Errorf("core: audit: allocated slot %#x (page %#x, class %d) is claimed by no structure", n, page, cl)
			}
			if entry {
				entries++
			}
		}
		page = next
	}
	return entries, nil
}
