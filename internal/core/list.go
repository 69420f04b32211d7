package core

import (
	"repro/internal/epoch"
	"repro/internal/pmem"
	"repro/internal/ptrtag"
)

// List is a durable lock-free sorted linked list based on Harris's algorithm
// [DISC 2001], made durably linearizable with link-and-persist (§3):
//
//   - insert: the predecessor's adjacent links are persisted, the new node's
//     contents (and allocator/APT metadata) are fenced, then the linearizing
//     CAS installs the link with the Dirty mark, which is persisted and
//     cleared (Figure 1).
//   - delete: the target's and predecessor's adjacent links are persisted,
//     then the logical-deletion mark and the physical unlink are each
//     applied with link-and-persist.
//   - searches persist the adjacent links of the node they return (or the
//     link proving absence) before returning.
//
// Node layout (one 64-byte cache line, class 0): key, value, next. The next
// word's low bits carry the Harris mark and the Dirty mark.
type List struct {
	s    *Store
	head Addr // head sentinel (key 0); its next chains to tail (key ^0)
	tail Addr // tail sentinel (key ^0)
}

// Node field offsets.
const (
	nKey   = 0
	nValue = 8
	nNext  = 16

	listClass = pmem.Class(0)
)

func (s *Store) nodeKey(n Addr) uint64   { return s.dev.Load(n + nKey) }
func (s *Store) nodeValue(n Addr) uint64 { return s.dev.Load(n + nValue) }

// NewList creates an empty durable list anchored at a fresh sentinel pair.
// Persist the returned list's Head in a root slot to find it after restart.
func NewList(c *Ctx) (*List, error) {
	tail, err := c.ep.AllocNode(listClass)
	if err != nil {
		return nil, err
	}
	dev := c.s.dev
	dev.Store(tail+nKey, ^uint64(0))
	dev.Store(tail+nValue, 0)
	dev.Store(tail+nNext, 0)
	c.clwb(tail)

	head, err := c.ep.AllocNode(listClass)
	if err != nil {
		return nil, err
	}
	dev.Store(head+nKey, 0)
	dev.Store(head+nValue, 0)
	dev.Store(head+nNext, tail)
	c.clwb(head)
	c.fence()
	return &List{s: c.s, head: head, tail: tail}, nil
}

// AttachList reopens a list from its durable sentinel addresses.
func AttachList(s *Store, head, tail Addr) *List {
	return &List{s: s, head: head, tail: tail}
}

// Head returns the head sentinel address (store it in a root slot).
func (l *List) Head() Addr { return l.head }

// Tail returns the tail sentinel address (store it in a root slot).
func (l *List) Tail() Addr { return l.tail }

// checkKey panics on keys outside the user range; sentinels own the extremes.
func checkKey(key uint64) {
	if key < MinKey || key > MaxKey {
		panic("core: key out of range [MinKey, MaxKey]")
	}
}

// search returns the unmarked predecessor/current pair around key, helping
// to physically unlink (and durably persist the unlink of) any logically
// deleted nodes it passes — Harris's search with the durability rules of §3
// folded in. inPred is the address of the link word through which pred was
// reached (0 when pred is the head sentinel): update operations persist it
// so that all adjacent edges of the predecessor are durable before they make
// changes (§3).
func (l *List) search(c *Ctx, key uint64) (pred, curr, inPred Addr) {
	pred, curr, inPred, _ = searchFrom(c, l.s, l.head, key, nil)
	return pred, curr, inPred
}

// searchFrom runs the Harris search from an arbitrary head sentinel; the
// hash tables reuse it with per-bucket heads. It stops at the first node
// ordered at or after key and reports whether that node is key's. A byte
// map's bucket lists hold entries (bytes.go), ordered by hash and then, among
// equal hashes, by their key bytes: bkey is the byte key searched for, nil
// for the uint64 sets.
//
// A byte map's replace freezes the replaced entry's link with ptrtag.Tag
// until the replacement, which carries the same successor, takes its place
// (KeyStep.Set). The search does not unlink a marked successor of a frozen
// node; it steps past it and leaves it to a search through the replacement.
// In recovery no replace is in flight, so a freeze is a crashed replace's
// leftover and the unlink clears it.
func searchFrom(c *Ctx, s *Store, head Addr, key uint64, bkey []byte) (pred, curr, inPred Addr, found bool) {
	dev := s.dev
retry:
	for {
		pred = head
		inPred = 0
		curr = ptrtag.Addr(dev.Load(pred + nNext))
		for {
			currW := dev.Load(curr + nNext)
			if ptrtag.IsMarked(currW) {
				// curr is logically deleted: help unlink it. Before the edge
				// is modified it must be durable, as must the mark itself.
				succ := ptrtag.Addr(currW)
				c.ensureDurable(curr + nNext)
				predW := c.loadClean(pred + nNext)
				if ptrtag.Addr(predW) != curr || ptrtag.IsMarked(predW) {
					continue retry // pred moved or got deleted
				}
				if ptrtag.IsTagged(predW) && !c.ep.InRecovery() {
					curr = succ // pred is frozen
					continue
				}
				// The unlink makes curr durably unreachable: its area must
				// be in the APT first so recovery can free it (§5.4).
				c.ep.PreRetire(curr)
				if !c.linkCached(s.nodeKey(curr), pred+nNext, predW, succ) {
					continue retry
				}
				epoch.DebugNoteUnlink(curr, pred+nNext, predW, succ, 1)
				c.ep.Retire(curr)
				curr = succ
				continue
			}
			if k := s.nodeKey(curr); k >= key {
				if k > key || bkey == nil {
					return pred, curr, inPred, k == key
				}
				if cmp := bytesEntryKeyCompare(s, curr, bkey); cmp >= 0 {
					return pred, curr, inPred, cmp == 0
				}
			}
			inPred = pred + nNext
			pred = curr
			curr = ptrtag.Addr(currW)
		}
	}
}

// listFind is the shared read path: searchFrom with the §3 durability
// guarantees enforced before returning — the link proving the result, and
// the found node's own link.
func listFind(c *Ctx, s *Store, head Addr, key uint64, bkey []byte) (pred, curr, inPred Addr, found bool) {
	pred, curr, inPred, found = searchFrom(c, s, head, key, bkey)
	c.scan(key)
	c.ensureDurable(pred + nNext)
	if found {
		c.ensureDurable(curr + nNext)
	}
	return pred, curr, inPred, found
}

// listSearch is listFind for the uint64 sets: key's value.
func listSearch(c *Ctx, s *Store, head Addr, key uint64) (uint64, bool) {
	if _, curr, _, found := listFind(c, s, head, key, nil); found {
		return s.nodeValue(curr), true
	}
	return 0, false
}

// listInsert is the shared insert path (List and the hash table's buckets).
func listInsert(c *Ctx, s *Store, head Addr, key, value uint64) bool {
	dev := s.dev
	for {
		pred, curr, inPred, found := searchFrom(c, s, head, key, nil)
		c.scan(key)
		if found {
			// Failed insert: like a successful search, the links proving
			// presence must be durable before returning.
			c.ensureDurable(pred + nNext)
			c.ensureDurable(curr + nNext)
			return false
		}
		// All adjacent links of the predecessor must be durable before
		// linking (Figure 1, step 1): its outgoing edge, and its incoming
		// edge — which may still sit in the link cache under pred's key.
		if inPred != 0 {
			c.ensureDurable(inPred)
			c.scan(s.nodeKey(pred))
		}
		predW := c.loadClean(pred + nNext)
		if ptrtag.Addr(predW) != curr || ptrtag.IsMarked(predW) {
			continue
		}
		n, err := c.ep.AllocNode(listClass)
		if err != nil {
			panic(err) // out of simulated NVRAM: unrecoverable here
		}
		dev.Store(n+nKey, key)
		dev.Store(n+nValue, value)
		dev.Store(n+nNext, curr)
		c.clwb(n)
		// Fence: node contents, allocator bitmap, and APT entry are durable
		// before the node can become reachable (§5.5).
		c.fence()
		if c.linkCached(key, pred+nNext, predW, n) {
			return true
		}
		// Lost the race; the node was never visible, reclaim it directly.
		c.alloc.Free(n)
	}
}

// listUpsert is the shared upsert path (List, the hash table's buckets, and
// the bytes layer's index updates): insert key→value, or durably replace the
// value of an existing key in place. The value word shares the node's cache
// line with its links, so a single write-back covers the replacement.
// Returns true if the key was newly inserted.
func listUpsert(c *Ctx, s *Store, head Addr, key, value uint64) bool {
	for {
		_, curr, _, found := searchFrom(c, s, head, key, nil)
		c.scan(key)
		if !found {
			if listInsert(c, s, head, key, value) {
				return true
			}
			continue // raced with a concurrent insert of the same key
		}
		old := s.nodeValue(curr)
		if !s.dev.CAS(curr+nValue, old, value) {
			continue
		}
		if ptrtag.IsMarked(s.dev.Load(curr + nNext)) {
			continue // deleted concurrently: retry as an insert
		}
		c.f.Sync(curr + nValue)
		return false
	}
}

// listDelete is the shared delete path.
func listDelete(c *Ctx, s *Store, head Addr, key uint64) (uint64, bool) {
	pred, curr, inPred, found := searchFrom(c, s, head, key, nil)
	return listDeleteFrom(c, s, head, key, nil, pred, curr, inPred, found)
}

// listDeleteFrom is listDelete starting at a position searchFrom returned for
// (key, bkey); it searches again only when that position no longer holds.
func listDeleteFrom(c *Ctx, s *Store, head Addr, key uint64, bkey []byte, pred, curr, inPred Addr, found bool) (uint64, bool) {
	for ; ; pred, curr, inPred, found = searchFrom(c, s, head, key, bkey) {
		c.scan(key)
		if !found {
			c.ensureDurable(pred + nNext) // absence must be durable
			return 0, false
		}
		// Adjacent links of the target and of its predecessor must be
		// durable before unlinking (§3): pred's outgoing and incoming edges,
		// and the target's outgoing edge.
		if inPred != 0 {
			c.ensureDurable(inPred)
			c.scan(s.nodeKey(pred))
		}
		c.ensureDurable(pred + nNext)
		currW := c.loadClean(curr + nNext)
		if ptrtag.IsMarked(currW) {
			continue // another delete got here first; retry (search helps)
		}
		succ := ptrtag.Addr(currW)
		// The mark makes curr durably dead; recovery must know its area.
		c.ep.PreRetire(curr)
		if !c.linkCached(key, curr+nNext, currW, succ|ptrtag.Mark) {
			continue
		}
		value := s.nodeValue(curr)
		// Physical unlink, unless pred is frozen (searchFrom); on failure a
		// helper completes it (and retires).
		predW := c.loadClean(pred + nNext)
		if ptrtag.Addr(predW) == curr && predW&(ptrtag.Mark|ptrtag.Tag) == 0 {
			if c.linkCached(key, pred+nNext, predW, succ) {
				epoch.DebugNoteUnlink(curr, pred+nNext, predW, succ, 2)
				c.ep.Retire(curr)
			}
		}
		return value, true
	}
}

// Search looks key up. On hit it returns (value, true) after making the
// returned node's adjacent links durable; on miss it returns (0, false)
// after making the absence durable (§3, "Durable Implementations").
func (l *List) Search(c *Ctx, key uint64) (uint64, bool) {
	checkKey(key)
	c.ep.Begin()
	defer c.ep.End()
	return listSearch(c, l.s, l.head, key)
}

// Contains reports whether key is present.
func (l *List) Contains(c *Ctx, key uint64) bool {
	_, ok := l.Search(c, key)
	return ok
}

// Insert adds key→value. Returns false if key is already present. The
// insertion is durable (or dependency-flush-deferred via the link cache)
// when Insert returns.
func (l *List) Insert(c *Ctx, key, value uint64) bool {
	checkKey(key)
	c.ep.Begin()
	defer c.ep.End()
	return listInsert(c, l.s, l.head, key, value)
}

// Delete removes key, returning its value. The logical-deletion mark (the
// linearization point) and the physical unlink are both applied with
// link-and-persist.
func (l *List) Delete(c *Ctx, key uint64) (uint64, bool) {
	checkKey(key)
	c.ep.Begin()
	defer c.ep.End()
	return listDelete(c, l.s, l.head, key)
}

// Upsert inserts key→value or durably replaces the value of an existing key
// in place. Returns true if the key was newly inserted.
func (l *List) Upsert(c *Ctx, key, value uint64) bool {
	checkKey(key)
	c.ep.Begin()
	defer c.ep.End()
	return listUpsert(c, l.s, l.head, key, value)
}

// Len counts the live nodes (linearizable only in quiescence; diagnostic).
func (l *List) Len(c *Ctx) int {
	dev := l.s.dev
	n := 0
	curr := ptrtag.Addr(dev.Load(l.head + nNext))
	for l.s.nodeKey(curr) != ^uint64(0) {
		w := dev.Load(curr + nNext)
		if !ptrtag.IsMarked(w) {
			n++
		}
		curr = ptrtag.Addr(w)
	}
	return n
}

// Range calls fn for every live key/value in ascending order (quiescent use).
func (l *List) Range(c *Ctx, fn func(key, value uint64) bool) {
	dev := l.s.dev
	curr := ptrtag.Addr(dev.Load(l.head + nNext))
	for l.s.nodeKey(curr) != ^uint64(0) {
		w := dev.Load(curr + nNext)
		if !ptrtag.IsMarked(w) {
			if !fn(l.s.nodeKey(curr), l.s.nodeValue(curr)) {
				return
			}
		}
		curr = ptrtag.Addr(w)
	}
}
