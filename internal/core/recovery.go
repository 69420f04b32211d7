package core

import (
	"sync"
	"time"

	"repro/internal/pmem"
	"repro/internal/ptrtag"
)

// This file implements recovery after a transient failure (§5.5).
//
// The structures need no global consistency repair: a Harris mark, an NM
// flag, or a link-and-persist Dirty mark in the recovered image is a legal
// mid-operation state that subsequent operations help to completion. What
// recovery must do is eliminate persistent memory leaks: objects that are
// allocated but no longer (or not yet) reachable. NV-epochs bounds that
// search to the active memory areas recorded in the durable APT.
//
// Two sweep strategies, as in the paper:
//
//   - search-based (hash table, skip list, BST — structures with fast
//     search): for every allocated object in an active area, search the
//     structure for the object's key and keep the object only if the search
//     lands on that exact address (condition (ii) of §5.5 guards against
//     uninitialized keys). The searches double as helpers: they physically
//     unlink any logically deleted nodes they pass, and in recovery mode
//     the epoch context frees such nodes immediately.
//
//   - traversal-based (linked list — linear search would make the sweep
//     quadratic): traverse the structure once, collecting reachable
//     addresses that fall inside active areas, then free every allocated
//     address in those areas that was not collected (§5.5's second
//     approach, "similar to mark-and-sweep" §6.4).
//
// Both strategies parallelize by partitioning the object list (or, for the
// list, only the final sweep) across recovery contexts; idempotent frees
// (TryFree) make races between recovery workers harmless.

// RecoveryStats reports what a recovery pass did.
type RecoveryStats struct {
	ActiveAreas    int
	ObjectsChecked int
	Leaked         int // allocated-but-unreachable objects freed
	Duration       time.Duration
}

// Recoverer is the per-structure hook set used by the generic sweep. Obtain
// one from a structure's Recoverer method; RecoverSet composes any number of
// them into a single pass over the active areas, which is the only correct
// way to recover a store holding several structures — a lone structure's
// sweep would free its siblings' nodes as leaks.
type Recoverer interface {
	// Prepare restores volatile acceleration state (e.g. the skip list
	// index) and may pre-compute reachability against the active areas
	// (every area when areaSet is nil). Called once, single-threaded,
	// before any Keep call.
	Prepare(c *Ctx, areaSet map[Addr]bool)
	// Keep reports whether the allocated object at n is a live node of this
	// structure, helping any pending operation it encounters along the way.
	// It must never claim another structure's objects.
	Keep(c *Ctx, n Addr) bool
}

// RecoverSet runs one §5.5 recovery pass for a set of structures sharing a
// store: every allocated object in an active area is kept iff some
// structure's Keep claims it, otherwise it is freed as a persistent leak.
//
// A replace charges the entry it unlinks to the new entry's area, not to the
// replaced entry's own (RetireReplaced), so the pass also follows every
// swept object's beReplaced word, kept or not, and applies the same rule to
// the object it names: kept if claimed — which also clears a crashed
// replace's freeze (bytesRecover) — otherwise freed, and its own beReplaced
// followed in turn. The word may be stale (the replaced entry freed, its slot
// reused) or cut short by a crash, so it is vetted before any load through it
// (replacedOf); an allocated object that no structure claims is a leak
// whichever way the pass reached it. The words are read before any Keep runs,
// since a Keep that helps a delete frees the deleted entry on the spot.
func RecoverSet(s *Store, rs []Recoverer, par int) RecoveryStats {
	start := time.Now()
	if par < 1 {
		par = 1
	}
	if par > s.opts.MaxThreads {
		par = s.opts.MaxThreads
	}
	ctx0 := s.recoveryCtx(0)

	areas := s.mgr.ActiveAreas()
	areaSet := make(map[Addr]bool, len(areas))
	var objs []Addr
	for _, a := range areas {
		areaSet[a] = true
		objs = s.mgr.AllocatedInArea(objs, a)
	}
	replaced := make([]Addr, len(objs))
	for i, n := range objs {
		replaced[i] = s.replacedOf(n)
	}
	for _, r := range rs {
		r.Prepare(ctx0, areaSet)
	}
	stats := RecoveryStats{ActiveAreas: len(areas), ObjectsChecked: len(objs)}

	keep := func(c *Ctx, n Addr) bool {
		for _, r := range rs {
			if r.Keep(c, n) {
				return true
			}
		}
		return false
	}
	leaked := make([]int, par)
	followed := make([]int, par)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := s.recoveryCtx(w)
			for i := w; i < len(objs); i += par {
				// An object freed meanwhile (helping or another worker) is
				// skipped; its beReplaced is still followed.
				if n := objs[i]; s.pool.SlotAllocated(n) && !keep(c, n) && c.alloc.TryFree(n) {
					leaked[w]++
				}
				// Every step frees an allocated object, and nothing is
				// allocated during recovery, so the chain ends.
				for n := replaced[i]; n != 0 && s.pool.SlotAllocated(n) && !keep(c, n); {
					followed[w]++
					next := s.replacedOf(n)
					if c.alloc.TryFree(n) {
						leaked[w]++
					}
					n = next
				}
			}
			if s.lc != nil {
				s.lc.FlushAll(c.f)
			}
			c.f.Fence()
		}(w)
	}
	wg.Wait()
	for w := range leaked {
		stats.Leaked += leaked[w]
		stats.ObjectsChecked += followed[w]
	}
	s.endRecovery()
	stats.Duration = time.Since(start)
	return stats
}

// sweep is the single-structure driver, kept for the per-structure Recover
// entry points.
func sweep(s *Store, r Recoverer, par int) RecoveryStats {
	return RecoverSet(s, []Recoverer{r}, par)
}

// recoveryCtx returns the context for tid with the epoch layer in recovery
// mode.
func (s *Store) recoveryCtx(tid int) *Ctx {
	c := s.ctxs[tid]
	c.ep.SetRecovery(true)
	return c
}

func (s *Store) endRecovery() {
	s.ForEachCtx(func(c *Ctx) { c.ep.SetRecovery(false) })
}

// --- Hash table -------------------------------------------------------

type hashRecover struct{ h *HashTable }

func (hashRecover) Prepare(*Ctx, map[Addr]bool) {}

func (r hashRecover) Keep(c *Ctx, n Addr) bool {
	h := r.h
	if n == h.tail {
		return true
	}
	key := h.s.nodeKey(n)
	if key == 0 || key == ^uint64(0) {
		return false // only sentinels carry these keys; n is not one of ours
	}
	_, curr, _, _ := searchFrom(c, h.s, h.bucket(key), key, nil)
	return curr == n
}

// Recoverer returns the table's hook set for RecoverSet composition.
func (h *HashTable) Recoverer() Recoverer { return hashRecover{h} }

// RecoverHashTable sweeps the active areas with per-key searches (§5.5,
// first approach) using par parallel workers.
func RecoverHashTable(s *Store, h *HashTable, par int) RecoveryStats {
	return sweep(s, hashRecover{h}, par)
}

// --- Linked list ------------------------------------------------------

// listRecover implements the traversal-based strategy (§5.5, second
// approach — linear searches would make a search-based sweep quadratic):
// Prepare traverses the list once, snipping logically deleted nodes (freed
// immediately in recovery mode) and collecting the reachable addresses that
// fall inside active areas; Keep is then a set lookup.
type listRecover struct {
	l         *List
	reachable map[Addr]bool
}

func (r *listRecover) Prepare(c *Ctx, areaSet map[Addr]bool) {
	r.reachable = make(map[Addr]bool)
	collectChain(c, r.l.s, r.l.head, areaSet, r.reachable)
}

func (r *listRecover) Keep(c *Ctx, n Addr) bool {
	return n == r.l.head || n == r.l.tail || r.reachable[n]
}

// Recoverer returns the list's hook set for RecoverSet composition.
func (l *List) Recoverer() Recoverer { return &listRecover{l: l} }

// RecoverList recovers a list with the traversal-based strategy: one pass
// collects reachable addresses inside active areas, then the active areas
// are swept against the collected set, in parallel.
func RecoverList(s *Store, l *List, par int) RecoveryStats {
	return sweep(s, l.Recoverer(), par)
}

// collectChain walks one Harris chain from head, quiescently unlinking (and
// immediately freeing) logically deleted nodes, and records the reachable
// addresses that fall inside active areas (every one if areaSet is nil).
func collectChain(c *Ctx, s *Store, head Addr, areaSet map[Addr]bool, reachable map[Addr]bool) {
	dev := s.dev
	pred := head
	for {
		w := c.loadClean(pred + nNext)
		curr := ptrtag.Addr(w)
		currW := dev.Load(curr + nNext)
		if ptrtag.IsMarked(currW) {
			// Quiescent unlink of a logically deleted node.
			c.ep.PreRetire(curr)
			if c.linkAndPersist(pred+nNext, w, ptrtag.Addr(currW)) {
				c.ep.Retire(curr) // recovery mode: immediate free
			}
			continue
		}
		if areaSet == nil || areaSet[s.mgr.AreaOf(curr)] {
			reachable[curr] = true
		}
		if s.nodeKey(curr) == ^uint64(0) {
			break
		}
		pred = curr
	}
}

// hashTraversalRecover is the hash table under §5.5's *second* approach:
// one traversal of every bucket collects the reachable set, then Keep is a
// set lookup. Per-key searches (hashRecover) are normally faster — this
// variant exists because the paper describes both and their relative cost
// depends on structure size vs active-area volume.
type hashTraversalRecover struct {
	h         *HashTable
	reachable map[Addr]bool
}

func (r *hashTraversalRecover) Prepare(c *Ctx, areaSet map[Addr]bool) {
	h := r.h
	r.reachable = map[Addr]bool{h.tail: true}
	for i := 0; i <= int(h.mask); i++ {
		collectChain(c, h.s, h.head(i), areaSet, r.reachable)
	}
}

func (r *hashTraversalRecover) Keep(c *Ctx, n Addr) bool { return r.reachable[n] }

// RecoverHashTableTraversal recovers a hash table with the traversal-based
// strategy.
func RecoverHashTableTraversal(s *Store, h *HashTable, par int) RecoveryStats {
	return sweep(s, &hashTraversalRecover{h: h}, par)
}

// --- Skip list --------------------------------------------------------

type skipRecover struct{ sl *SkipList }

func (r skipRecover) Prepare(c *Ctx, _ map[Addr]bool) {
	// The index levels are volatile by design; rebuild them from the
	// durable level-0 chain before any searches run. Logically deleted
	// nodes are excluded, so a later level-0 snip fully unlinks them.
	r.sl.RebuildIndex(c)
}

func (r skipRecover) Keep(c *Ctx, n Addr) bool {
	sl := r.sl
	if n == sl.head || n == sl.tail {
		return true
	}
	key := sl.s.dev.Load(n + slKey)
	if key == 0 || key == ^uint64(0) {
		return false
	}
	var preds, succs [MaxLevel]Addr
	sl.find(c, key, &preds, &succs)
	return succs[0] == n
}

// Recoverer returns the skip list's hook set for RecoverSet composition.
func (sl *SkipList) Recoverer() Recoverer { return skipRecover{sl} }

// RecoverSkipList rebuilds the volatile index from the durable level-0
// chain, then sweeps the active areas with searches.
func RecoverSkipList(s *Store, sl *SkipList, par int) RecoveryStats {
	return sweep(s, skipRecover{sl}, par)
}

// --- BST --------------------------------------------------------------

type bstRecover struct{ t *BST }

func (bstRecover) Prepare(*Ctx, map[Addr]bool) {}

func (r bstRecover) Keep(c *Ctx, n Addr) bool {
	t := r.t
	dev := t.s.dev
	key := dev.Load(n + bKey)
	// Walk the access path for key: every reachable node whose range
	// contains key lies on it — internal nodes, leaves, and sentinels alike.
	var gpEdge, pEdge Addr
	cur := t.r
	for {
		if cur == n {
			break
		}
		left := ptrtag.Addr(dev.Load(cur + bLeft))
		if left == 0 {
			return false // reached a leaf that isn't n
		}
		edge := cur + dir(key, dev.Load(cur+bKey))
		gpEdge, pEdge = pEdge, edge
		cur = ptrtag.Addr(dev.Load(edge))
	}
	// n is reachable. If n is a leaf whose incoming edge carries a durable
	// flag, the deletion linearized before the crash and its owner is gone:
	// complete the splice quiescently and free both removed nodes.
	if pEdge != 0 && gpEdge != 0 && ptrtag.IsMarked(dev.Load(pEdge)) &&
		ptrtag.Addr(dev.Load(n+bLeft)) == 0 {
		r.resolve(c, gpEdge, pEdge, n)
		return false
	}
	return true
}

// resolve completes a crashed deletion: gpEdge → parent, pEdge (flagged) →
// leaf. Swings gpEdge to the sibling (preserving a travelling flag) and
// frees leaf and parent.
func (r bstRecover) resolve(c *Ctx, gpEdge, pEdge Addr, leaf Addr) {
	parent := pEdge &^ 63 // nodes are 64-byte aligned; pEdge = parent+16 or +24
	sibEdge := parent + bLeft
	if sibEdge == pEdge {
		sibEdge = parent + bRight
	}
	sw := c.loadClean(sibEdge)
	gw := c.loadClean(gpEdge)
	if ptrtag.Addr(gw) != parent {
		return // tree changed (another recovery worker resolved it)
	}
	newW := sw &^ (ptrtag.Tag | ptrtag.Dirty)
	if c.linkAndPersist(gpEdge, gw, newW) {
		c.alloc.TryFree(leaf)
		c.alloc.TryFree(parent)
	}
}

// Recoverer returns the BST's hook set for RecoverSet composition.
func (t *BST) Recoverer() Recoverer { return bstRecover{t} }

// RecoverBST sweeps the active areas with access-path checks, completing
// crashed two-phase deletions as it encounters their durable flags.
func RecoverBST(s *Store, t *BST, par int) RecoveryStats {
	return sweep(s, bstRecover{t}, par)
}

// --- Bytes map ----------------------------------------------------------

// bytesRecover keeps a BytesMap's objects: its tail sentinel, and each entry
// extent (class ≥ 1) that the search for its stored hash and key lands on.
// Condition (ii) of §5.5: an uninitialized or foreign object fails the shape
// check or the search and is not claimed. A kept entry loses any freeze a
// crashed replace left on its link. The frozen entry's own area need not be
// active: the replace froze it only once the new entry, which names it in
// beReplaced, was durable in an area its allocation made active, and
// RecoverSet follows that word to it.
type bytesRecover struct{ b *BytesMap }

func (bytesRecover) Prepare(*Ctx, map[Addr]bool) {}

func (r bytesRecover) Keep(c *Ctx, n Addr) bool {
	b := r.b
	if n == b.tail {
		return true
	}
	cl, ok := b.s.pool.PageClass(pmem.PageOf(n))
	if !ok {
		return true // not a heap page; leave alone
	}
	if cl == 0 {
		return false
	}
	hdr, ok := entryShape(b.s, n, cl)
	if !ok {
		return false
	}
	key := c.walkKey[:hdr&0xFFFF]
	b.s.dev.LoadBytes(n+beData, key)
	hash := b.s.dev.Load(n + beHash)
	if _, curr, _, found := searchFrom(c, b.s, b.bucket(hash), hash, key); !found || curr != n {
		return false
	}
	for w := c.loadClean(n + nNext); ptrtag.IsTagged(w); w = c.loadClean(n + nNext) {
		c.linkAndPersist(n+nNext, w, w&^ptrtag.Tag)
	}
	return true
}

// Recoverer returns the map's hook set for RecoverSet composition.
func (b *BytesMap) Recoverer() Recoverer { return bytesRecover{b} }

// RecoverBytesMap sweeps the active areas for a bytes map: entry extents by
// per-key search.
func RecoverBytesMap(s *Store, b *BytesMap, par int) RecoveryStats {
	return sweep(s, bytesRecover{b}, par)
}

// --- Custom sweeps ------------------------------------------------------

type customRecover struct {
	p func(*Ctx)
	k func(*Ctx, Addr) bool
}

func (r customRecover) Prepare(c *Ctx, _ map[Addr]bool) {
	if r.p != nil {
		r.p(c)
	}
}

func (r customRecover) Keep(c *Ctx, n Addr) bool { return r.k(c, n) }

// RecoverCustom runs the generic active-area sweep with a caller-supplied
// liveness check, for structures composed outside this package.
func RecoverCustom(s *Store, prepare func(*Ctx), keep func(*Ctx, Addr) bool, par int) RecoveryStats {
	return sweep(s, customRecover{prepare, keep}, par)
}

// KeepHashNode returns the liveness check RecoverHashTable uses for h's
// index nodes, for composition inside RecoverCustom.
func KeepHashNode(h *HashTable) func(*Ctx, Addr) bool {
	return hashRecover{h}.Keep
}
