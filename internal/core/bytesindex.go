package core

import (
	"sync/atomic"

	"repro/internal/pmem"
	"repro/internal/ptrtag"
)

// This file implements the ordered durable bytes layer: OrderedBytesMap
// stores arbitrary []byte keys and values — the same slab-extent entries as
// BytesMap (bytes.go) — but indexes them with a byte-key-comparing durable
// skip list instead of a hash table, so the map answers ordered queries:
// range scans, ascending/descending iteration, Min/Max.
//
// Index nodes do not embed keys. Each node carries one extent-anchored key
// reference: the address of the entry extent holding the full key and value
// bytes. find compares full keys through the slab on every step, so
// same-hash or shared-prefix byte keys can never alias or reorder — order
// is defined by bytes.Compare over the complete key, nothing else.
//
// Durability follows the skip list of §3 (skiplist.go): the level-0 list
// defines the abstract map state, so link-and-persist is applied to every
// level-0 link — the insert's level-0 CAS, the level-0 deletion mark, and
// the level-0 physical unlink. Index levels are volatile quality and are
// rebuilt from the durable level-0 chain on recovery. A value replacement
// writes a fresh entry extent and publishes it with a single durable word
// swap of the node's entry reference, so a crash leaves the old binding or
// the new one, never neither and never a torn mix.
//
// The link cache identifies links by uint64 keys; ordered-map operations
// use the entry's persisted index hash (beHash) for deposits and scans,
// exactly as the hash-indexed map does.
//
// Node layout (allocated from the size class fitting the tower; the first
// cache line covers entry, top and next[0..5], so one write-back covers
// everything durability needs):
//
//	[0]  entry extent address (head sentinel: 0, tail sentinel: ^0)
//	[8]  topLevel
//	[16] next[topLevel+1]
const (
	oEntry = 0
	oTop   = 8
	oNext0 = 16
)

func oNext(i int) Addr { return Addr(oNext0 + 8*i) }

func oClassFor(top int) pmem.Class {
	c, err := pmem.ClassFor(uint64(oNext0 + 8*(top+1)))
	if err != nil {
		panic(err)
	}
	return c
}

// OrderedBytesMap is a durable lock-free-read ordered map from byte keys to
// byte values. Reads and scans are lock-free (epoch-protected); the
// lifecycle of a key (set/delete) is serialized per index-key hash by the
// Store's stripe locks, as BytesMap's is. Scans visit keys in strictly
// ascending byte order.
type OrderedBytesMap struct {
	s    *Store
	head Addr
	tail Addr

	// hint is a volatile upper bound on the highest index level any live
	// node has linked (bumped before a taller tower links, lowered only by
	// RebuildIndex). find starts its descent here instead of MaxLevel-1,
	// skipping the always-empty top levels; starting low is safe because
	// every level's links form a valid sublist on their own.
	hint atomic.Int32
}

// NewOrderedBytesMap creates an empty ordered durable byte-key map. Persist
// Head/Tail in root slots (or a directory) to re-attach later.
func NewOrderedBytesMap(c *Ctx) (*OrderedBytesMap, error) {
	dev := c.s.dev
	tail, err := c.ep.AllocNode(oClassFor(MaxLevel - 1))
	if err != nil {
		return nil, err
	}
	dev.Store(tail+oEntry, ^uint64(0))
	dev.Store(tail+oTop, MaxLevel-1)
	for i := 0; i < MaxLevel; i++ {
		dev.Store(tail+oNext(i), 0)
	}
	c.clwb(tail)

	head, err := c.ep.AllocNode(oClassFor(MaxLevel - 1))
	if err != nil {
		return nil, err
	}
	dev.Store(head+oEntry, 0)
	dev.Store(head+oTop, MaxLevel-1)
	for i := 0; i < MaxLevel; i++ {
		dev.Store(head+oNext(i), tail)
	}
	c.clwb(head)
	c.fence()
	return &OrderedBytesMap{s: c.s, head: head, tail: tail}, nil
}

// bumpHint raises the level hint to at least top.
func (o *OrderedBytesMap) bumpHint(top int) {
	for {
		h := o.hint.Load()
		if h >= int32(top) || o.hint.CompareAndSwap(h, int32(top)) {
			return
		}
	}
}

// AttachOrderedBytesMap reopens a map from its durable sentinels. Call
// RebuildIndex (or run its Recoverer) before serving operations after a
// crash.
func AttachOrderedBytesMap(s *Store, head, tail Addr) *OrderedBytesMap {
	o := &OrderedBytesMap{s: s, head: head, tail: tail}
	o.hint.Store(MaxLevel - 1) // conservative until RebuildIndex measures
	return o
}

// Head returns the head sentinel address (persist it).
func (o *OrderedBytesMap) Head() Addr { return o.head }

// Tail returns the tail sentinel address (persist it).
func (o *OrderedBytesMap) Tail() Addr { return o.tail }

// nodeEntry reads a node's entry reference (0 for head, ^0 for tail).
func (o *OrderedBytesMap) nodeEntry(n Addr) Addr { return Addr(o.s.dev.Load(n + oEntry)) }

// nodeKey reads a node's full key bytes through the slab.
func (o *OrderedBytesMap) nodeKey(n Addr) []byte {
	return bytesEntryKey(o.s, o.nodeEntry(n))
}

// nodeHash reads the persisted index hash of a node's entry (the link-cache
// identity of every link this node participates in). Sentinels map to 0.
func (o *OrderedBytesMap) nodeHash(n Addr) uint64 {
	if n == o.head || n == o.tail {
		return 0
	}
	return bytesEntryHash(o.s, o.nodeEntry(n))
}

// cmpNode orders node n against key: head precedes and tail follows every
// user key; other nodes compare by their full key bytes, read straight from
// the slab without copying (find compares O(log n) keys per operation; a
// copy per comparison would dominate the walk).
func (o *OrderedBytesMap) cmpNode(n Addr, key []byte) int {
	switch n {
	case o.head:
		return -1
	case o.tail:
		return 1
	}
	return bytesEntryKeyCompare(o.s, o.nodeEntry(n), key)
}

// find locates key, filling preds/succs per level and snipping every marked
// node it encounters (helping). Level-0 snips follow the full §3 discipline:
// mark persisted, edge persisted before modification, PreRetire before the
// unlink becomes durable; index-level snips are plain CASes. In recovery
// mode a level-0 snip also frees the node and its entry extent immediately
// (their crashed deleter can no longer retire them).
func (o *OrderedBytesMap) find(c *Ctx, key []byte, preds, succs *[MaxLevel]Addr) bool {
	dev := o.s.dev
	// One-entry comparison memo: the node that stops the walk at level L is
	// usually the first node visited again at level L-1, and node keys are
	// immutable (a replace swaps the entry for one with the same key), so
	// its comparison outcome can be reused across levels and retries.
	memoNode, memoCmp := Addr(0), 0
	start := int(o.hint.Load())
	// Levels above the descent start are not walked; fill them with the
	// empty-level expectation (head→tail) so a caller that links there —
	// possible when a concurrent insert bumps the hint between this find
	// and the caller's own hint check — CASes against a real expectation
	// and simply fails into its re-find path instead of dereferencing
	// stale array contents.
	for level := start + 1; level < MaxLevel; level++ {
		preds[level] = o.head
		succs[level] = o.tail
	}
retry:
	for {
		pred := o.head
		for level := start; level >= 0; level-- {
			curr := ptrtag.Addr(dev.Load(pred + oNext(level)))
			for {
				if curr == o.tail {
					break
				}
				currW := dev.Load(curr + oNext(level))
				for ptrtag.IsMarked(currW) {
					succ := ptrtag.Addr(currW)
					if level == 0 {
						c.ensureDurable(curr + oNext(0))
						predW := c.loadClean(pred + oNext(0))
						if ptrtag.Addr(predW) != curr || ptrtag.IsMarked(predW) {
							continue retry
						}
						c.ep.PreRetire(curr)
						if !c.linkCached(o.nodeHash(curr), pred+oNext(0), predW, succ) {
							continue retry
						}
						if c.ep.InRecovery() {
							// Quiescent: the index was rebuilt without this
							// node, so the level-0 snip fully unlinks it; the
							// node and the entry it anchors can be freed right
							// away.
							c.ep.Retire(o.nodeEntry(curr))
							c.ep.Retire(curr)
						}
					} else {
						predW := dev.Load(pred + oNext(level))
						if ptrtag.Addr(predW) != curr || ptrtag.IsMarked(predW) {
							continue retry
						}
						if !dev.CAS(pred+oNext(level), predW, succ) {
							continue retry
						}
					}
					curr = succ
					if curr == o.tail {
						break
					}
					currW = dev.Load(curr + oNext(level))
				}
				if curr != o.tail {
					cr := memoCmp
					if curr != memoNode {
						cr = o.cmpNode(curr, key)
						memoNode, memoCmp = curr, cr
					}
					if cr < 0 {
						pred = curr
						curr = ptrtag.Addr(currW)
						continue
					}
				}
				break
			}
			preds[level] = pred
			succs[level] = curr
		}
		if succs[0] == o.tail {
			return false
		}
		cr := memoCmp
		if succs[0] != memoNode {
			cr = o.cmpNode(succs[0], key)
		}
		return cr == 0
	}
}

// Find returns the address of the live entry for key (0, false if absent).
// Get copies instead; addresses stay valid only in quiescent use.
func (o *OrderedBytesMap) Find(c *Ctx, key []byte) (Addr, bool) {
	c.ep.Begin()
	defer c.ep.End()
	var preds, succs [MaxLevel]Addr
	if !o.find(c, key, &preds, &succs) {
		return 0, false
	}
	return o.nodeEntry(succs[0]), true
}

// Get returns a copy of the value bound to key.
func (o *OrderedBytesMap) Get(c *Ctx, key []byte) ([]byte, bool) {
	v, _, _, ok := o.GetItem(c, key)
	return v, ok
}

// GetItem returns copies of the value, metadata and aux word bound to key,
// with §3 durability on the level-0 links proving presence or absence.
func (o *OrderedBytesMap) GetItem(c *Ctx, key []byte) (value []byte, meta uint16, aux uint64, ok bool) {
	hash := bytesHash(key)
	c.ep.Begin()
	defer c.ep.End()
	var preds, succs [MaxLevel]Addr
	found := o.find(c, key, &preds, &succs)
	c.scan(hash)
	c.ensureDurable(preds[0] + oNext(0))
	if !found {
		return nil, 0, 0, false
	}
	node := succs[0]
	c.ensureDurable(node + oNext(0))
	e := o.nodeEntry(node)
	return bytesEntryValue(o.s, e), bytesEntryMeta(o.s, e), bytesEntryAux(o.s, e), true
}

// Contains reports whether key is present.
func (o *OrderedBytesMap) Contains(c *Ctx, key []byte) bool {
	_, ok := o.Find(c, key)
	return ok
}

// Set binds key to value (with metadata and aux word), durably, through the
// write path (write.go): the entry is fully persisted before the single
// atomic link (new node's level-0 link-and-persist, or the
// entry-reference swap of an existing node) that publishes it. Returns
// whether the key was newly created. May return ErrOutOfMemory-wrapping
// errors under memory pressure.
func (o *OrderedBytesMap) Set(c *Ctx, key, value []byte, meta uint16, aux uint64) (created bool, err error) {
	if len(key) == 0 || len(key) > MaxBytesKeyLen {
		return false, ErrBadKey
	}
	p := writePlan{hash: bytesHash(key)}
	mu := o.s.stripe(p.hash)
	mu.Lock()
	defer mu.Unlock()
	c.ep.Begin()
	defer c.ep.End()
	return writeTarget{o: o}.write(c, key, value, meta, aux, &p)
}

// linkTower links a freshly published node's index levels (volatile quality;
// rebuilt on recovery).
func (o *OrderedBytesMap) linkTower(c *Ctx, key []byte, n Addr, top int, preds, succs *[MaxLevel]Addr) {
	dev := o.s.dev
	for level := 1; level <= top; level++ {
		for {
			nextW := dev.Load(n + oNext(level))
			if ptrtag.IsMarked(nextW) {
				// A concurrent delete reached this level; stop linking.
				o.find(c, key, preds, succs) // help complete the unlink
				return
			}
			if succs[level] != ptrtag.Addr(nextW) {
				if !dev.CAS(n+oNext(level), nextW, succs[level]) {
					continue
				}
			}
			if dev.CAS(preds[level]+oNext(level), succs[level], n) {
				break
			}
			o.find(c, key, preds, succs) // refresh preds/succs
			if succs[0] != n {
				return // our node was deleted already
			}
		}
	}
	if ptrtag.IsMarked(dev.Load(n + oNext(0))) {
		o.find(c, key, preds, succs)
	}
}

// SetAux durably replaces the aux word of an existing entry in place
// (touch-style update: no entry rewrite). Returns false if key is absent.
func (o *OrderedBytesMap) SetAux(c *Ctx, key []byte, aux uint64) bool {
	hash := bytesHash(key)
	mu := o.s.stripe(hash)
	mu.Lock()
	defer mu.Unlock()
	c.ep.Begin()
	defer c.ep.End()
	var preds, succs [MaxLevel]Addr
	if !o.find(c, key, &preds, &succs) {
		return false
	}
	e := o.nodeEntry(succs[0])
	o.s.dev.Store(e+beAux, aux)
	c.sync(e + beAux)
	return true
}

// Delete removes key durably: the level-0 deletion mark is the durable
// linearization point; the subsequent find physically unlinks the tower,
// after which the node and its entry extent are retired. Returns false if
// key is absent.
func (o *OrderedBytesMap) Delete(c *Ctx, key []byte) bool {
	hash := bytesHash(key)
	mu := o.s.stripe(hash)
	mu.Lock()
	defer mu.Unlock()
	c.ep.Begin()
	defer c.ep.End()
	dev := o.s.dev

	var preds, succs [MaxLevel]Addr
	if !o.find(c, key, &preds, &succs) {
		c.scan(hash)
		c.ensureDurable(preds[0] + oNext(0)) // absence must be durable
		return false
	}
	node := succs[0]
	e := o.nodeEntry(node)
	top := int(dev.Load(node + oTop))
	// Mark index levels top-down (plain CAS; volatile quality).
	for level := top; level >= 1; level-- {
		for {
			w := dev.Load(node + oNext(level))
			if ptrtag.IsMarked(w) {
				break
			}
			dev.CAS(node+oNext(level), w, w|ptrtag.Mark)
		}
	}
	// Durable linearization: mark level 0 with link-and-persist. The
	// predecessor's adjacent links must be durable first (§3).
	c.scan(hash)
	c.scan(o.nodeHash(preds[0]))
	c.ensureDurable(preds[0] + oNext(0))
	for {
		w := c.loadClean(node + oNext(0))
		if ptrtag.IsMarked(w) {
			// Unreachable under the stripe lock; defensive (a helper never
			// marks, only snips).
			o.find(c, key, &preds, &succs)
			return false
		}
		// The mark makes both the node and its entry durably dead; their
		// areas must be in the APT first (§5.4).
		c.ep.PreRetire(e)
		c.ep.PreRetire(node)
		if c.linkCached(hash, node+oNext(0), w, ptrtag.Addr(w)|ptrtag.Mark) {
			o.find(c, key, &preds, &succs) // snip the whole tower
			c.ep.Retire(node)
			c.ep.Retire(e)
			return true
		}
	}
}

// Len counts live keys via the level-0 chain (linearizable only in
// quiescence; diagnostic).
func (o *OrderedBytesMap) Len(c *Ctx) int {
	c.ep.Begin()
	defer c.ep.End()
	dev := o.s.dev
	n := 0
	curr := ptrtag.Addr(dev.Load(o.head + oNext(0)))
	for curr != o.tail {
		w := dev.Load(curr + oNext(0))
		if !ptrtag.IsMarked(w) {
			n++
		}
		curr = ptrtag.Addr(w)
	}
	return n
}

// ScanEntries visits the live entry addresses of every key k with
// start <= k < end, in strictly ascending byte order. A nil (or empty)
// start scans from the smallest key; a nil end scans through the largest.
//
// Scans are safe for concurrent use: the walk runs inside an epoch section,
// entries are immutable once published, and node keys never change — so a
// scan can never observe a torn entry or keys out of order. Under
// concurrent updates the scan is not a snapshot: it may miss keys inserted
// behind it and may see either binding of a concurrently replaced key. fn
// must not call operations on the same Ctx (epoch sections do not nest).
func (o *OrderedBytesMap) ScanEntries(c *Ctx, start, end []byte, fn func(e Addr) bool) {
	c.ep.Begin()
	defer c.ep.End()
	dev := o.s.dev
	var curr Addr
	if len(start) == 0 {
		curr = ptrtag.Addr(dev.Load(o.head + oNext(0)))
	} else {
		var preds, succs [MaxLevel]Addr
		o.find(c, start, &preds, &succs)
		curr = succs[0]
	}
	for curr != o.tail {
		w := dev.Load(curr + oNext(0))
		if !ptrtag.IsMarked(w) {
			e := o.nodeEntry(curr)
			if end != nil && bytesEntryKeyCompare(o.s, e, end) >= 0 {
				return
			}
			if !fn(e) {
				return
			}
		}
		curr = ptrtag.Addr(w)
	}
}

// Scan calls fn with key/value copies for every live key in [start, end),
// ascending (see ScanEntries for bounds and concurrency semantics).
func (o *OrderedBytesMap) Scan(c *Ctx, start, end []byte, fn func(key, value []byte) bool) {
	o.ScanEntries(c, start, end, func(e Addr) bool {
		return fn(bytesEntryKey(o.s, e), bytesEntryValue(o.s, e))
	})
}

// ScanItems is Scan including each entry's metadata and aux word.
func (o *OrderedBytesMap) ScanItems(c *Ctx, start, end []byte, fn func(key, value []byte, meta uint16, aux uint64) bool) {
	o.ScanEntries(c, start, end, func(e Addr) bool {
		return fn(bytesEntryKey(o.s, e), bytesEntryValue(o.s, e), bytesEntryMeta(o.s, e), bytesEntryAux(o.s, e))
	})
}

// Ascend visits every live key in ascending byte order.
func (o *OrderedBytesMap) Ascend(c *Ctx, fn func(key, value []byte) bool) {
	o.Scan(c, nil, nil, fn)
}

// Descend visits every live key in descending byte order. The skip list is
// singly linked, so Descend materializes the ascending pass first; prefer
// Ascend or Scan on very large maps.
func (o *OrderedBytesMap) Descend(c *Ctx, fn func(key, value []byte) bool) {
	type kv struct{ k, v []byte }
	var all []kv
	o.Scan(c, nil, nil, func(k, v []byte) bool {
		all = append(all, kv{k, v})
		return true
	})
	for i := len(all) - 1; i >= 0; i-- {
		if !fn(all[i].k, all[i].v) {
			return
		}
	}
}

// Min returns the smallest live key and its value.
func (o *OrderedBytesMap) Min(c *Ctx) (key, value []byte, ok bool) {
	c.ep.Begin()
	defer c.ep.End()
	dev := o.s.dev
	curr := ptrtag.Addr(dev.Load(o.head + oNext(0)))
	for curr != o.tail {
		w := dev.Load(curr + oNext(0))
		if !ptrtag.IsMarked(w) {
			e := o.nodeEntry(curr)
			return bytesEntryKey(o.s, e), bytesEntryValue(o.s, e), true
		}
		curr = ptrtag.Addr(w)
	}
	return nil, nil, false
}

// Max returns the largest live key and its value. The index levels descend
// toward the tail in O(log n); the final level-0 stretch tracks the last
// unmarked node.
func (o *OrderedBytesMap) Max(c *Ctx) (key, value []byte, ok bool) {
	c.ep.Begin()
	defer c.ep.End()
	dev := o.s.dev
	pred := o.head
	for level := int(o.hint.Load()); level >= 1; level-- {
		for {
			nxt := ptrtag.Addr(dev.Load(pred + oNext(level)))
			if nxt == o.tail || nxt == 0 {
				break
			}
			pred = nxt
		}
	}
	var last Addr
	curr := pred
	if curr == o.head {
		curr = ptrtag.Addr(dev.Load(o.head + oNext(0)))
	}
	for curr != o.tail && curr != 0 {
		w := dev.Load(curr + oNext(0))
		if !ptrtag.IsMarked(w) {
			last = curr
		}
		curr = ptrtag.Addr(w)
	}
	if last == 0 {
		// The index hint overshot live nodes (all marked past it); fall back
		// to a full level-0 walk.
		curr = ptrtag.Addr(dev.Load(o.head + oNext(0)))
		for curr != o.tail {
			w := dev.Load(curr + oNext(0))
			if !ptrtag.IsMarked(w) {
				last = curr
			}
			curr = ptrtag.Addr(w)
		}
	}
	if last == 0 {
		return nil, nil, false
	}
	e := o.nodeEntry(last)
	return bytesEntryKey(o.s, e), bytesEntryValue(o.s, e), true
}

// RebuildIndex reconstructs all index levels from the durable level-0
// chain. Called during recovery (the index is volatile by design).
// Quiescent use only.
func (o *OrderedBytesMap) RebuildIndex(c *Ctx) {
	dev := o.s.dev
	var tails [MaxLevel]Addr
	for i := range tails {
		tails[i] = o.head
	}
	maxTop := 0
	curr := ptrtag.Addr(dev.Load(o.head + oNext(0)))
	for curr != o.tail {
		w := dev.Load(curr + oNext(0))
		if !ptrtag.IsMarked(w) {
			top := int(dev.Load(curr + oTop))
			if top > MaxLevel-1 {
				top = MaxLevel - 1
			}
			if top > maxTop {
				maxTop = top
			}
			for i := 1; i <= top; i++ {
				dev.Store(tails[i]+oNext(i), curr)
				tails[i] = curr
			}
		}
		curr = ptrtag.Addr(w)
	}
	for i := 1; i < MaxLevel; i++ {
		dev.Store(tails[i]+oNext(i), o.tail)
	}
	o.hint.Store(int32(maxTop))
}

// --- Recovery ------------------------------------------------------------

// orderedRecover keeps an OrderedBytesMap's two object populations: index
// nodes (kept iff a full-key search lands exactly on them) and entry
// extents (kept iff the search for their stored key lands on a node whose
// entry reference is exactly this extent). Both checks apply condition (ii)
// of §5.5 — an uninitialized or foreign object fails its shape validation
// or the search — so the sweep never claims another structure's objects.
type orderedRecover struct{ o *OrderedBytesMap }

func (r orderedRecover) Prepare(c *Ctx, _ map[Addr]bool) {
	// The index levels are volatile by design; rebuild them from the
	// durable level-0 chain before any searches run. Logically deleted
	// nodes are excluded, so a later level-0 snip fully unlinks them.
	r.o.RebuildIndex(c)
}

func (r orderedRecover) Keep(c *Ctx, n Addr) bool {
	o := r.o
	if n == o.head || n == o.tail {
		return true
	}
	cl, ok := o.s.pool.PageClass(pmem.PageOf(n))
	if !ok {
		return true // not a heap page; leave alone
	}
	// Node interpretation: the object's first word would be its entry
	// reference; a genuine node's search lands on its own address.
	if key, valid := o.validNodeKey(n); valid {
		var preds, succs [MaxLevel]Addr
		if o.find(c, key, &preds, &succs) && succs[0] == n {
			return true
		}
	}
	// Entry interpretation (entries always live in classes >= 1): a genuine
	// entry is the current entry reference of the node its key lands on.
	if cl >= 1 {
		if key, valid := o.validEntryKey(n, cl); valid {
			var preds, succs [MaxLevel]Addr
			if o.find(c, key, &preds, &succs) && o.nodeEntry(succs[0]) == n {
				return true
			}
		}
	}
	return false
}

// validNodeKey reads the key referenced by a would-be node, first vetting
// the entry reference (entryAt) and the entry's shape, so garbage — such as
// a sibling uint64 structure's small key in that word — never faults the
// sweep.
func (o *OrderedBytesMap) validNodeKey(n Addr) ([]byte, bool) {
	e := Addr(o.s.dev.Load(n + oEntry))
	ecl, ok := o.s.entryAt(e)
	if !ok {
		return nil, false
	}
	return o.validEntryKey(e, ecl)
}

// validEntryKey vets an entry extent's shape (entryShape) and returns its key
// bytes.
func (o *OrderedBytesMap) validEntryKey(e Addr, cl pmem.Class) ([]byte, bool) {
	hdr, ok := entryShape(o.s, e, cl)
	if !ok {
		return nil, false
	}
	return loadBytes(o.s.dev, e+beData, int(hdr&0xFFFF)), true
}

// Recoverer returns the map's hook set for RecoverSet composition.
func (o *OrderedBytesMap) Recoverer() Recoverer { return orderedRecover{o} }

// RecoverOrderedBytesMap rebuilds the volatile index from the durable
// level-0 chain, then sweeps the active areas with full-key searches.
func RecoverOrderedBytesMap(s *Store, o *OrderedBytesMap, par int) RecoveryStats {
	return sweep(s, orderedRecover{o}, par)
}
