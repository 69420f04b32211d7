package core

import "repro/internal/ptrtag"

// This file is the byte maps' write path: every Set on a BytesMap or an
// OrderedBytesMap is applied here, in three phases:
//
//	stage    write the entry extent (and, for a fresh key, its index node)
//	         with write-backs scheduled but NOT fenced, planning the publish
//	         point against the current durable state. A Set that will unlink
//	         a replaced entry puts its area in the APT here (§5.4), so an APT
//	         miss's sync carries the pending content lines with it;
//	fence    ONE fence makes every pending content line durable together
//	         (the paper's one-pause-per-fence latency model, §6.1);
//	publish  the single linearizing link-and-persist.
//
// A Set costs two sync waits: the content fence and the publishing link
// (enforced by fencebudget_test.go).
//
// Correctness hinges on the key's stripe lock, the same one Delete and SetAux
// take: it freezes the publish point planned while staging, so no concurrent
// operation can touch the key's chain, index node or skip-list membership.
// Bucket and skip-list *neighbourhoods* may still shift under concurrent
// different-hash traffic; the publish revalidates its planned neighbours and,
// only when a planned successor really moved, restores the
// contents-before-reachability ordering with one extra sync.

// planKind is how a staged Set publishes.
type planKind uint8

const (
	planFresh planKind = iota + 1 // link a staged index node: a bucket node or a skip-list node
	planSwing                     // point an index node at the new entry: a bucket's chain head (prepend or head replace) or an ordered node's entry reference
	planMid                       // BytesMap mid-chain replace: swing the predecessor entry's next word
)

// writePlan is what staging a Set decided and publishing it needs.
type writePlan struct {
	hash     uint64
	kind     planKind
	e        Addr // staged entry extent
	n        Addr // staged index node (fresh), or the existing one (swing)
	replaced Addr // the entry the publish unlinks; 0 when the Set creates its key
	pred     Addr // BytesMap: bucket predecessor node (fresh), chain predecessor entry (mid)
	inPred   Addr // BytesMap fresh: the link word pred was reached through (0: the bucket head)
	next     Addr // fresh: planned successor, in the bucket or at skip-list level 0
	top      int  // OrderedBytesMap fresh: tower height

	preds, succs [MaxLevel]Addr // OrderedBytesMap: the key's neighbourhood
}

// writeTarget is the map a write applies to: exactly one of b and o is set.
// It dispatches statically, so the plan Set keeps on its stack does not
// escape.
type writeTarget struct {
	b *BytesMap
	o *OrderedBytesMap
}

// set is Set on either map.
func (t writeTarget) set(c *Ctx, key, value []byte, meta uint16, aux uint64) (created bool, err error) {
	if len(key) == 0 || len(key) > MaxBytesKeyLen {
		return false, ErrBadKey
	}
	if beData+len(key)+len(value) > MaxBytesEntrySize {
		return false, ErrTooLarge
	}
	p := writePlan{hash: bytesHash(key)}
	mu := c.s.stripe(p.hash)
	mu.Lock()
	defer mu.Unlock()
	c.ep.Begin()
	defer c.ep.End()

	if err := t.stage(c, key, value, meta, aux, &p); err != nil {
		// Staging fails before it plans a node, so at most the entry extent
		// was allocated; nothing was published.
		if p.e != 0 {
			c.alloc.Free(p.e)
		}
		return false, err
	}
	if p.replaced != 0 {
		// The publish makes the replaced entry durably unreachable; its area
		// must be in the APT first (§5.4).
		c.ep.PreRetire(p.replaced)
	}

	// One pause covers the staged entry, index node and allocator metadata
	// lines.
	c.fence()

	t.publish(c, key, &p)
	if p.replaced != 0 {
		c.ep.Retire(p.replaced)
		return false, nil
	}
	return true, nil
}

func (t writeTarget) stage(c *Ctx, key, value []byte, meta uint16, aux uint64, p *writePlan) error {
	if t.b != nil {
		return t.b.stage(c, key, value, meta, aux, p)
	}
	return t.o.stage(c, key, value, meta, aux, p)
}

func (t writeTarget) publish(c *Ctx, key []byte, p *writePlan) {
	if t.b != nil {
		t.b.publish(c, p)
	} else {
		t.o.publish(c, key, p)
	}
}

// --- Hash-indexed map -----------------------------------------------------

// stage looks key up as a Get does (the links proving presence or absence are
// made durable, §3), writes its entry with the chain tail it will carry, and
// for a fresh index key stages the bucket node.
func (b *BytesMap) stage(c *Ctx, key, value []byte, meta uint16, aux uint64, p *writePlan) error {
	s, hash := b.s, p.hash
	pred, curr, inPred := searchFrom(c, s, b.idx.bucket(hash), hash)
	c.scan(hash)
	c.ensureDurable(pred + nNext)
	exists := s.nodeKey(curr) == hash
	var head Addr
	if exists {
		c.ensureDurable(curr + nNext)
		head = Addr(s.nodeValue(curr))
		p.replaced, p.pred = b.findInChain(head, key)
	}
	// The new entry's chain tail skips the entry it replaces (a mid-chain
	// replacement publishes at its predecessor).
	next := head
	if p.replaced != 0 {
		next = b.entryNext(p.replaced)
	}
	var err error
	if p.e, err = writeBytesEntry(c, hash, key, value, meta, aux, next); err != nil {
		return err
	}
	switch {
	case exists && p.pred == 0:
		// Prepend (nothing replaced) or head replace: either way the index
		// node's value word swings from the current head to the new entry.
		p.kind, p.n = planSwing, curr
	case exists:
		p.kind = planMid
	default:
		n, err := c.ep.AllocNode(listClass)
		if err != nil {
			return err
		}
		dev := s.dev
		dev.StorePrivate(n+nKey, hash)
		dev.StorePrivate(n+nValue, uint64(p.e))
		dev.StorePrivate(n+nNext, uint64(curr))
		c.clwb(n)
		p.kind, p.n, p.pred, p.inPred, p.next = planFresh, n, pred, inPred, curr
	}
	return nil
}

func (b *BytesMap) publish(c *Ctx, p *writePlan) {
	dev := b.s.dev
	switch p.kind {
	case planFresh:
		b.publishFresh(c, p)
	case planSwing:
		c.scan(p.hash)
		dev.Store(p.n+nValue, uint64(p.e))
		c.sync(p.n + nValue)
	case planMid:
		// One atomic durable word swap: the old entry and the new one trade
		// reachability at this single point.
		dev.Store(p.pred+beNext, uint64(p.e))
		c.sync(p.pred + beNext)
	}
}

// publishFresh links a staged index node into its bucket after the planned
// predecessor, walking the bucket again only if that link moved since
// planning. The node's contents (including its planned next link) are
// already durable from the content fence; only if the walk finds a different
// successor does the next link need one extra sync before the linearizing
// link-and-persist — a concurrent reader may help-persist the link the
// moment the CAS lands, so the node must be entirely durable first (§3).
func (b *BytesMap) publishFresh(c *Ctx, p *writePlan) {
	s := b.s
	pred, inPred := p.pred, p.inPred
	for {
		// All adjacent links of the predecessor must be durable before
		// linking (Figure 1, step 1): its outgoing edge, and its incoming
		// edge — which may still sit in the link cache under pred's key.
		c.scan(p.hash)
		if inPred != 0 {
			c.ensureDurable(inPred)
			c.scan(s.nodeKey(pred))
		}
		predW := c.loadClean(pred + nNext)
		if ptrtag.Addr(predW) == p.next && !ptrtag.IsMarked(predW) &&
			c.linkCached(p.hash, pred+nNext, predW, uint64(p.n)) {
			return
		}
		// The stripe keeps this index key absent, so the walk ends before a
		// node of our own hash.
		var curr Addr
		pred, curr, inPred = searchFrom(c, s, b.idx.bucket(p.hash), p.hash)
		if curr != p.next {
			s.dev.Store(p.n+nNext, uint64(curr))
			c.sync(p.n + nNext)
			p.next = curr
		}
	}
}

// --- Ordered map ----------------------------------------------------------

// stage finds key. A present key gets a replacement entry for its node; an
// absent one gets its entry and a staged skip-list node.
func (o *OrderedBytesMap) stage(c *Ctx, key, value []byte, meta uint16, aux uint64, p *writePlan) error {
	var err error
	if o.find(c, key, &p.preds, &p.succs) {
		// Replace in place: one durable word swap of the node's entry
		// reference trades the old and new extents' reachability. The links
		// this operation depends on must be durable first (§3/§4), which
		// also flushes any cached link from the insert that created the key.
		p.n = p.succs[0]
		c.scan(p.hash)
		c.ensureDurable(p.preds[0] + oNext(0))
		c.ensureDurable(p.n + oNext(0))
		if p.e, err = writeBytesEntry(c, p.hash, key, value, meta, aux, 0); err != nil {
			return err
		}
		p.kind, p.replaced = planSwing, o.nodeEntry(p.n)
		return nil
	}
	if p.e, err = writeBytesEntry(c, p.hash, key, value, meta, aux, 0); err != nil {
		return err
	}
	top := c.randomLevel()
	if int(o.hint.Load()) < top {
		// The tower outgrows the current descent hint: raise it before any
		// level links, and re-run find to fill preds/succs for the newly
		// walked levels (rare — the hint rises O(log n) times in total).
		o.bumpHint(top)
		o.find(c, key, &p.preds, &p.succs)
	}
	n, err := c.ep.AllocNode(oClassFor(top))
	if err != nil {
		return err
	}
	dev := o.s.dev
	dev.StorePrivate(n+oEntry, uint64(p.e))
	dev.StorePrivate(n+oTop, uint64(top))
	for level := 0; level <= top; level++ {
		dev.StorePrivate(n+oNext(level), p.succs[level])
	}
	c.clwb(n) // covers entry, top, next[0..5]
	p.kind, p.n, p.top, p.next = planFresh, n, top, p.succs[0]
	return nil
}

func (o *OrderedBytesMap) publish(c *Ctx, key []byte, p *writePlan) {
	if p.kind == planFresh {
		o.publishFresh(c, key, p)
		return
	}
	o.s.dev.Store(p.n+oEntry, uint64(p.e))
	c.sync(p.n + oEntry)
}

// publishFresh links a staged skip-list node at level 0 (the durable
// linearization) and then its index levels. The node is already durable from
// the content fence; only if its planned successor moved does the level-0
// link need one extra sync before the linearizing link-and-persist.
func (o *OrderedBytesMap) publishFresh(c *Ctx, key []byte, p *writePlan) {
	dev := o.s.dev
	for {
		// The predecessor's adjacent level-0 links must be durable pre-link;
		// its incoming link may be cached under its own hash.
		c.scan(p.hash)
		c.scan(o.nodeHash(p.preds[0]))
		predW := c.loadClean(p.preds[0] + oNext(0))
		if ptrtag.Addr(predW) == p.next && !ptrtag.IsMarked(predW) &&
			c.linkCached(p.hash, p.preds[0]+oNext(0), predW, p.n) {
			break
		}
		o.find(c, key, &p.preds, &p.succs)
		if p.succs[0] != p.next {
			dev.Store(p.n+oNext(0), p.succs[0])
			c.sync(p.n + oNext(0))
			p.next = p.succs[0]
		}
	}
	o.linkTower(c, key, p.n, p.top, &p.preds, &p.succs)
}
