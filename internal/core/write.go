package core

import (
	"runtime"

	"repro/internal/ptrtag"
)

// This file is the byte maps' write path. On a BytesMap every write is one
// key's read-decide-write step (Update): the key is hashed once and its
// stripe lock taken, one epoch section opened and the key's bucket searched
// once, as a Get searches (the links proving presence or absence are made
// durable, §3); the caller reads the entry found through the step, decides,
// and sets, rewrites the aux word, deletes or does nothing, and the stripe is
// released when the step returns. Set, SetAux and Delete are one-step
// Updates. An OrderedBytesMap Set takes its key's stripe too and searches in
// staging. A Set on either map is applied in four phases:
//
//	stage    write the entry extent (and, on an OrderedBytesMap, a fresh
//	         key's skip-list node) with write-backs scheduled but NOT
//	         fenced, planning the publish point against the current durable
//	         state — on a BytesMap, the step's search position. A replace's
//	         entry names the entry it replaces (beReplaced);
//	fence    ONE fence makes every pending content line durable together
//	         (the paper's one-pause-per-fence latency model, §6.1);
//	freeze   a BytesMap replace tags the replaced entry's link (below);
//	publish  the single linearizing link-and-persist.
//
// A Set costs two sync waits: the content fence and the publishing link
// (enforced by fencebudget_test.go). A replace makes no APT insert for the
// entry it unlinks (§5.4): it charges the unlink to the new entry's area,
// which the allocation has just made active (RetireReplaced), and recovery
// reaches the replaced entry through the new one's beReplaced word.
//
// Correctness hinges on the key's stripe lock: it freezes the key's entry
// and skip-list membership from the search to the publish, so the position a
// step found, and the publish point planned while staging, stay the key's.
// Bucket and skip-list *neighbourhoods* may still shift under concurrent
// different-key traffic; the publish revalidates its planned neighbours and,
// only when a fresh key's planned successor really moved, restores the
// contents-before-reachability ordering with one extra sync. A BytesMap
// replace takes the replaced entry's place in its bucket, so it must also
// keep that entry's successor: it freezes the replaced entry's link with
// ptrtag.Tag, which stops inserts after it and unlinks of its successor
// (they search again, or leave the unlink to a later search), and the new
// entry carries the frozen successor. The freeze comes after the content
// fence: the new entry's beReplaced must be durable before the tag can be,
// since it is the only way recovery finds a frozen entry whose area no APT
// holds. A crash leaves the old binding or the new one; recovery clears a
// freeze left on an entry it keeps (bytesRecover).

// KeyStep is one key's read-decide-write step on a BytesMap, valid only
// inside the function Update runs: the key, its index hash, the bucket
// position the step's search found and the entry bound there. The accessors
// read that entry. At most one of Set, SetAux and Delete may be called on a
// step; after a Set the accessors read the entry it wrote, after a Delete
// they describe nothing.
type KeyStep struct {
	b    *BytesMap
	c    *Ctx
	key  []byte
	hash uint64

	pred, curr, inPred Addr // the bucket search's position (see searchFrom)
	e                  Addr // the key's entry: curr if the search found the key, else 0
}

// Update runs fn as one read-decide-write step of key under the key's stripe
// lock, and returns fn's error (ErrBadKey, running nothing, for an empty or
// oversized key). fn runs inside an epoch section on c, so it must not
// operate through c; it must write no other key of a byte map on this store
// either, since that key may share the stripe.
func (b *BytesMap) Update(c *Ctx, key []byte, fn func(*KeyStep) error) error {
	if len(key) == 0 || len(key) > MaxBytesKeyLen {
		return ErrBadKey
	}
	st := &c.step
	*st = KeyStep{b: b, c: c, key: key, hash: bytesHash(key)}
	mu := b.s.stripe(st.hash)
	mu.Lock()
	defer mu.Unlock()
	c.ep.Begin()
	defer c.ep.End()
	st.search()
	err := fn(st)
	*st = KeyStep{}
	return err
}

// search finds the step's key as a Get does, keeping the position.
func (st *KeyStep) search() {
	var found bool
	st.pred, st.curr, st.inPred, found = listFind(st.c, st.b.s, st.b.bucket(st.hash), st.hash, st.key)
	if found {
		st.e = st.curr
	}
}

// Found reports whether the key is bound.
func (st *KeyStep) Found() bool { return st.e != 0 }

// Slot returns the slot of the key's entry (0 when the key is absent): the
// entry the search found, or the one Set just wrote. AppendItem and
// SweepEntry.Slot report the same for that entry.
func (st *KeyStep) Slot() uint64 {
	if st.e == 0 {
		return 0
	}
	return st.b.slot(st.e)
}

// Aux returns the entry's aux word (0 when the key is absent).
func (st *KeyStep) Aux() uint64 {
	if st.e == 0 {
		return 0
	}
	return bytesEntryAux(st.b.s, st.e)
}

// Meta returns the entry's metadata field (0 when the key is absent).
func (st *KeyStep) Meta() uint16 {
	if st.e == 0 {
		return 0
	}
	return bytesEntryMeta(st.b.s, st.e)
}

// ValueLen returns the length of the entry's value (0 when the key is
// absent).
func (st *KeyStep) ValueLen() int {
	if st.e == 0 {
		return 0
	}
	return bytesEntryValueLen(st.b.s, st.e)
}

// AppendValue appends the entry's value to dst (see appendEntryValue); dst
// comes back unchanged when the key is absent.
func (st *KeyStep) AppendValue(dst []byte) []byte {
	if st.e == 0 {
		return dst
	}
	return appendEntryValue(st.b.s, dst, st.e)
}

// Set binds the key to value (with metadata and aux word), durably, staged
// at the step's position: the entry is fully persisted before the single
// atomic link that publishes it, and a crash leaves either the old binding
// or the new one, never neither. Returns whether the key was newly created.
// May return ErrOutOfMemory-wrapping errors under memory pressure; the
// caller owns eviction policy.
func (st *KeyStep) Set(value []byte, meta uint16, aux uint64) (created bool, err error) {
	p := writePlan{hash: st.hash}
	if created, err = (writeTarget{st: st}).write(st.c, st.key, value, meta, aux, &p); err == nil {
		st.e = p.e
	}
	return created, err
}

// SetAux durably replaces the entry's aux word in place (touch-style update:
// no entry rewrite). Returns false if the key is absent.
func (st *KeyStep) SetAux(aux uint64) bool {
	if st.e == 0 {
		return false
	}
	st.b.s.dev.Store(st.e+beAux, aux)
	st.c.sync(st.e + beAux)
	return true
}

// Delete removes the key durably: the Harris mark on the entry's link, then
// its unlink, each a link-and-persist. Returns false if it is absent.
func (st *KeyStep) Delete() bool {
	if st.e == 0 {
		return false
	}
	_, ok := listDeleteFrom(st.c, st.b.s, st.b.bucket(st.hash), st.hash, st.key, st.pred, st.curr, st.inPred, true)
	return ok
}

// planKind is how a staged OrderedBytesMap Set publishes.
type planKind uint8

const (
	planFresh planKind = iota + 1 // link a staged skip-list node
	planSwing                     // point the key's node at the new entry
)

// writePlan is what staging a Set decided and publishing it needs.
type writePlan struct {
	hash     uint64
	kind     planKind // OrderedBytesMap
	e        Addr     // staged entry extent
	n        Addr     // OrderedBytesMap: staged skip-list node (fresh), or the key's node (swing)
	replaced Addr     // the entry the publish unlinks; 0 when the Set creates its key
	pred     Addr     // BytesMap: the bucket predecessor the entry links after
	inPred   Addr     // BytesMap: the link word pred was reached through (0: the bucket head)
	next     Addr     // the link the publish replaces: a fresh key's planned successor, in the bucket or at skip-list level 0; a BytesMap replace's replaced entry
	top      int      // OrderedBytesMap fresh: tower height

	preds, succs [MaxLevel]Addr // OrderedBytesMap: the key's neighbourhood
}

// writeTarget is the map a write applies to: exactly one of st (a BytesMap
// key's step) and o is set. It dispatches statically, so the plan a Set
// keeps on its stack does not escape.
type writeTarget struct {
	st *KeyStep
	o  *OrderedBytesMap
}

// write is a Set on either map, run under the key's stripe lock and inside
// an epoch section.
func (t writeTarget) write(c *Ctx, key, value []byte, meta uint16, aux uint64, p *writePlan) (created bool, err error) {
	if beData+len(key)+len(value) > MaxBytesEntrySize {
		return false, ErrTooLarge
	}
	if err := t.stage(c, key, value, meta, aux, p); err != nil {
		// Staging fails before it plans a node, so at most the entry extent
		// was allocated; nothing was published.
		if p.e != 0 {
			c.alloc.Free(p.e)
		}
		return false, err
	}
	// One pause covers the staged entry, skip-list node and allocator
	// metadata lines.
	c.fence()
	if p.replaced != 0 && t.st != nil {
		t.st.b.freeze(c, p)
	}

	t.publish(c, key, p)
	if p.replaced != 0 {
		c.ep.RetireReplaced(p.replaced, p.e)
		return false, nil
	}
	return true, nil
}

func (t writeTarget) stage(c *Ctx, key, value []byte, meta uint16, aux uint64, p *writePlan) error {
	if t.st != nil {
		return t.st.stage(value, meta, aux, p)
	}
	return t.o.stage(c, key, value, meta, aux, p)
}

func (t writeTarget) publish(c *Ctx, key []byte, p *writePlan) {
	if t.st != nil {
		t.st.b.publish(c, key, p)
	} else {
		t.o.publish(c, key, p)
	}
}

// --- Hash-indexed map -----------------------------------------------------

// stage writes the step key's entry to link in at the position the step's
// search found: in front of the successor found (a fresh key), or in place of
// the key's entry, with that entry's current successor (a replace; freeze
// settles which successor it carries).
func (st *KeyStep) stage(value []byte, meta uint16, aux uint64, p *writePlan) error {
	p.replaced, p.pred, p.inPred, p.next = st.e, st.pred, st.inPred, st.curr
	next := st.curr
	if p.replaced != 0 {
		next = ptrtag.Addr(st.b.s.dev.Load(p.replaced + nNext))
	}
	var err error
	p.e, err = writeBytesEntry(st.c, st.hash, st.key, value, meta, aux, next, p.replaced)
	return err
}

// freeze tags the replaced entry's link, so that until the publish swaps the
// new entry in, no insert after the replaced entry and no unlink of its
// successor can change the successor the new entry carries. The new entry
// was staged with the successor read then; only one that moved since (a
// same-bucket race) costs a store and a sync of its own, since the content
// fence is already behind. It runs after that fence: a freeze that a crash
// leaves behind is cleared by recovery, which reaches the frozen entry
// through the new entry's durable beReplaced word.
func (b *BytesMap) freeze(c *Ctx, p *writePlan) {
	dev := b.s.dev
	for {
		w := c.loadClean(p.replaced + nNext)
		if !dev.CAS(p.replaced+nNext, w, w|ptrtag.Tag) {
			continue // a neighbour's insert or unlink moved the successor
		}
		if succ := ptrtag.Addr(w); succ != dev.Load(p.e+nNext) {
			dev.StorePrivate(p.e+nNext, succ)
			c.sync(p.e + nNext)
		}
		return
	}
}

// publish links the staged entry in after the planned predecessor, in place
// of p.next, walking the bucket again only if that link moved since
// planning. The entry's contents (its link included) are already durable
// from the content fence; only if the walk finds a fresh key a different
// successor does its link need one extra sync before the linearizing
// link-and-persist — a concurrent reader may help-persist the link the moment
// the CAS lands, so the entry must be entirely durable first (§3). A
// replace's walk lands on the replaced entry again: the stripe keeps the
// key's binding, and the freeze its successor.
func (b *BytesMap) publish(c *Ctx, key []byte, p *writePlan) {
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
		if ptrtag.Addr(predW) == p.next && predW&(ptrtag.Mark|ptrtag.Tag) == 0 &&
			c.linkCached(p.hash, pred+nNext, predW, uint64(p.e)) {
			return
		}
		if ptrtag.IsTagged(predW) {
			runtime.Gosched() // pred is being replaced: let its replacement publish
		}
		var curr Addr
		pred, curr, inPred, _ = searchFrom(c, s, b.bucket(p.hash), p.hash, key)
		if p.replaced == 0 && curr != p.next {
			s.dev.Store(p.e+nNext, uint64(curr))
			c.sync(p.e + nNext)
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
		p.kind, p.replaced = planSwing, o.nodeEntry(p.n)
		p.e, err = writeBytesEntry(c, p.hash, key, value, meta, aux, 0, p.replaced)
		return err
	}
	if p.e, err = writeBytesEntry(c, p.hash, key, value, meta, aux, 0, 0); err != nil {
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
