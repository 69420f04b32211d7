package core

import (
	"bytes"
	"slices"

	"repro/internal/ptrtag"
)

// This file is the byte maps' write path: every Set and every batch of sets
// and deletes on a BytesMap or an OrderedBytesMap is applied here, as one or
// more groups of operations, each in three phases:
//
//	stage    write every op's entry extent (and, for fresh keys, its index
//	         node) with write-backs scheduled but NOT fenced, planning each
//	         op's publish point against the current durable state plus the
//	         group's own earlier planned nodes. An op that will unlink a
//	         replaced entry puts its area in the APT here (§5.4), so an APT
//	         miss's sync carries the pending content lines with it;
//	fence    ONE fence makes every pending content line durable together
//	         (the paper's one-pause-per-batch latency model, §6.1);
//	publish  publish each op in order with its single linearizing sync.
//
// A Set is a one-op group and costs two sync waits: the content fence and
// the publishing link. N ops cost ~N+1 instead of 2N (both enforced by
// fencebudget_test.go). Batches are NOT transactions: each op publishes
// through its own atomic durable point, in batch order, so a crash leaves a
// per-op prefix of the batch (plus at most the in-flight op's own atomic
// before/after ambiguity) — the same durable linearizability every single op
// already has, never a torn multi-op state.
//
// Correctness hinges on the stripe locks: a group locks the stripes of all
// its index hashes up front (sorted, deduplicated — Delete and SetAux take
// one stripe and groups acquire in order, so there is no deadlock), which
// freezes the publish points planned while staging: no concurrent operation
// can touch any group key's chain, index node or skip-list membership.
// Bucket and skip-list *neighbourhoods* may still shift under concurrent
// different-hash traffic; publishes revalidate their planned neighbours and,
// only when a planned successor really moved, restore the
// contents-before-reachability ordering with one extra sync. Ops whose index
// hash repeats within a batch split it into sequential groups, so planning
// never has to model two lifecycle changes of one chain.

// BytesOp is one operation of a byte-map batch: a durable upsert of Key
// (with the entry's metadata field and aux word), or, with Del set, a
// durable delete of Key.
type BytesOp struct {
	Del   bool
	Key   []byte
	Value []byte
	Meta  uint16
	Aux   uint64
}

// planKind is how a staged op publishes; a delete stages nothing and keeps
// the zero kind.
type planKind uint8

const (
	planFresh planKind = iota + 1 // link a staged index node: a bucket node or a skip-list node
	planSwing                     // point an index node at the new entry: a bucket's chain head (prepend or head replace) or an ordered node's entry reference
	planMid                       // BytesMap mid-chain replace: swing the predecessor entry's next word
)

// writePlan is what staging one op decided and publishing it needs.
type writePlan struct {
	hash     uint64
	kind     planKind
	e        Addr // staged entry extent
	n        Addr // staged index node (fresh), or the existing one (swing)
	replaced Addr // the entry the publish unlinks; 0 when the op creates its key
	pred     Addr // BytesMap: bucket predecessor node (fresh), chain predecessor entry (mid)
	inPred   Addr // BytesMap fresh: the link word pred was reached through (0: the bucket head)
	next     Addr // fresh: planned successor, in the bucket or at skip-list level 0
	top      int  // OrderedBytesMap fresh: tower height

	preds, succs [MaxLevel]Addr // OrderedBytesMap: the key's neighbourhood
}

// writeScratch is a context's reusable write-path state. It only grows, so
// a context applying one-op groups — every Set — allocates nothing after its
// first.
type writeScratch struct {
	plans   []writePlan
	stripes []int
}

// validateBytesOps applies the argument checks to every op before anything
// mutates, so a malformed op cannot abort a half-applied group.
func validateBytesOps(ops []BytesOp) error {
	for i := range ops {
		op := &ops[i]
		if len(op.Key) == 0 || len(op.Key) > MaxBytesKeyLen {
			return ErrBadKey
		}
		if !op.Del && beData+len(op.Key)+len(op.Value) > MaxBytesEntrySize {
			return ErrTooLarge
		}
	}
	return nil
}

// writeTarget is the map a write applies to: exactly one of b and o is set.
// It dispatches statically, so the ops a caller passes (Set's live on its
// stack) do not escape.
type writeTarget struct {
	b *BytesMap
	o *OrderedBytesMap
}

// ApplyBatch applies ops in order with one shared content fence per group
// (see the file comment for the phase structure and crash semantics). On
// error the failing group's staged allocations are released and the batch
// stops: earlier groups remain applied, and no op of the failing group was
// published — publishes only start once the whole group is staged.
func (b *BytesMap) ApplyBatch(c *Ctx, ops []BytesOp) error {
	return writeTarget{b: b}.batch(c, ops)
}

// ApplyBatch applies ops in order with one shared content fence per group;
// see BytesMap.ApplyBatch.
func (o *OrderedBytesMap) ApplyBatch(c *Ctx, ops []BytesOp) error {
	return writeTarget{o: o}.batch(c, ops)
}

// set is Set on either map: a one-op group.
func (t writeTarget) set(c *Ctx, key, value []byte, meta uint16, aux uint64) (created bool, err error) {
	op := [1]BytesOp{{Key: key, Value: value, Meta: meta, Aux: aux}}
	if err := validateBytesOps(op[:]); err != nil {
		return false, err
	}
	// The hash is taken of key, not of op's copy: a call through the
	// bytesHash hook leaks its argument, and escape analysis does not tell
	// op's fields apart, so hashing op.Key would move value to the heap too.
	plans := c.w.plansFor(1)
	plans[0] = writePlan{hash: bytesHash(key)}
	n, err := t.apply(c, op[:], plans)
	return n == 1, err
}

func (t writeTarget) batch(c *Ctx, ops []BytesOp) error {
	if err := validateBytesOps(ops); err != nil {
		return err
	}
	plans := c.w.plansFor(len(ops))
	for i := range ops {
		plans[i] = writePlan{hash: bytesHash(ops[i].Key)}
	}
	_, err := t.apply(c, ops, plans)
	return err
}

// plansFor returns n plans of the context's scratch.
func (w *writeScratch) plansFor(n int) []writePlan {
	if cap(w.plans) < n {
		w.plans = make([]writePlan, n)
	}
	return w.plans[:n]
}

// apply applies validated ops, whose plans carry their index hashes, group
// by group. It reports how many ops bound a key that was absent.
func (t writeTarget) apply(c *Ctx, ops []BytesOp, plans []writePlan) (int, error) {
	created := 0
	for start := 0; start < len(ops); {
		end := groupEnd(plans, start)
		n, err := t.applyGroup(c, ops[start:end], plans[start:end])
		created += n
		if err != nil {
			return created, err
		}
		start = end
	}
	return created, nil
}

// groupEnd returns where the group starting at start ends: at the first op
// whose index hash repeats within it, or at the end of the ops.
func groupEnd(plans []writePlan, start int) int {
	for end := start + 1; end < len(plans); end++ {
		for j := start; j < end; j++ {
			if plans[j].hash == plans[end].hash {
				return end
			}
		}
	}
	return len(plans)
}

func (t writeTarget) applyGroup(c *Ctx, ops []BytesOp, plans []writePlan) (int, error) {
	defer c.unlockStripes(c.lockStripes(plans))
	c.ep.Begin()
	defer c.ep.End()

	// Stage entries and nodes; plan publish points.
	for i := range ops {
		if ops[i].Del {
			continue
		}
		if err := t.stage(c, ops, plans, i); err != nil {
			releaseStaged(c, plans[:i+1])
			return 0, err
		}
		if r := plans[i].replaced; r != 0 {
			// The publish makes the replaced entry durably unreachable; its
			// area must be in the APT first (§5.4).
			c.ep.PreRetire(r)
		}
	}

	// One pause covers every staged entry, index node and allocator metadata
	// line.
	c.fence()

	// Publish in op order — each publish is its own fenced linearization, so
	// batch order is durability order (prefix semantics).
	created := 0
	for i := range ops {
		p := &plans[i]
		switch {
		case ops[i].Del:
			t.deleteLocked(c, ops[i].Key, p.hash)
		case p.replaced != 0:
			t.publish(c, ops[i].Key, p)
			c.ep.Retire(p.replaced)
		default:
			t.publish(c, ops[i].Key, p)
			created++
		}
	}
	return created, nil
}

// releaseStaged frees what a failed group staged; none of it was published.
func releaseStaged(c *Ctx, plans []writePlan) {
	for i := range plans {
		p := &plans[i]
		if p.e != 0 {
			c.alloc.Free(p.e)
		}
		if p.kind == planFresh {
			c.alloc.Free(p.n)
		}
	}
}

// lockStripes locks the distinct stripes of the group's index hashes in
// ascending order and returns them for unlockStripes.
func (c *Ctx) lockStripes(plans []writePlan) []int {
	idx := c.w.stripes[:0]
	for i := range plans {
		idx = append(idx, c.s.stripeOf(plans[i].hash))
	}
	slices.Sort(idx)
	idx = slices.Compact(idx)
	c.w.stripes = idx
	for _, v := range idx {
		c.s.bytesLocks[v].Lock()
	}
	return idx
}

func (c *Ctx) unlockStripes(idx []int) {
	for _, v := range idx {
		c.s.bytesLocks[v].Unlock()
	}
}

func (t writeTarget) stage(c *Ctx, ops []BytesOp, plans []writePlan, i int) error {
	if t.b != nil {
		return t.b.stage(c, ops, plans, i)
	}
	return t.o.stage(c, ops, plans, i)
}

func (t writeTarget) publish(c *Ctx, key []byte, p *writePlan) {
	if t.b != nil {
		t.b.publish(c, p)
	} else {
		t.o.publish(c, key, p)
	}
}

func (t writeTarget) deleteLocked(c *Ctx, key []byte, hash uint64) {
	if t.b != nil {
		t.b.deleteLocked(c, key, hash)
	} else {
		t.o.deleteLocked(c, key, hash)
	}
}

// --- Hash-indexed map -----------------------------------------------------

// stage looks op i's key up as a Get does (the links proving presence or
// absence are made durable, §3), writes its entry with the chain tail it
// will carry, and for a fresh index key stages the bucket node.
func (b *BytesMap) stage(c *Ctx, ops []BytesOp, plans []writePlan, i int) error {
	s, op, p := b.s, &ops[i], &plans[i]
	hash := p.hash
	bucket := b.idx.bucket(hash)
	pred, curr, inPred := searchFrom(c, s, bucket, hash)
	c.scan(hash)
	c.ensureDurable(pred + nNext)
	exists := s.nodeKey(curr) == hash
	var head Addr
	if exists {
		c.ensureDurable(curr + nNext)
		head = Addr(s.nodeValue(curr))
		p.replaced, p.pred = b.findInChain(head, op.Key)
	}
	// The new entry's chain tail skips the entry it replaces (a mid-chain
	// replacement publishes at its predecessor).
	next := head
	if p.replaced != 0 {
		next = b.entryNext(p.replaced)
	}
	var err error
	if p.e, err = writeBytesEntry(c, hash, op.Key, op.Value, op.Meta, op.Aux, next); err != nil {
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
		// Plan the bucket successor against live state plus the group's
		// earlier planned nodes: the smallest planned hash in
		// (hash, key(curr)) will have been linked before this op's publish
		// turn.
		succ, succKey := curr, s.nodeKey(curr)
		for j := range plans[:i] {
			q := &plans[j]
			if q.hash > hash && q.hash < succKey && q.kind == planFresh && b.idx.bucket(q.hash) == bucket {
				succ, succKey = q.n, q.hash
			}
		}
		n, err := c.ep.AllocNode(listClass)
		if err != nil {
			return err
		}
		dev := s.dev
		dev.StorePrivate(n+nKey, hash)
		dev.StorePrivate(n+nValue, uint64(p.e))
		dev.StorePrivate(n+nNext, uint64(succ))
		c.clwb(n)
		p.kind, p.n, p.pred, p.inPred, p.next = planFresh, n, pred, inPred, succ
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
// already durable from the group fence; only if the walk finds a different
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

// stage finds op i's key. A present key gets a replacement entry for its
// node; an absent one gets its entry and a staged skip-list node whose
// level-0 successor accounts for the group's earlier staged nodes.
func (o *OrderedBytesMap) stage(c *Ctx, ops []BytesOp, plans []writePlan, i int) error {
	op, p := &ops[i], &plans[i]
	key := op.Key
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
		if p.e, err = writeBytesEntry(c, p.hash, key, op.Value, op.Meta, op.Aux, 0); err != nil {
			return err
		}
		p.kind, p.replaced = planSwing, o.nodeEntry(p.n)
		return nil
	}
	if p.e, err = writeBytesEntry(c, p.hash, key, op.Value, op.Meta, op.Aux, 0); err != nil {
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
	// Plan the level-0 successor against live state plus the group's earlier
	// staged nodes: the smallest staged key in (key, key(succ)) will have
	// been linked before this op's publish turn.
	succ0 := p.succs[0]
	var bestKey []byte
	for j := range plans[:i] {
		if plans[j].kind != planFresh {
			continue
		}
		kj := ops[j].Key
		if bytes.Compare(kj, key) > 0 && o.cmpNode(p.succs[0], kj) > 0 &&
			(bestKey == nil || bytes.Compare(kj, bestKey) < 0) {
			bestKey, succ0 = kj, plans[j].n
		}
	}
	dev := o.s.dev
	dev.StorePrivate(n+oEntry, uint64(p.e))
	dev.StorePrivate(n+oTop, uint64(top))
	for level := 0; level <= top; level++ {
		dev.StorePrivate(n+oNext(level), p.succs[level])
	}
	dev.StorePrivate(n+oNext(0), succ0)
	c.clwb(n) // covers entry, top, next[0..5]
	p.kind, p.n, p.top, p.next = planFresh, n, top, succ0
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
// the group fence; only if its planned successor moved does the level-0 link
// need one extra sync before the linearizing link-and-persist.
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
