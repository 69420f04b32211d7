package logfree

import (
	"fmt"

	"repro/internal/core"
)

// structure is what every core structure kind offers the directory: its
// part in the combined recovery sweep.
type structure interface {
	Recoverer() core.Recoverer
}

// kindRow says how one structure kind is created, which words of it the
// directory entry records (aux carries the bucket count of hash-backed
// kinds, a1/a2 the durable anchors), and how it is re-opened from them.
type kindRow struct {
	create  func(c *core.Ctx, buckets int) (structure, error)
	anchors func(s structure) (aux, a1, a2 uint64)
	attach  func(st *core.Store, aux, a1, a2 uint64) structure
}

// rowOf builds a kindRow from functions typed on the kind's core structure.
func rowOf[T structure](
	create func(c *core.Ctx, buckets int) (T, error),
	anchors func(s T) (aux, a1, a2 uint64),
	attach func(st *core.Store, aux, a1, a2 uint64) T,
) kindRow {
	return kindRow{
		create:  func(c *core.Ctx, buckets int) (structure, error) { return create(c, buckets) },
		anchors: func(s structure) (uint64, uint64, uint64) { return anchors(s.(T)) },
		attach:  func(st *core.Store, aux, a1, a2 uint64) structure { return attach(st, aux, a1, a2) },
	}
}

// kindTable is the one place a Kind is bound to its core structure; both
// open-or-create (Runtime.open) and recovery (recoverAll) read it.
var kindTable = map[Kind]kindRow{
	KindList: rowOf(
		func(c *core.Ctx, _ int) (*core.List, error) { return core.NewList(c) },
		func(l *core.List) (uint64, uint64, uint64) { return 0, l.Head(), l.Tail() },
		func(st *core.Store, _, a1, a2 uint64) *core.List { return core.AttachList(st, a1, a2) }),
	KindHashTable: rowOf(
		core.NewHashTable,
		func(t *core.HashTable) (uint64, uint64, uint64) { return uint64(t.NumBuckets()), t.Buckets(), t.Tail() },
		func(st *core.Store, aux, a1, a2 uint64) *core.HashTable {
			return core.AttachHashTable(st, a1, int(aux), a2)
		}),
	KindSkipList: rowOf(
		func(c *core.Ctx, _ int) (*core.SkipList, error) { return core.NewSkipList(c) },
		func(s *core.SkipList) (uint64, uint64, uint64) { return 0, s.Head(), s.Tail() },
		func(st *core.Store, _, a1, a2 uint64) *core.SkipList { return core.AttachSkipList(st, a1, a2) }),
	KindBST: rowOf(
		func(c *core.Ctx, _ int) (*core.BST, error) { return core.NewBST(c) },
		func(t *core.BST) (uint64, uint64, uint64) { return 0, t.Root(), t.Sentinel() },
		func(st *core.Store, _, a1, a2 uint64) *core.BST { return core.AttachBST(st, a1, a2) }),
	KindQueue: rowOf(
		func(c *core.Ctx, _ int) (*core.Queue, error) { return core.NewQueue(c) },
		func(q *core.Queue) (uint64, uint64, uint64) { return 0, q.Descriptor(), 0 },
		func(st *core.Store, _, a1, _ uint64) *core.Queue { return core.AttachQueue(st, a1) }),
	KindStack: rowOf(
		func(c *core.Ctx, _ int) (*core.Stack, error) { return core.NewStack(c) },
		func(s *core.Stack) (uint64, uint64, uint64) { return 0, s.Descriptor(), 0 },
		func(st *core.Store, _, a1, _ uint64) *core.Stack { return core.AttachStack(st, a1) }),
	KindMap: rowOf(
		core.NewBytesMap,
		func(b *core.BytesMap) (uint64, uint64, uint64) { return uint64(b.NumBuckets()), b.Buckets(), b.Tail() },
		func(st *core.Store, aux, a1, a2 uint64) *core.BytesMap {
			return core.AttachBytesMap(st, a1, int(aux), a2)
		}),
	KindOrderedMap: rowOf(
		func(c *core.Ctx, _ int) (*core.OrderedBytesMap, error) { return core.NewOrderedBytesMap(c) },
		func(o *core.OrderedBytesMap) (uint64, uint64, uint64) { return 0, o.Head(), o.Tail() },
		func(st *core.Store, _, a1, a2 uint64) *core.OrderedBytesMap {
			return core.AttachOrderedBytesMap(st, a1, a2)
		}),
}

// open returns the structure registered under name, creating and
// registering it when absent. buckets sizes a newly created hash-backed
// kind; an existing structure keeps its durable bucket count.
func (r *Runtime) open(name string, kind Kind, buckets int) (structure, error) {
	c, err := r.acquireErr()
	if err != nil {
		return nil, err
	}
	defer r.release(c)
	if name == "" {
		return nil, fmt.Errorf("logfree: empty structure name")
	}
	row := kindTable[kind]
	r.dirMu.Lock()
	defer r.dirMu.Unlock()
	if v, ok := r.dir.Get(c, []byte(name)); ok {
		k, aux, a1, a2, ok := decodeDirEntry(v)
		if !ok {
			return nil, fmt.Errorf("logfree: corrupt directory entry for %q", name)
		}
		if k != kind {
			return nil, fmt.Errorf("%w: %q is a %v, not a %v", ErrKindMismatch, name, k, kind)
		}
		return row.attach(r.store, aux, a1, a2), nil
	}
	st, err := row.create(c, buckets)
	if err != nil {
		return nil, wrapErr(err)
	}
	aux, a1, a2 := row.anchors(st)
	if _, err := r.dir.Set(c, []byte(name), encodeDirEntry(kind, aux, a1, a2), 0, 0); err != nil {
		return nil, wrapErr(err)
	}
	// Registration is a durable commit point: flush any link-cache entry
	// still covering the directory update before returning the structure to
	// the caller.
	if lc := r.store.LinkCache(); lc != nil {
		lc.FlushAll(c.Flusher())
		c.Flusher().Fence()
	}
	return st, nil
}

// recoverAll runs the §5.5 recovery procedure once for the directory plus
// every structure it lists: a single combined sweep of the active areas, so
// no structure's sweep can mistake a sibling's nodes for leaks.
func (r *Runtime) recoverAll() {
	var rs []core.Recoverer
	rs, r.recovered = r.recoverers(r.store.MustCtx(0))
	r.recStats = core.RecoverSet(r.store, rs, r.cfg.maxThreads)
}

// recoverers returns the hook sets of the directory and of every structure
// it lists, with a report for each of the latter.
func (r *Runtime) recoverers(c *core.Ctx) (rs []core.Recoverer, reports []RecoveryReport) {
	rs = []core.Recoverer{r.dir.Recoverer()}
	r.dir.Range(c, func(name, v []byte) bool {
		kind, aux, a1, a2, ok := decodeDirEntry(v)
		row, known := kindTable[kind]
		if !ok || !known {
			return true
		}
		rs = append(rs, row.attach(r.store, aux, a1, a2).Recoverer())
		reports = append(reports, RecoveryReport{Name: string(name), Kind: kind})
		return true
	})
	return rs, reports
}

// AuditHeap runs core.AuditHeap on every part, against the directory and
// every structure it lists, and returns the entries audited in all. It fails
// when any slot fails, and when it audited no entry at all. It is a check
// for tests: run it quiescent, right after a recovery or once Reclaim has
// drained the retired entries.
func (r *Runtime) AuditHeap() (entries int, err error) {
	for i, p := range r.parts {
		c := p.acquire()
		rs, _ := p.recoverers(c)
		_, n, err := core.AuditHeap(c, rs)
		p.release(c)
		entries += n
		if err != nil {
			return entries, fmt.Errorf("logfree: part %d: %w", i, err)
		}
	}
	if entries == 0 {
		return 0, fmt.Errorf("logfree: audit: no entry audited")
	}
	return entries, nil
}
