package logfree

import (
	"bytes"
	"errors"
	"fmt"
	"iter"

	"repro/internal/core"
)

// Spec describes the structure OpenOrCreate should open or create.
type Spec struct {
	// Kind selects the structure; the zero value means KindMap, the
	// byte-keyed durable hash map. KindOrderedMap selects the ordered
	// byte-keyed map (range scans, Min/Max).
	Kind Kind
	// Buckets sizes a new KindMap (rounded up to a power of two, default
	// 1024). Ignored when opening an existing map, whose durable bucket
	// count wins, and by KindOrderedMap.
	Buckets int
}

// Item is the per-entry payload surfaced by the Items and ScanItems
// iterators: the value bytes plus the entry's 16-bit metadata field and
// 64-bit aux word (cache-style metadata: flags, expiry, versions).
type Item struct {
	Value []byte
	Meta  uint16
	Aux   uint64
}

// Map is the byte-key interface of the two byte-keyed durable structures.
// All methods are safe for concurrent use from any goroutine (implicit
// sessions).
//
// KindMap (the default) stores arbitrary []byte keys and values: each entry
// is a node of a log-free durable hash table, found by its key's hash and
// its full key bytes, so same-hash keys sit side by side and distinct keys
// can never alias. KindOrderedMap keeps the same entries in byte-key order.
type Map interface {
	// Set binds key to value (upsert), durably.
	Set(key, value []byte) error
	// Get returns a copy of the value bound to key.
	Get(key []byte) ([]byte, bool)
	// Delete removes key durably; false if absent.
	Delete(key []byte) bool
	// Contains reports whether key is present.
	Contains(key []byte) bool
	// Len counts live keys (quiescent use).
	Len() int
	// All iterates over live entries (range-over-func): in strictly
	// ascending byte-key order for KindOrderedMap, in unspecified order for
	// KindMap. Iteration is safe for concurrent use (no snapshot semantics —
	// concurrent updates may be missed). Entries are copied out a step at a
	// time under one reclamation epoch section, and the loop body runs
	// between steps holding no operation context, so a slow body does not
	// hold reclamation back and may call any operation.
	All() iter.Seq2[[]byte, []byte]
	// Kind reports the structure kind backing the map.
	Kind() Kind
	// Name reports the directory name the map is registered under.
	Name() string
}

// OrderedMap extends Map with ordered queries. The Map that OpenOrCreate
// returns for KindOrderedMap satisfies it:
//
//	m, _ := rt.OpenOrCreate("scores", logfree.Spec{Kind: logfree.KindOrderedMap})
//	om := m.(logfree.OrderedMap)
//	for k, v := range om.Scan([]byte("a"), []byte("b")) { ... }
//
// Keys order by bytes.Compare over the complete key; same-hash or
// shared-prefix keys can never alias or reorder.
type OrderedMap interface {
	Map
	// Scan iterates every live key k with start <= k < end in strictly
	// ascending byte order. A nil (or empty) start scans from the smallest
	// key; a nil end scans through the largest. Scans are safe for
	// concurrent use but are not snapshots; see Map.All for the loop-body
	// contract.
	Scan(start, end []byte) iter.Seq2[[]byte, []byte]
	// Ascend iterates every live key in ascending byte order.
	Ascend() iter.Seq2[[]byte, []byte]
	// Descend iterates every live key in descending byte order
	// (materializes the ascending pass first; prefer Scan on very large
	// maps).
	Descend() iter.Seq2[[]byte, []byte]
	// Min returns the smallest live key and its value.
	Min() (key, value []byte, ok bool)
	// Max returns the largest live key and its value.
	Max() (key, value []byte, ok bool)
}

// OpenOrCreate opens the byte-keyed map registered under name, or creates
// and registers it (KindMap or KindOrderedMap). Opening an existing name
// under a different kind fails with ErrKindMismatch; every other kind has no
// byte-key view (ErrNotKeyed) — use its typed Runtime method (List,
// HashTable, SkipList, BST, Queue, Stack).
func (r *Runtime) OpenOrCreate(name string, spec Spec) (Map, error) {
	if spec.Kind == 0 {
		spec.Kind = KindMap
	}
	switch spec.Kind {
	case KindMap:
		return r.Map(name, spec.Buckets)
	case KindOrderedMap:
		return r.OrderedMap(name)
	case KindList, KindHashTable, KindSkipList, KindBST, KindQueue, KindStack:
		return nil, fmt.Errorf("%w: %v", ErrNotKeyed, spec.Kind)
	}
	return nil, fmt.Errorf("logfree: unknown kind %d", spec.Kind)
}

// SetHashForTesting overrides the byte-key index-hash derivation (nil
// restores the default). Tests inject colliding hashes to exercise same-hash
// entries deterministically; the override must stay in
// place across any crash/recover cycle of the test, since entries persist
// the index key they were stored under.
func SetHashForTesting(f func([]byte) uint64) { core.SetBytesHashForTesting(f) }

// --- the shared base -----------------------------------------------------

// bytesCore is the read set the two core byte-keyed maps share. Their writes
// differ in shape (see ByteMap.Update), so each map type has its own.
type bytesCore interface {
	Get(c *core.Ctx, key []byte) ([]byte, bool)
	GetItem(c *core.Ctx, key []byte) (value []byte, meta uint16, aux uint64, ok bool)
	Contains(c *core.Ctx, key []byte) bool
	Len(c *core.Ctx) int
}

// mapPart is one runtime's share of a byte-keyed map: the core map and the
// runtime whose contexts operate on it.
type mapPart[C bytesCore] struct {
	rt *Runtime
	m  C
}

// byteMap is the shared implementation of ByteMap and OrderedByteMap: one
// part per part of the runtime, each a core map on that part, and the
// function that routes a key to the part owning it. A point operation
// routes, draws a context on the owning part and makes the core call there,
// so it behaves exactly as on a runtime of one part; Len and iteration
// combine the parts.
type byteMap[C bytesCore] struct {
	parts []mapPart[C]
	route func(key []byte) int // never called on a one-part map
	name  string
}

// openParts opens the map registered under name on every part of r, or
// creates and registers it there. Keys route by r's routing hash, which
// depends on the key's bytes alone and never changes while the data lives:
// an entry is only ever looked for on the part it routes to.
func openParts[C bytesCore](r *Runtime, name string, kind Kind, buckets int) (byteMap[C], error) {
	m := byteMap[C]{route: r.partOf, name: name}
	for _, p := range r.parts {
		st, err := p.open(name, kind, buckets)
		if err != nil {
			return m, err
		}
		m.parts = append(m.parts, mapPart[C]{p, st.(C)})
	}
	return m, nil
}

// part returns the part owning key.
func (m *byteMap[C]) part(key []byte) *mapPart[C] {
	if len(m.parts) == 1 {
		return &m.parts[0]
	}
	return &m.parts[m.route(key)]
}

// Get implements Map.
func (m *byteMap[C]) Get(key []byte) ([]byte, bool) {
	p := m.part(key)
	c := p.rt.acquire()
	defer p.rt.release(c)
	return p.m.Get(c, key)
}

// GetItem returns the value with its metadata field and aux word.
func (m *byteMap[C]) GetItem(key []byte) (value []byte, meta uint16, aux uint64, ok bool) {
	p := m.part(key)
	c := p.rt.acquire()
	defer p.rt.release(c)
	return p.m.GetItem(c, key)
}

// Contains implements Map.
func (m *byteMap[C]) Contains(key []byte) bool {
	p := m.part(key)
	c := p.rt.acquire()
	defer p.rt.release(c)
	return p.m.Contains(c, key)
}

// Len implements Map: the sum over the parts (quiescent use).
func (m *byteMap[C]) Len() int {
	n := 0
	for i := range m.parts {
		p := &m.parts[i]
		c := p.rt.acquire()
		n += p.m.Len(c)
		p.rt.release(c)
	}
	return n
}

// Name implements Map (the same on every part).
func (m *byteMap[C]) Name() string { return m.name }

// --- ByteMap -------------------------------------------------------------

// ByteMap is the byte-keyed durable hash map (KindMap): arbitrary []byte
// keys and values, each entry one durable object, plus a 16-bit metadata
// field and a 64-bit aux word per entry for cache-style metadata (flags,
// expiry). All methods are safe for concurrent use from any goroutine.
type ByteMap struct {
	byteMap[*core.BytesMap]
}

// Map opens or creates the byte-keyed durable map registered under name
// (OpenOrCreate with KindMap, concretely typed) on every part of the
// runtime, as one map. buckets sizes each part's table: keys spread
// near-uniformly, so size it for the keys one part holds.
func (r *Runtime) Map(name string, buckets int) (*ByteMap, error) {
	if buckets <= 0 {
		buckets = 1024
	}
	m, err := openParts[*core.BytesMap](r, name, KindMap, buckets)
	if err != nil {
		return nil, err
	}
	// Each part's slots carry its part number (see PartShift); part 0's is 0.
	for i := 1; i < len(m.parts); i++ {
		m.parts[i].m = m.parts[i].m.WithSlotBase(uint64(i) << PartShift)
	}
	return &ByteMap{m}, nil
}

// KeyStep is one read-decide-write step of a key, as Update hands it to its
// function: Found, Aux, Meta, ValueLen, AppendValue and Slot read the key's
// entry; Set, SetAux or Delete (at most one of them) act on it. After a Set
// they read the entry the Set wrote, so Slot is the new entry's slot: a
// replace writes a new extent, while SetAux rewrites the entry in place and
// keeps it. Valid until the function returns.
type KeyStep = core.KeyStep

// Update runs fn as one read-decide-write step of key: one context drawn, the
// key hashed once, its stripe lock taken and the index searched once; fn
// reads the entry through the step, decides, and acts on it through the step
// or leaves it, and the lock is released when fn returns. Update returns fn's
// error, with device exhaustion mapped onto ErrFull (ErrBadKey, running
// nothing, for an empty or oversized key). fn holds the step's context and
// its key's lock, so it must operate on no structure: a second context could
// wait for one only its own return frees, and a byte-map write could wait for
// its own lock. Volatile work that must follow the key's store order, such as
// a replication record, may run in fn after the step has written.
func (m *ByteMap) Update(key []byte, fn func(*KeyStep) error) error {
	p := m.part(key)
	c, err := p.rt.acquireErr()
	if err != nil {
		return err
	}
	defer p.rt.release(c)
	return wrapErr(p.m.Update(c, key, fn))
}

// mustUpdate is Update for the writes without an error result: a closed
// runtime panics, as acquire does, and a bad key does nothing.
func (m *ByteMap) mustUpdate(key []byte, fn func(*KeyStep) error) {
	if err := m.Update(key, fn); errors.Is(err, ErrClosed) {
		panic(fmt.Errorf("logfree: acquiring operation context: %w", err))
	}
}

// Set implements Map (meta 0, aux 0).
func (m *ByteMap) Set(key, value []byte) error {
	_, err := m.SetItem(key, value, 0, 0)
	return err
}

// SetItem binds key to value with a metadata field and aux word; reports
// whether the key was newly created.
func (m *ByteMap) SetItem(key, value []byte, meta uint16, aux uint64) (created bool, err error) {
	err = m.Update(key, func(st *KeyStep) (err error) {
		created, err = st.Set(value, meta, aux)
		return err
	})
	return created, err
}

// SetAux durably replaces the aux word of an existing entry in place
// (touch-style update); false if key is absent.
func (m *ByteMap) SetAux(key []byte, aux uint64) (ok bool) {
	m.mustUpdate(key, func(st *KeyStep) error {
		ok = st.SetAux(aux)
		return nil
	})
	return ok
}

// Delete implements Map.
func (m *ByteMap) Delete(key []byte) (ok bool) {
	m.mustUpdate(key, func(st *KeyStep) error {
		ok = st.Delete()
		return nil
	})
	return ok
}

// AppendItem is GetItem appending the value to dst instead of copying it
// into a slice of its own, and returning the slot of the entry it read too
// (what KeyStep.Slot and SweepEntry.Slot report for that entry; see
// PartShift). The value is nil and the slot 0 when key is absent.
func (m *ByteMap) AppendItem(dst, key []byte) (value []byte, meta uint16, aux, slot uint64, ok bool) {
	p := m.part(key)
	c := p.rt.acquire()
	defer p.rt.release(c)
	return p.m.AppendItem(c, dst, key)
}

// Entry is one entry as Walk presents it to its visitor: the key (the walk's
// scratch buffer — copy it to keep it), the metadata field, the aux word and
// the value's length, with Value() copying the value out on request. Valid
// until the visitor returns.
type Entry = core.WalkEntry

// PartShift places the part number above the part-local bits of a Walk or
// Sweep cursor and of a slot. A slot names one entry extent of the map: its
// part number above bit PartShift, and below it the extent's device address
// on that part's runtime, at least 64 bytes from every other live extent's.
// Slots of different parts never collide, and within a part a Sweep visits
// extents in slot order.
const PartShift = 48

// stepParts runs one step of a part-by-part cursor walk: step takes the
// part-local cursor on the part the cursor names and returns the next local
// one (0 once that part is done). The cursor runs through part 0, then part
// 1, and comes back 0 after the last part.
func (m *ByteMap) stepParts(cursor uint64, step func(c *core.Ctx, m *core.BytesMap, local uint64) uint64) (next uint64) {
	i := cursor >> PartShift
	if i >= uint64(len(m.parts)) {
		return 0
	}
	p := &m.parts[i]
	c := p.rt.acquire()
	defer p.rt.release(c)
	if local := step(c, p.m, cursor&(1<<PartShift-1)); local != 0 {
		return i<<PartShift | local
	}
	if i+1 < uint64(len(m.parts)) {
		return (i + 1) << PartShift
	}
	return 0
}

// Walk is the resumable iteration over the map, with the contract of Redis's
// SCAN: start at cursor 0, pass each returned cursor to the next call, stop
// when 0 comes back. Each call visits the next few index buckets under one
// reclamation epoch section and holds nothing once it returns, so a walker
// may take as long as it likes between calls. One full cycle presents every
// key that was in the map throughout it at least once; keys inserted or
// deleted during the cycle may or may not appear. The cursor runs through
// part 0's buckets, then part 1's, and comes back 0 after the last part's
// last bucket. A visitor that returns false ends its call after the current
// bucket. The visitor runs while the call holds an operation context, so it
// must operate on no structure (see Update).
func (m *ByteMap) Walk(cursor uint64, visit func(Entry) bool) (next uint64) {
	return m.stepParts(cursor, func(c *core.Ctx, pm *core.BytesMap, local uint64) uint64 {
		return pm.Walk(c, local, visit)
	})
}

// SweepEntry is one entry extent as Sweep presents it to its visitor: the key
// (the sweep's scratch buffer — copy it to keep it), the aux word and the
// extent's slot (see PartShift), valid until the visitor returns. Live
// reports whether the extent is the map's current entry for its key; it
// searches the key's bucket, so call it only on an entry about to be acted
// on.
type SweepEntry = core.SweepEntry

// Sweep is the resumable walk over the map's entry extents in device-address
// order, part by part, with Walk's cursor protocol: start at 0, pass each
// returned cursor on, stop when 0 comes back. Each call covers the next few
// allocator pages of one part under one epoch section. An extent is presented
// when it is allocated and has an entry's shape, which admits versions
// replaced or deleted but not yet freed and entries of other byte-keyed maps
// on the same runtime; check Live before acting on one. A key rewritten
// behind the cursor can be missed for a whole cycle, so Sweep is no
// substitute for Walk: it is for eviction, where visiting victims in address
// order keeps the unlinks and the reuse of their slots on few pages. A
// visitor that returns false ends its call, and the returned cursor resumes
// after that extent. The visitor must operate on no structure, as Walk's.
func (m *ByteMap) Sweep(cursor uint64, visit func(SweepEntry) bool) (next uint64) {
	return m.stepParts(cursor, func(c *core.Ctx, pm *core.BytesMap, local uint64) uint64 {
		return pm.Sweep(c, local, visit)
	})
}

// All implements Map: unordered iteration, part by part (safe-concurrent, no
// snapshot semantics).
func (m *ByteMap) All() iter.Seq2[[]byte, []byte] {
	return func(yield func([]byte, []byte) bool) {
		for k, it := range m.Items() {
			if !yield(k, it.Value) {
				return
			}
		}
	}
}

// keyedItem is one entry an iteration has copied out.
type keyedItem struct {
	key  []byte
	item Item
}

// Items is All including each entry's metadata and aux word. Each Walk step's
// entries are copied out and yielded after the step's epoch section closed.
func (m *ByteMap) Items() iter.Seq2[[]byte, Item] {
	return func(yield func([]byte, Item) bool) {
		var step []keyedItem
		for cursor := uint64(0); ; {
			step = step[:0]
			cursor = m.Walk(cursor, func(e Entry) bool {
				step = append(step, keyedItem{bytes.Clone(e.Key), Item{Value: e.Value(), Meta: e.Meta, Aux: e.Aux}})
				return true
			})
			for _, e := range step {
				if !yield(e.key, e.item) {
					return
				}
			}
			if cursor == 0 {
				return
			}
		}
	}
}

// Kind implements Map.
func (m *ByteMap) Kind() Kind { return KindMap }

// --- OrderedByteMap ------------------------------------------------------

// OrderedByteMap is the byte-keyed ordered durable map (KindOrderedMap):
// arbitrary []byte keys and values over a byte-key-comparing durable skip
// list, plus a 16-bit metadata field and a 64-bit aux word per entry. It
// satisfies OrderedMap: All and Scan iterate keys in strictly ascending
// byte order — over the WHOLE map, not per part: a joined map merges its
// parts' ordered streams on the fly. All methods are safe for concurrent use
// from any goroutine.
type OrderedByteMap struct {
	byteMap[*core.OrderedBytesMap]
}

type orderedPart = mapPart[*core.OrderedBytesMap]

// OrderedMap opens or creates the ordered byte-keyed durable map
// registered under name (OpenOrCreate with KindOrderedMap, concretely typed)
// on every part of the runtime, as one map.
func (r *Runtime) OrderedMap(name string) (*OrderedByteMap, error) {
	m, err := openParts[*core.OrderedBytesMap](r, name, KindOrderedMap, 0)
	if err != nil {
		return nil, err
	}
	return &OrderedByteMap{m}, nil
}

// Set implements Map (meta 0, aux 0).
func (m *OrderedByteMap) Set(key, value []byte) error {
	_, err := m.SetItem(key, value, 0, 0)
	return err
}

// SetItem binds key to value with a metadata field and aux word; reports
// whether the key was newly created.
func (m *OrderedByteMap) SetItem(key, value []byte, meta uint16, aux uint64) (created bool, err error) {
	p := m.part(key)
	c, err := p.rt.acquireErr()
	if err != nil {
		return false, err
	}
	defer p.rt.release(c)
	created, err = p.m.Set(c, key, value, meta, aux)
	return created, wrapErr(err)
}

// SetAux durably replaces the aux word of an existing entry in place
// (touch-style update); false if key is absent.
func (m *OrderedByteMap) SetAux(key []byte, aux uint64) bool {
	p := m.part(key)
	c := p.rt.acquire()
	defer p.rt.release(c)
	return p.m.SetAux(c, key, aux)
}

// Delete implements Map.
func (m *OrderedByteMap) Delete(key []byte) bool {
	p := m.part(key)
	c := p.rt.acquire()
	defer p.rt.release(c)
	return p.m.Delete(c, key)
}

// All implements Map: ascending byte-key order.
func (m *OrderedByteMap) All() iter.Seq2[[]byte, []byte] { return m.Scan(nil, nil) }

// Items is All including each entry's metadata and aux word.
func (m *OrderedByteMap) Items() iter.Seq2[[]byte, Item] { return m.ScanItems(nil, nil) }

// orderedStep is how many entries an ordered iteration copies out under one
// epoch section before it yields them.
const orderedStep = 64

// scanPart yields the part's entries in [start, end), ascending, a step at a
// time: each step's entries are copied out under one epoch section on a
// context that is returned before they are yielded, and the next step
// resumes just past the last key.
func scanPart(p *orderedPart, start, end []byte, yield func([]byte, Item) bool) {
	step := make([]keyedItem, 0, orderedStep)
	for {
		step = step[:0]
		c := p.rt.acquire()
		p.m.ScanItems(c, start, end, func(k, v []byte, meta uint16, aux uint64) bool {
			step = append(step, keyedItem{k, Item{Value: v, Meta: meta, Aux: aux}})
			return len(step) < orderedStep
		})
		p.rt.release(c)
		for _, e := range step {
			if !yield(e.key, e.item) {
				return
			}
		}
		if len(step) < orderedStep {
			return
		}
		// The smallest key above the last one.
		start = append(bytes.Clone(step[len(step)-1].key), 0)
	}
}

// mergeParts streams the merge of the parts' ordered sequences, ascending
// (dir 1) or descending (dir -1); each produces one part's. One part's
// sequence is the merge. Otherwise each part contributes a pull-style cursor
// (iter.Pull2) and the merge repeatedly yields the smallest head. A part's
// sequence holds no operation context between its yields, so the suspended
// cursors hold none either. Part counts are small (≤ a few dozen), so a
// linear min scan beats a heap. Distinct keys never collide across parts
// (one part owns each key), so tie order is irrelevant.
func mergeParts(parts []orderedPart, dir int, each func(p *orderedPart, yield func([]byte, Item) bool)) iter.Seq2[[]byte, Item] {
	return func(yield func([]byte, Item) bool) {
		if len(parts) == 1 {
			each(&parts[0], yield)
			return
		}
		type cursor struct {
			k    []byte
			v    Item
			next func() ([]byte, Item, bool)
		}
		cur := make([]cursor, 0, len(parts))
		for i := range parts {
			next, stop := iter.Pull2(func(yield func([]byte, Item) bool) { each(&parts[i], yield) })
			defer stop()
			if k, v, ok := next(); ok {
				cur = append(cur, cursor{k, v, next})
			}
		}
		for len(cur) > 0 {
			mi := 0
			for i := 1; i < len(cur); i++ {
				if bytes.Compare(cur[i].k, cur[mi].k)*dir < 0 {
					mi = i
				}
			}
			if !yield(cur[mi].k, cur[mi].v) {
				return
			}
			if k, v, ok := cur[mi].next(); ok {
				cur[mi].k, cur[mi].v = k, v
			} else {
				cur[mi] = cur[len(cur)-1]
				cur = cur[:len(cur)-1]
			}
		}
	}
}

// values drops the items' metadata, leaving their values.
func values(items iter.Seq2[[]byte, Item]) iter.Seq2[[]byte, []byte] {
	return func(yield func([]byte, []byte) bool) {
		for k, it := range items {
			if !yield(k, it.Value) {
				return
			}
		}
	}
}

// Scan implements OrderedMap: ascending over [start, end) (nil start = from
// the smallest key, nil end = through the largest).
func (m *OrderedByteMap) Scan(start, end []byte) iter.Seq2[[]byte, []byte] {
	return values(m.ScanItems(start, end))
}

// ScanItems is Scan including each entry's metadata and aux word.
func (m *OrderedByteMap) ScanItems(start, end []byte) iter.Seq2[[]byte, Item] {
	return mergeParts(m.parts, 1, func(p *orderedPart, yield func([]byte, Item) bool) {
		scanPart(p, start, end, yield)
	})
}

// Ascend implements OrderedMap.
func (m *OrderedByteMap) Ascend() iter.Seq2[[]byte, []byte] { return m.Scan(nil, nil) }

// Descend implements OrderedMap. The skip list is singly linked, so each
// part's ascending pass is copied out whole, a step at a time, before its
// first key is yielded.
func (m *OrderedByteMap) Descend() iter.Seq2[[]byte, []byte] {
	return values(mergeParts(m.parts, -1, func(p *orderedPart, yield func([]byte, Item) bool) {
		var all []keyedItem
		scanPart(p, nil, nil, func(k []byte, it Item) bool {
			all = append(all, keyedItem{k, it})
			return true
		})
		for i := len(all) - 1; i >= 0; i-- {
			if !yield(all[i].key, all[i].item) {
				return
			}
		}
	}))
}

// extreme returns the first key in direction dir (1: the smallest, -1: the
// largest) among the parts' own, which end reads.
func (m *OrderedByteMap) extreme(dir int, end func(*core.OrderedBytesMap, *core.Ctx) ([]byte, []byte, bool)) (key, value []byte, ok bool) {
	for i := range m.parts {
		p := &m.parts[i]
		c := p.rt.acquire()
		k, v, has := end(p.m, c)
		p.rt.release(c)
		if has && (!ok || bytes.Compare(k, key)*dir < 0) {
			key, value, ok = k, v, true
		}
	}
	return key, value, ok
}

// Min implements OrderedMap.
func (m *OrderedByteMap) Min() (key, value []byte, ok bool) {
	return m.extreme(1, (*core.OrderedBytesMap).Min)
}

// Max implements OrderedMap.
func (m *OrderedByteMap) Max() (key, value []byte, ok bool) {
	return m.extreme(-1, (*core.OrderedBytesMap).Max)
}

// Kind implements Map.
func (m *OrderedByteMap) Kind() Kind { return KindOrderedMap }
