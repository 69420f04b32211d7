package logfree

import (
	"bytes"
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
// KindMap (the default) stores arbitrary []byte keys and values: the key's
// hash indexes a log-free durable hash table, the full key is verified in
// the durable entry, and same-hash keys chain durably — distinct keys can
// never alias. KindOrderedMap keeps the same entries in byte-key order.
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
	// concurrent updates may be missed). KindOrderedMap holds the
	// reclamation epoch section across the whole loop; KindMap holds one per
	// chunk of buckets and runs the loop body between them, so a slow body
	// does not hold reclamation back. Loop bodies may call operations (they
	// draw their own sessions) but must not operate through the same pinned
	// Session.
	All() iter.Seq2[[]byte, []byte]
	// Batch starts an operation batch against this map; see Batch.
	Batch() *Batch
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
// restores the default). Tests inject colliding hashes to exercise the
// durable collision chains deterministically; the override must stay in
// place across any crash/recover cycle of the test, since entries persist
// the index key they were stored under.
func SetHashForTesting(f func([]byte) uint64) { core.SetBytesHashForTesting(f) }

// --- ByteMap -------------------------------------------------------------

// ByteMap is the byte-keyed durable hash map (KindMap): arbitrary []byte
// keys and values with durable collision chains, plus a 16-bit metadata
// field and a 64-bit aux word per entry for cache-style metadata (flags,
// expiry). All methods are safe for concurrent use from any goroutine.
type ByteMap struct {
	binding
	b    *core.BytesMap
	name string
}

// Map opens or creates the byte-keyed durable map registered under name
// (OpenOrCreate with KindMap, concretely typed).
func (r *Runtime) Map(name string, buckets int) (*ByteMap, error) {
	if buckets <= 0 {
		buckets = 1024
	}
	st, err := r.open(name, KindMap, buckets)
	if err != nil {
		return nil, err
	}
	return &ByteMap{binding: binding{rt: r}, b: st.(*core.BytesMap), name: name}, nil
}

// WithSession returns a view of the map whose operations all run on the
// pinned session s instead of drawing pooled sessions — for tight
// single-goroutine loops. The view must only be used by the goroutine
// owning s.
func (m *ByteMap) WithSession(s *Session) *ByteMap {
	cp := *m
	cp.pin = s
	return &cp
}

// Set implements Map (meta 0, aux 0).
func (m *ByteMap) Set(key, value []byte) error {
	c, s, err := m.beginErr()
	if err != nil {
		return err
	}
	defer m.end(s)
	_, err = m.b.Set(c, key, value, 0, 0)
	return wrapErr(err)
}

// SetItem binds key to value with a metadata field and aux word; reports
// whether the key was newly created.
func (m *ByteMap) SetItem(key, value []byte, meta uint16, aux uint64) (created bool, err error) {
	c, s, err := m.beginErr()
	if err != nil {
		return false, err
	}
	defer m.end(s)
	created, err = m.b.Set(c, key, value, meta, aux)
	return created, wrapErr(err)
}

// Get implements Map.
func (m *ByteMap) Get(key []byte) ([]byte, bool) {
	c, s := m.begin()
	defer m.end(s)
	return m.b.Get(c, key)
}

// GetItem returns the value with its metadata field and aux word.
func (m *ByteMap) GetItem(key []byte) (value []byte, meta uint16, aux uint64, ok bool) {
	c, s := m.begin()
	defer m.end(s)
	return m.b.GetItem(c, key)
}

// GetAux returns the aux word bound to key and the length of its value (no
// value copy).
func (m *ByteMap) GetAux(key []byte) (aux uint64, valueLen int, ok bool) {
	c, s := m.begin()
	defer m.end(s)
	return m.b.GetAux(c, key)
}

// SetAux durably replaces the aux word of an existing entry in place
// (touch-style update); false if key is absent.
func (m *ByteMap) SetAux(key []byte, aux uint64) bool {
	c, s := m.begin()
	defer m.end(s)
	return m.b.SetAux(c, key, aux)
}

// Delete implements Map.
func (m *ByteMap) Delete(key []byte) bool {
	c, s := m.begin()
	defer m.end(s)
	return m.b.Delete(c, key)
}

// Contains implements Map.
func (m *ByteMap) Contains(key []byte) bool {
	c, s := m.begin()
	defer m.end(s)
	return m.b.Contains(c, key)
}

// Len implements Map (quiescent use).
func (m *ByteMap) Len() int {
	c, s := m.begin()
	defer m.end(s)
	return m.b.Len(c)
}

// Entry is one entry as Walk presents it to its visitor: the key (the walk's
// scratch buffer — copy it to keep it), the metadata field, the aux word and
// the value's length, with Value() copying the value out on request. Valid
// until the visitor returns.
type Entry = core.WalkEntry

// Walk is the resumable iteration over the map, with the contract of Redis's
// SCAN: start at cursor 0, pass each returned cursor to the next call, stop
// when 0 comes back. Each call visits the next few index buckets under one
// reclamation epoch section and holds nothing once it returns, so a walker
// may take as long as it likes between calls. One full cycle presents every
// key that was in the map throughout it at least once; keys inserted or
// deleted during the cycle may or may not appear. A visitor that returns
// false ends its call after the current bucket. The visitor must not operate
// through the same pinned Session.
func (m *ByteMap) Walk(cursor uint64, visit func(Entry) bool) (next uint64) {
	c, s := m.begin()
	defer m.end(s)
	return m.b.Walk(c, cursor, visit)
}

// All implements Map: unordered iteration (safe-concurrent, no snapshot
// semantics).
func (m *ByteMap) All() iter.Seq2[[]byte, []byte] {
	return func(yield func([]byte, []byte) bool) {
		for k, it := range m.Items() {
			if !yield(k, it.Value) {
				return
			}
		}
	}
}

// Items is All including each entry's metadata and aux word. Each Walk step's
// entries are copied out and yielded after the step's epoch section closed.
func (m *ByteMap) Items() iter.Seq2[[]byte, Item] {
	return func(yield func([]byte, Item) bool) {
		type entry struct {
			key  []byte
			item Item
		}
		var step []entry
		for cursor := uint64(0); ; {
			step = step[:0]
			cursor = m.Walk(cursor, func(e Entry) bool {
				step = append(step, entry{bytes.Clone(e.Key), Item{Value: e.Value(), Meta: e.Meta, Aux: e.Aux}})
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

// Batch implements Map: Commit applies the collected ops with one shared
// content fence before the per-op publishing links (~N+1 sync waits for N
// sets instead of 2N).
func (m *ByteMap) Batch() *Batch {
	return &Batch{apply: func(ops []core.BytesOp) error {
		c, s, err := m.beginErr()
		if err != nil {
			return err
		}
		defer m.end(s)
		return wrapErr(m.b.ApplyBatch(c, ops))
	}}
}

// Kind implements Map.
func (m *ByteMap) Kind() Kind { return KindMap }

// Name implements Map.
func (m *ByteMap) Name() string { return m.name }

// --- OrderedByteMap ------------------------------------------------------

// OrderedByteMap is the byte-keyed ordered durable map (KindOrderedMap):
// arbitrary []byte keys and values over a byte-key-comparing durable skip
// list, plus a 16-bit metadata field and a 64-bit aux word per entry. It
// satisfies OrderedMap: All and Scan iterate keys in strictly ascending
// byte order. All methods are safe for concurrent use from any goroutine.
type OrderedByteMap struct {
	binding
	o    *core.OrderedBytesMap
	name string
}

// OrderedMap opens or creates the ordered byte-keyed durable map
// registered under name (OpenOrCreate with KindOrderedMap, concretely
// typed).
func (r *Runtime) OrderedMap(name string) (*OrderedByteMap, error) {
	st, err := r.open(name, KindOrderedMap, 0)
	if err != nil {
		return nil, err
	}
	return &OrderedByteMap{binding: binding{rt: r}, o: st.(*core.OrderedBytesMap), name: name}, nil
}

// WithSession returns a view of the map whose operations all run on the
// pinned session s; see ByteMap.WithSession.
func (m *OrderedByteMap) WithSession(s *Session) *OrderedByteMap {
	cp := *m
	cp.pin = s
	return &cp
}

// Set implements Map (meta 0, aux 0).
func (m *OrderedByteMap) Set(key, value []byte) error {
	c, s, err := m.beginErr()
	if err != nil {
		return err
	}
	defer m.end(s)
	_, err = m.o.Set(c, key, value, 0, 0)
	return wrapErr(err)
}

// SetItem binds key to value with a metadata field and aux word; reports
// whether the key was newly created.
func (m *OrderedByteMap) SetItem(key, value []byte, meta uint16, aux uint64) (created bool, err error) {
	c, s, err := m.beginErr()
	if err != nil {
		return false, err
	}
	defer m.end(s)
	created, err = m.o.Set(c, key, value, meta, aux)
	return created, wrapErr(err)
}

// Get implements Map.
func (m *OrderedByteMap) Get(key []byte) ([]byte, bool) {
	c, s := m.begin()
	defer m.end(s)
	return m.o.Get(c, key)
}

// GetItem returns the value with its metadata field and aux word.
func (m *OrderedByteMap) GetItem(key []byte) (value []byte, meta uint16, aux uint64, ok bool) {
	c, s := m.begin()
	defer m.end(s)
	return m.o.GetItem(c, key)
}

// SetAux durably replaces the aux word of an existing entry in place
// (touch-style update); false if key is absent.
func (m *OrderedByteMap) SetAux(key []byte, aux uint64) bool {
	c, s := m.begin()
	defer m.end(s)
	return m.o.SetAux(c, key, aux)
}

// Delete implements Map.
func (m *OrderedByteMap) Delete(key []byte) bool {
	c, s := m.begin()
	defer m.end(s)
	return m.o.Delete(c, key)
}

// Contains implements Map.
func (m *OrderedByteMap) Contains(key []byte) bool {
	c, s := m.begin()
	defer m.end(s)
	return m.o.Contains(c, key)
}

// Len implements Map (quiescent use).
func (m *OrderedByteMap) Len() int {
	c, s := m.begin()
	defer m.end(s)
	return m.o.Len(c)
}

// All implements Map: ascending byte-key order, epoch-protected across the
// whole loop.
func (m *OrderedByteMap) All() iter.Seq2[[]byte, []byte] { return m.Scan(nil, nil) }

// Items is All including each entry's metadata and aux word.
func (m *OrderedByteMap) Items() iter.Seq2[[]byte, Item] { return m.ScanItems(nil, nil) }

// Scan implements OrderedMap: ascending over [start, end) (nil start = from
// the smallest key, nil end = through the largest).
func (m *OrderedByteMap) Scan(start, end []byte) iter.Seq2[[]byte, []byte] {
	return func(yield func([]byte, []byte) bool) {
		c, s := m.begin()
		defer m.end(s)
		m.o.Scan(c, start, end, yield)
	}
}

// ScanItems is Scan including each entry's metadata and aux word.
func (m *OrderedByteMap) ScanItems(start, end []byte) iter.Seq2[[]byte, Item] {
	return func(yield func([]byte, Item) bool) {
		c, s := m.begin()
		defer m.end(s)
		m.o.ScanItems(c, start, end, func(k, v []byte, meta uint16, aux uint64) bool {
			return yield(k, Item{Value: v, Meta: meta, Aux: aux})
		})
	}
}

// Ascend implements OrderedMap.
func (m *OrderedByteMap) Ascend() iter.Seq2[[]byte, []byte] { return m.Scan(nil, nil) }

// Descend implements OrderedMap.
func (m *OrderedByteMap) Descend() iter.Seq2[[]byte, []byte] {
	return func(yield func([]byte, []byte) bool) {
		c, s := m.begin()
		defer m.end(s)
		m.o.Descend(c, yield)
	}
}

// Min implements OrderedMap.
func (m *OrderedByteMap) Min() (key, value []byte, ok bool) {
	c, s := m.begin()
	defer m.end(s)
	return m.o.Min(c)
}

// Max implements OrderedMap.
func (m *OrderedByteMap) Max() (key, value []byte, ok bool) {
	c, s := m.begin()
	defer m.end(s)
	return m.o.Max(c)
}

// Batch implements Map; see ByteMap.Batch.
func (m *OrderedByteMap) Batch() *Batch {
	return &Batch{apply: func(ops []core.BytesOp) error {
		c, s, err := m.beginErr()
		if err != nil {
			return err
		}
		defer m.end(s)
		return wrapErr(m.o.ApplyBatch(c, ops))
	}}
}

// Kind implements Map.
func (m *OrderedByteMap) Kind() Kind { return KindOrderedMap }

// Name implements Map.
func (m *OrderedByteMap) Name() string { return m.name }
