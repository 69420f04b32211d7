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

// --- the shared base -----------------------------------------------------

// bytesCore is the operation set the two core byte-keyed maps share.
type bytesCore interface {
	Set(c *core.Ctx, key, value []byte, meta uint16, aux uint64) (created bool, err error)
	Get(c *core.Ctx, key []byte) ([]byte, bool)
	GetItem(c *core.Ctx, key []byte) (value []byte, meta uint16, aux uint64, ok bool)
	SetAux(c *core.Ctx, key []byte, aux uint64) bool
	Delete(c *core.Ctx, key []byte) bool
	Contains(c *core.Ctx, key []byte) bool
	Len(c *core.Ctx) int
}

// mapPart is one runtime's share of a byte-keyed map: the core map and the
// binding that resolves its sessions.
type mapPart[C bytesCore] struct {
	binding
	m C
}

// byteMap is the shared implementation of ByteMap and OrderedByteMap: 1..N
// parts, each a core map on its own runtime, and the function that routes a
// key to the part owning it. A Runtime hands out the one-part case; JoinMaps
// and JoinOrderedMaps build the rest. A point operation routes, draws a
// session on the owning part's runtime and makes the core call there, so it
// behaves exactly as on a single runtime; Len and iteration combine the
// parts.
type byteMap[C bytesCore] struct {
	parts []mapPart[C]
	route func(key []byte) int // never called on a one-part map
	name  string
}

func onePart[C bytesCore](r *Runtime, m C, name string) byteMap[C] {
	return byteMap[C]{parts: []mapPart[C]{{binding{rt: r}, m}}, name: name}
}

// part returns the part owning key.
func (m *byteMap[C]) part(key []byte) *mapPart[C] {
	if len(m.parts) == 1 {
		return &m.parts[0]
	}
	return &m.parts[m.route(key)]
}

// pinned returns a copy of the map with s pinned on every part; only the
// part whose runtime owns s will use it (see binding).
func (m byteMap[C]) pinned(s *Session) byteMap[C] {
	parts := make([]mapPart[C], len(m.parts))
	for i, p := range m.parts {
		p.pin = s
		parts[i] = p
	}
	m.parts = parts
	return m
}

// Set implements Map (meta 0, aux 0).
func (m *byteMap[C]) Set(key, value []byte) error {
	_, err := m.SetItem(key, value, 0, 0)
	return err
}

// SetItem binds key to value with a metadata field and aux word; reports
// whether the key was newly created.
func (m *byteMap[C]) SetItem(key, value []byte, meta uint16, aux uint64) (created bool, err error) {
	p := m.part(key)
	c, s, err := p.beginErr()
	if err != nil {
		return false, err
	}
	defer p.end(s)
	created, err = p.m.Set(c, key, value, meta, aux)
	return created, wrapErr(err)
}

// Get implements Map.
func (m *byteMap[C]) Get(key []byte) ([]byte, bool) {
	p := m.part(key)
	c, s := p.begin()
	defer p.end(s)
	return p.m.Get(c, key)
}

// GetItem returns the value with its metadata field and aux word.
func (m *byteMap[C]) GetItem(key []byte) (value []byte, meta uint16, aux uint64, ok bool) {
	p := m.part(key)
	c, s := p.begin()
	defer p.end(s)
	return p.m.GetItem(c, key)
}

// SetAux durably replaces the aux word of an existing entry in place
// (touch-style update); false if key is absent.
func (m *byteMap[C]) SetAux(key []byte, aux uint64) bool {
	p := m.part(key)
	c, s := p.begin()
	defer p.end(s)
	return p.m.SetAux(c, key, aux)
}

// Delete implements Map.
func (m *byteMap[C]) Delete(key []byte) bool {
	p := m.part(key)
	c, s := p.begin()
	defer p.end(s)
	return p.m.Delete(c, key)
}

// Contains implements Map.
func (m *byteMap[C]) Contains(key []byte) bool {
	p := m.part(key)
	c, s := p.begin()
	defer p.end(s)
	return p.m.Contains(c, key)
}

// Len implements Map: the sum over the parts (quiescent use).
func (m *byteMap[C]) Len() int {
	n := 0
	for i := range m.parts {
		p := &m.parts[i]
		c, s := p.begin()
		n += p.m.Len(c)
		p.end(s)
	}
	return n
}

// Name implements Map (the same on every part).
func (m *byteMap[C]) Name() string { return m.name }

// --- ByteMap -------------------------------------------------------------

// ByteMap is the byte-keyed durable hash map (KindMap): arbitrary []byte
// keys and values with durable collision chains, plus a 16-bit metadata
// field and a 64-bit aux word per entry for cache-style metadata (flags,
// expiry). All methods are safe for concurrent use from any goroutine.
type ByteMap struct {
	byteMap[*core.BytesMap]
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
	return &ByteMap{onePart(r, st.(*core.BytesMap), name)}, nil
}

// JoinMaps makes one map of maps opened under the same name on different
// runtimes (at least one). route names the part that owns a key, as an index
// into parts; it must depend on the key's bytes alone and never change while
// the data lives, since an entry is only ever looked for on the part route
// points at. sharded.Pool.Map is the caller that keeps that promise durably.
func JoinMaps(route func(key []byte) int, parts ...*ByteMap) *ByteMap {
	j := &ByteMap{byteMap[*core.BytesMap]{route: route, name: parts[0].name}}
	for _, p := range parts {
		j.parts = append(j.parts, p.parts...)
	}
	return j
}

// WithSession returns a view of the map whose operations run on the pinned
// session s instead of drawing pooled sessions — for tight single-goroutine
// loops. s is used on the runtime that handed it out; on a joined map the
// other parts go on drawing pooled sessions. The view must only be used by
// the goroutine owning s.
func (m *ByteMap) WithSession(s *Session) *ByteMap { return &ByteMap{m.pinned(s)} }

// GetAux returns the aux word bound to key and the length of its value (no
// value copy).
func (m *ByteMap) GetAux(key []byte) (aux uint64, valueLen int, ok bool) {
	p := m.part(key)
	c, s := p.begin()
	defer p.end(s)
	return p.m.GetAux(c, key)
}

// Entry is one entry as Walk presents it to its visitor: the key (the walk's
// scratch buffer — copy it to keep it), the metadata field, the aux word and
// the value's length, with Value() copying the value out on request. Valid
// until the visitor returns.
type Entry = core.WalkEntry

// walkPartShift places the part number above the part-local cursor in a Walk
// or Sweep cursor.
const walkPartShift = 48

// stepParts runs one step of a part-by-part cursor walk: step takes the
// part-local cursor on the part the cursor names and returns the next local
// one (0 once that part is done). The cursor runs through part 0, then part
// 1, and comes back 0 after the last part.
func (m *ByteMap) stepParts(cursor uint64, step func(c *core.Ctx, m *core.BytesMap, local uint64) uint64) (next uint64) {
	i := cursor >> walkPartShift
	if i >= uint64(len(m.parts)) {
		return 0
	}
	p := &m.parts[i]
	c, s := p.begin()
	defer p.end(s)
	if local := step(c, p.m, cursor&(1<<walkPartShift-1)); local != 0 {
		return i<<walkPartShift | local
	}
	if i+1 < uint64(len(m.parts)) {
		return (i + 1) << walkPartShift
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
// bucket. The visitor must not operate through the same pinned Session.
func (m *ByteMap) Walk(cursor uint64, visit func(Entry) bool) (next uint64) {
	return m.stepParts(cursor, func(c *core.Ctx, pm *core.BytesMap, local uint64) uint64 {
		return pm.Walk(c, local, visit)
	})
}

// SweepEntry is one entry extent as Sweep presents it to its visitor: the key
// (the sweep's scratch buffer — copy it to keep it) and the aux word, valid
// until the visitor returns. Live reports whether the extent is the map's
// current entry for its key; it searches the key's chain, so call it only on
// an entry about to be acted on.
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
// after that extent.
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
// registered under name (OpenOrCreate with KindOrderedMap, concretely
// typed).
func (r *Runtime) OrderedMap(name string) (*OrderedByteMap, error) {
	st, err := r.open(name, KindOrderedMap, 0)
	if err != nil {
		return nil, err
	}
	return &OrderedByteMap{onePart(r, st.(*core.OrderedBytesMap), name)}, nil
}

// JoinOrderedMaps is JoinMaps for ordered maps.
func JoinOrderedMaps(route func(key []byte) int, parts ...*OrderedByteMap) *OrderedByteMap {
	j := &OrderedByteMap{byteMap[*core.OrderedBytesMap]{route: route, name: parts[0].name}}
	for _, p := range parts {
		j.parts = append(j.parts, p.parts...)
	}
	return j
}

// WithSession returns a view of the map whose operations run on the pinned
// session s; see ByteMap.WithSession.
func (m *OrderedByteMap) WithSession(s *Session) *OrderedByteMap {
	return &OrderedByteMap{m.pinned(s)}
}

// All implements Map: ascending byte-key order, epoch-protected across the
// whole loop.
func (m *OrderedByteMap) All() iter.Seq2[[]byte, []byte] { return m.Scan(nil, nil) }

// Items is All including each entry's metadata and aux word.
func (m *OrderedByteMap) Items() iter.Seq2[[]byte, Item] { return m.ScanItems(nil, nil) }

// mergeParts streams the merge of the parts' ordered sequences, ascending
// (dir 1) or descending (dir -1); each produces one part's. One part's
// sequence is the merge. Otherwise each part contributes a pull-style cursor
// (iter.Pull2 suspends the part's epoch-protected range loop between pulls,
// so every part's epoch section is held for the duration of the merge) and
// the merge repeatedly yields the smallest head. Part counts are small (≤ a
// few dozen), so a linear min scan beats a heap. Distinct keys never collide
// across parts (one part owns each key), so tie order is irrelevant.
func mergeParts[V any](parts []orderedPart, dir int, each func(p *orderedPart, yield func([]byte, V) bool)) iter.Seq2[[]byte, V] {
	return func(yield func([]byte, V) bool) {
		if len(parts) == 1 {
			each(&parts[0], yield)
			return
		}
		type cursor struct {
			k    []byte
			v    V
			next func() ([]byte, V, bool)
		}
		cur := make([]cursor, 0, len(parts))
		for i := range parts {
			next, stop := iter.Pull2(func(yield func([]byte, V) bool) { each(&parts[i], yield) })
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

// Scan implements OrderedMap: ascending over [start, end) (nil start = from
// the smallest key, nil end = through the largest).
func (m *OrderedByteMap) Scan(start, end []byte) iter.Seq2[[]byte, []byte] {
	return mergeParts(m.parts, 1, func(p *orderedPart, yield func([]byte, []byte) bool) {
		c, s := p.begin()
		defer p.end(s)
		p.m.Scan(c, start, end, yield)
	})
}

// ScanItems is Scan including each entry's metadata and aux word.
func (m *OrderedByteMap) ScanItems(start, end []byte) iter.Seq2[[]byte, Item] {
	return mergeParts(m.parts, 1, func(p *orderedPart, yield func([]byte, Item) bool) {
		c, s := p.begin()
		defer p.end(s)
		p.m.ScanItems(c, start, end, func(k, v []byte, meta uint16, aux uint64) bool {
			return yield(k, Item{Value: v, Meta: meta, Aux: aux})
		})
	})
}

// Ascend implements OrderedMap.
func (m *OrderedByteMap) Ascend() iter.Seq2[[]byte, []byte] { return m.Scan(nil, nil) }

// Descend implements OrderedMap.
func (m *OrderedByteMap) Descend() iter.Seq2[[]byte, []byte] {
	return mergeParts(m.parts, -1, func(p *orderedPart, yield func([]byte, []byte) bool) {
		c, s := p.begin()
		defer p.end(s)
		p.m.Descend(c, yield)
	})
}

// extreme returns the first key in direction dir (1: the smallest, -1: the
// largest) among the parts' own, which end reads.
func (m *OrderedByteMap) extreme(dir int, end func(*core.OrderedBytesMap, *core.Ctx) ([]byte, []byte, bool)) (key, value []byte, ok bool) {
	for i := range m.parts {
		p := &m.parts[i]
		c, s := p.begin()
		k, v, has := end(p.m, c)
		p.end(s)
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
