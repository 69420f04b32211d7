package sharded

import (
	"bytes"
	"fmt"
	"iter"
	"sync"

	"repro/logfree"
)

// Map is the hash-routed view of one byte-keyed durable hash map per shard
// (logfree KindMap), opened under the same name on every shard. Point
// operations route to the key's shard and behave exactly as on a single
// runtime; aggregate operations (Len, All, Items) combine the shards. All
// methods are safe for concurrent use from any goroutine.
type Map struct {
	pool  *Pool
	parts []*logfree.ByteMap
	name  string
}

// Map opens or creates the byte-keyed durable map registered under name on
// every shard. buckets sizes each SHARD's table (keys spread ~uniformly, so
// size it for len(keys)/Shards — a pool-wide budget divided by Shards).
func (p *Pool) Map(name string, buckets int) (*Map, error) {
	parts := make([]*logfree.ByteMap, len(p.rts))
	for i, rt := range p.rts {
		m, err := rt.Map(name, buckets)
		if err != nil {
			return nil, fmt.Errorf("sharded: opening %q on shard %d: %w", name, i, err)
		}
		parts[i] = m
	}
	return &Map{pool: p, parts: parts, name: name}, nil
}

// WithSession returns a view whose operations run on s's pinned per-shard
// sessions instead of drawing pooled ones; see logfree.ByteMap.WithSession.
func (m *Map) WithSession(s *PoolSession) *Map {
	parts := make([]*logfree.ByteMap, len(m.parts))
	for i, part := range m.parts {
		parts[i] = part.WithSession(s.ss[i])
	}
	return &Map{pool: m.pool, parts: parts, name: m.name}
}

// part returns the shard-local map owning key.
func (m *Map) part(key []byte) *logfree.ByteMap { return m.parts[m.pool.shardOf(key)] }

// Set binds key to value (upsert), durably, on the key's shard.
func (m *Map) Set(key, value []byte) error { return m.part(key).Set(key, value) }

// SetItem binds key to value with a metadata field and aux word; reports
// whether the key was newly created.
func (m *Map) SetItem(key, value []byte, meta uint16, aux uint64) (created bool, err error) {
	return m.part(key).SetItem(key, value, meta, aux)
}

// Get returns a copy of the value bound to key.
func (m *Map) Get(key []byte) ([]byte, bool) { return m.part(key).Get(key) }

// GetItem returns the value with its metadata field and aux word.
func (m *Map) GetItem(key []byte) (value []byte, meta uint16, aux uint64, ok bool) {
	return m.part(key).GetItem(key)
}

// GetAux returns the aux word bound to key and the length of its value (no
// value copy).
func (m *Map) GetAux(key []byte) (aux uint64, valueLen int, ok bool) {
	return m.part(key).GetAux(key)
}

// SetAux durably replaces the aux word of an existing entry in place; false
// if key is absent.
func (m *Map) SetAux(key []byte, aux uint64) bool { return m.part(key).SetAux(key, aux) }

// Delete removes key durably; false if absent.
func (m *Map) Delete(key []byte) bool { return m.part(key).Delete(key) }

// Contains reports whether key is present.
func (m *Map) Contains(key []byte) bool { return m.part(key).Contains(key) }

// Len sums live keys across shards (quiescent use).
func (m *Map) Len() int {
	n := 0
	for _, part := range m.parts {
		n += part.Len()
	}
	return n
}

// walkShardShift places the shard number above the shard-local cursor in a
// Walk cursor.
const walkShardShift = 48

// Walk is logfree.ByteMap.Walk over the whole pool: the cursor runs through
// shard 0's buckets, then shard 1's, and comes back 0 after the last shard's
// last bucket.
func (m *Map) Walk(cursor uint64, visit func(logfree.Entry) bool) (next uint64) {
	i := cursor >> walkShardShift
	if i >= uint64(len(m.parts)) {
		return 0
	}
	if local := m.parts[i].Walk(cursor&(1<<walkShardShift-1), visit); local != 0 {
		return i<<walkShardShift | local
	}
	if i+1 < uint64(len(m.parts)) {
		return (i + 1) << walkShardShift
	}
	return 0
}

// All iterates over live entries of every shard, shard by shard (unordered,
// as for any hash map); see logfree.ByteMap.Items for what is held when.
func (m *Map) All() iter.Seq2[[]byte, []byte] {
	return func(yield func([]byte, []byte) bool) {
		for _, part := range m.parts {
			for k, v := range part.All() {
				if !yield(k, v) {
					return
				}
			}
		}
	}
}

// Items is All including each entry's metadata and aux word.
func (m *Map) Items() iter.Seq2[[]byte, logfree.Item] {
	return func(yield func([]byte, logfree.Item) bool) {
		for _, part := range m.parts {
			for k, it := range part.Items() {
				if !yield(k, it) {
					return
				}
			}
		}
	}
}

// Batch starts an operation batch against this map; see Batch.
func (m *Map) Batch() *Batch {
	return &Batch{
		route: m.pool.shardOf,
		mk:    func(i int) *logfree.Batch { return m.parts[i].Batch() },
		per:   make([]*logfree.Batch, len(m.parts)),
	}
}

// Kind reports logfree.KindMap.
func (m *Map) Kind() logfree.Kind { return logfree.KindMap }

// Name reports the directory name the map is registered under (the same on
// every shard).
func (m *Map) Name() string { return m.name }

// --- OrderedMap -----------------------------------------------------------

// OrderedMap is the hash-routed view of one ordered byte-keyed durable map
// per shard (logfree KindOrderedMap). Point operations route to the key's
// shard; ordered queries (Scan, Ascend, Descend, Min, Max) merge the
// shards' ordered streams on the fly, so iteration is in strictly ascending
// (or descending) byte order across the WHOLE pool, not per shard. All
// methods are safe for concurrent use from any goroutine.
type OrderedMap struct {
	pool  *Pool
	parts []*logfree.OrderedByteMap
	name  string
}

// OrderedMap opens or creates the ordered byte-keyed durable map registered
// under name on every shard.
func (p *Pool) OrderedMap(name string) (*OrderedMap, error) {
	parts := make([]*logfree.OrderedByteMap, len(p.rts))
	for i, rt := range p.rts {
		m, err := rt.OrderedMap(name)
		if err != nil {
			return nil, fmt.Errorf("sharded: opening %q on shard %d: %w", name, i, err)
		}
		parts[i] = m
	}
	return &OrderedMap{pool: p, parts: parts, name: name}, nil
}

// WithSession returns a view whose operations run on s's pinned per-shard
// sessions; see logfree.OrderedByteMap.WithSession.
func (m *OrderedMap) WithSession(s *PoolSession) *OrderedMap {
	parts := make([]*logfree.OrderedByteMap, len(m.parts))
	for i, part := range m.parts {
		parts[i] = part.WithSession(s.ss[i])
	}
	return &OrderedMap{pool: m.pool, parts: parts, name: m.name}
}

func (m *OrderedMap) part(key []byte) *logfree.OrderedByteMap {
	return m.parts[m.pool.shardOf(key)]
}

// Set binds key to value (upsert), durably, on the key's shard.
func (m *OrderedMap) Set(key, value []byte) error { return m.part(key).Set(key, value) }

// SetItem binds key to value with a metadata field and aux word.
func (m *OrderedMap) SetItem(key, value []byte, meta uint16, aux uint64) (created bool, err error) {
	return m.part(key).SetItem(key, value, meta, aux)
}

// Get returns a copy of the value bound to key.
func (m *OrderedMap) Get(key []byte) ([]byte, bool) { return m.part(key).Get(key) }

// GetItem returns the value with its metadata field and aux word.
func (m *OrderedMap) GetItem(key []byte) (value []byte, meta uint16, aux uint64, ok bool) {
	return m.part(key).GetItem(key)
}

// SetAux durably replaces the aux word of an existing entry in place.
func (m *OrderedMap) SetAux(key []byte, aux uint64) bool { return m.part(key).SetAux(key, aux) }

// Delete removes key durably; false if absent.
func (m *OrderedMap) Delete(key []byte) bool { return m.part(key).Delete(key) }

// Contains reports whether key is present.
func (m *OrderedMap) Contains(key []byte) bool { return m.part(key).Contains(key) }

// Len sums live keys across shards (quiescent use).
func (m *OrderedMap) Len() int {
	n := 0
	for _, part := range m.parts {
		n += part.Len()
	}
	return n
}

// All iterates every live entry in ascending byte-key order across the
// whole pool (N-way merge of the shards' ordered streams).
func (m *OrderedMap) All() iter.Seq2[[]byte, []byte] { return m.Scan(nil, nil) }

// Items is All including each entry's metadata and aux word.
func (m *OrderedMap) Items() iter.Seq2[[]byte, logfree.Item] { return m.ScanItems(nil, nil) }

// mergeAsc streams an N-way ascending merge of per-shard ordered sequences.
// Each shard contributes a pull-style cursor (iter.Pull2 suspends the
// shard's epoch-protected range loop between pulls); the merge repeatedly
// yields the smallest head. Shard counts are small (≤ a few dozen), so a
// linear min scan beats a heap. cmp flips the direction for descending
// merges. Distinct keys never collide across shards (one shard owns each
// key), so tie order is irrelevant.
func mergeAsc[V any](seqs []iter.Seq2[[]byte, V], less func(a, b []byte) bool) iter.Seq2[[]byte, V] {
	return func(yield func([]byte, V) bool) {
		type cursor struct {
			k    []byte
			v    V
			next func() ([]byte, V, bool)
		}
		cur := make([]cursor, 0, len(seqs))
		for _, seq := range seqs {
			next, stop := iter.Pull2(seq)
			defer stop()
			if k, v, ok := next(); ok {
				cur = append(cur, cursor{k, v, next})
			}
		}
		for len(cur) > 0 {
			mi := 0
			for i := 1; i < len(cur); i++ {
				if less(cur[i].k, cur[mi].k) {
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

func ascLess(a, b []byte) bool  { return bytes.Compare(a, b) < 0 }
func descLess(a, b []byte) bool { return bytes.Compare(a, b) > 0 }

// Scan iterates every live key k with start <= k < end in strictly
// ascending byte order across the whole pool. Not a snapshot; each shard's
// epoch section is held for the duration of the merge.
func (m *OrderedMap) Scan(start, end []byte) iter.Seq2[[]byte, []byte] {
	seqs := make([]iter.Seq2[[]byte, []byte], len(m.parts))
	for i, part := range m.parts {
		seqs[i] = part.Scan(start, end)
	}
	return mergeAsc(seqs, ascLess)
}

// ScanItems is Scan including each entry's metadata and aux word.
func (m *OrderedMap) ScanItems(start, end []byte) iter.Seq2[[]byte, logfree.Item] {
	seqs := make([]iter.Seq2[[]byte, logfree.Item], len(m.parts))
	for i, part := range m.parts {
		seqs[i] = part.ScanItems(start, end)
	}
	return mergeAsc(seqs, ascLess)
}

// Ascend iterates every live key in ascending byte order.
func (m *OrderedMap) Ascend() iter.Seq2[[]byte, []byte] { return m.Scan(nil, nil) }

// Descend iterates every live key in descending byte order (reverse N-way
// merge of the shards' Descend streams).
func (m *OrderedMap) Descend() iter.Seq2[[]byte, []byte] {
	seqs := make([]iter.Seq2[[]byte, []byte], len(m.parts))
	for i, part := range m.parts {
		seqs[i] = part.Descend()
	}
	return mergeAsc(seqs, descLess)
}

// Min returns the smallest live key and its value across all shards.
func (m *OrderedMap) Min() (key, value []byte, ok bool) {
	for _, part := range m.parts {
		k, v, has := part.Min()
		if has && (!ok || bytes.Compare(k, key) < 0) {
			key, value, ok = k, v, true
		}
	}
	return key, value, ok
}

// Max returns the largest live key and its value across all shards.
func (m *OrderedMap) Max() (key, value []byte, ok bool) {
	for _, part := range m.parts {
		k, v, has := part.Max()
		if has && (!ok || bytes.Compare(k, key) > 0) {
			key, value, ok = k, v, true
		}
	}
	return key, value, ok
}

// Batch starts an operation batch against this map; see Batch.
func (m *OrderedMap) Batch() *Batch {
	return &Batch{
		route: m.pool.shardOf,
		mk:    func(i int) *logfree.Batch { return m.parts[i].Batch() },
		per:   make([]*logfree.Batch, len(m.parts)),
	}
}

// Kind reports logfree.KindOrderedMap.
func (m *OrderedMap) Kind() logfree.Kind { return logfree.KindOrderedMap }

// Name reports the directory name the map is registered under.
func (m *OrderedMap) Name() string { return m.name }

// --- Batch ----------------------------------------------------------------

// Batch collects Set/SetItem/Delete operations against one sharded map and
// applies them on Commit, bucketed per shard and committed per-shard IN
// PARALLEL (one goroutine per shard that has ops), each shard paying its
// own single amortized content fence (see logfree.Batch).
//
// Crash semantics: within one shard the per-op prefix guarantee of
// logfree.Batch holds exactly — ops routed to that shard become durable in
// their buffered order, each individually crash-atomic. ACROSS shards there
// is no atomicity and no ordering: a crash mid-commit can persist all of
// one shard's ops and none of another's. Callers that need a global prefix
// must keep the batch's keys on one shard (or use an unsharded runtime).
//
// A Batch is not safe for concurrent use; Commit may be called from any
// goroutine.
type Batch struct {
	route func([]byte) int
	mk    func(int) *logfree.Batch
	per   []*logfree.Batch
	n     int
}

func (b *Batch) shard(key []byte) *logfree.Batch {
	i := b.route(key)
	if b.per[i] == nil {
		b.per[i] = b.mk(i)
	}
	return b.per[i]
}

// Set buffers a durable upsert of key to value (meta 0, aux 0).
func (b *Batch) Set(key, value []byte) *Batch { return b.SetItem(key, value, 0, 0) }

// SetItem buffers a durable upsert with the entry's metadata field and aux
// word. Key and value bytes are copied; callers may reuse their slices.
func (b *Batch) SetItem(key, value []byte, meta uint16, aux uint64) *Batch {
	b.shard(key).SetItem(key, value, meta, aux)
	b.n++
	return b
}

// Delete buffers a durable delete of key.
func (b *Batch) Delete(key []byte) *Batch {
	b.shard(key).Delete(key)
	b.n++
	return b
}

// Len reports the number of buffered operations across all shards.
func (b *Batch) Len() int { return b.n }

// Reset discards the buffered operations, keeping per-shard backing storage
// for reuse.
func (b *Batch) Reset() *Batch {
	for _, sb := range b.per {
		if sb != nil {
			sb.Reset()
		}
	}
	b.n = 0
	return b
}

// Commit applies the buffered operations (see the type comment for crash
// semantics) and resets the batch on success. The total op count is held to
// logfree.MaxBatchOps, matching the single-runtime contract. On error the
// batch keeps its ops; shards that committed before the failure stay
// committed (exactly the cross-shard crash semantics).
func (b *Batch) Commit() error {
	if b.n > logfree.MaxBatchOps {
		return fmt.Errorf("%w: %d ops (max %d)", logfree.ErrBatchTooLarge, b.n, logfree.MaxBatchOps)
	}
	if b.n == 0 {
		return nil
	}
	var live []*logfree.Batch
	for _, sb := range b.per {
		if sb != nil && sb.Len() > 0 {
			live = append(live, sb)
		}
	}
	var firstErr error
	if len(live) == 1 {
		firstErr = live[0].Commit()
	} else {
		errs := make([]error, len(live))
		var wg sync.WaitGroup
		for i, sb := range live {
			wg.Add(1)
			go func(i int, sb *logfree.Batch) {
				defer wg.Done()
				errs[i] = sb.Commit()
			}(i, sb)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				firstErr = err
				break
			}
		}
	}
	if firstErr != nil {
		return firstErr
	}
	b.n = 0
	return nil
}
