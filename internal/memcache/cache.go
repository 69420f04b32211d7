// Package memcache implements NV-Memcached (§6.5): a durable object cache
// in the mold of Memcached, built on the public logfree byte-key API.
//
// The paper gets durability by swapping the structure under Memcached's
// single item link/unlink path. Here too every way an item enters, changes
// or leaves the cache is one of three steps (lifecycle.go):
//
//   - The store step: the new deadline into the durable expiry index, the
//     item into the index, the record into the replication stream, the stale
//     deadline out, then the key's reference bit and the totals. The index
//     is logfree's byte-keyed durable map — a log-free lock-free hash table,
//     full keys verified in the durable entries so distinct keys never alias
//     — and items live in slab-class extents of the persistent allocator,
//     swept on recovery for extents allocated but not (or no longer)
//     reachable.
//   - The remove step: the item out of the index, then the same trail.
//   - The index walk: logfree's resumable bucket walk, a few buckets per epoch
//     section. It recounts the items and their bytes after a recovery (from
//     entry headers alone; recency resets, contents do not: cache metadata is
//     advisory, as in Memcached), and feeds snapshots, flush_all and a
//     follower's resync.
//
// Recency is volatile and approximate, as in MemC3: no list, no per-item
// record — one CLOCK reference bit per slot of a flat table that grows with
// the item count, a key's slot picked by the hash that picks its stripe lock.
// A hit or a store sets the bit (testing it first, so a hot key's line stays
// shared). The eviction hand is a cursor over the index's entry extents in
// device-address order (logfree's Sweep, a few allocator pages per epoch
// section): it clears the set bits it passes and evicts the first live item
// it finds clear, if the item still carries the aux word the hand read.
// Victims taken in address order sit together, so their unlinks land in the
// areas NV-epochs already holds active (§5.4) and the slots they free are
// reused from the same pages; a hand in hash order scatters both. Keys that
// share a slot share a bit: a cold key beside a warm one survives another
// turn of the hand, and a warm key whose bit the hand cleared on its way past
// the cold one is exposed until its next hit. The table is sparse enough (32
// to 64 slots per item) that few keys share.
//
// Client commands of both wire protocols and a follower's replicated sets
// reach the steps through one mutation driver: it validates key and size,
// makes room (grow the pool, then evict what the hand finds unused), runs the
// command's precondition and the step under the key's stripe lock, retries
// through grow-then-evict while the device is full, and waits for replication
// once.
// No stripe lock is held while evicting or waiting: a full pool or a slow
// follower delays the caller, never another key. Evictions, the expiry sweep
// and flush_all call the remove step themselves, and wait for nobody.
//
// The engine is always a sharded.Pool of Config.Shards ≥ 1 independent
// runtimes with keys hash-routed across them; one shard is the paper's
// single hash table. What Config.Device's path means follows from the count
// and is decided by sharded.Open alone: the image file itself at one shard,
// a directory of per-shard images plus a manifest at more.
//
// Threading: every method of Cache is safe for concurrent use from any
// goroutine — each operation draws one of the logfree runtime's implicit
// sessions, so connections need no worker-slot assignment to issue
// operations. Gets are lock-free.
//
// Durable linearizability: a mutation that returned is reflected after a
// crash (link-and-persist end to end); Gets are unaffected.
package memcache

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/capacity"
	"repro/internal/nvram"
	"repro/logfree"
	"repro/logfree/sharded"
)

const (
	// MaxKeyLen matches memcached's 250-byte key limit.
	MaxKeyLen = 250
	// MaxValueLen is bounded by the largest slab class (entry header and a
	// maximum-length key subtracted), derived from the byte-map geometry.
	MaxValueLen = logfree.MaxMapEntrySize - logfree.MapEntryOverhead - MaxKeyLen

	// cacheMapName is the durable directory name of the item index.
	cacheMapName = "memcache"
	// expMapName is the durable directory name of the ordered expiry index:
	// an ordered byte-key map whose keys are 8-byte big-endian deadlines
	// followed by the item key, so "everything due by now" is one range
	// scan instead of a full-table walk.
	expMapName = "memcache.exp"
)

// Errors.
var (
	ErrTooLarge = errors.New("memcache: item exceeds the largest slab class")
	ErrNotFound = errors.New("memcache: key not found")
	// ErrCASConflict reports a cas with a stale token: the item was modified
	// since the gets that produced it (wire response EXISTS).
	ErrCASConflict = errors.New("memcache: cas conflict (item modified)")
)

// Item metadata layout. The durable entry carries a uint16 meta word (the
// client flags) and a uint64 aux word, packed as
//
//	aux[63:32] per-item CAS sequence (bumped on every mutation, 0 = none)
//	aux[31:0]  unix expiry deadline (0 = never)
//
// Both halves are written in the same durable entry publish, so the CAS
// unique and the value are crash-atomic: no recovery can observe a value
// with the previous value's CAS. Images from before this layout stored the
// bare expiry in aux — a unix timestamp, always < 2^32 — so old items read
// as CAS 0 and lazily adopt a real sequence on their first mutation.
//
// The CAS sequence is 32-bit in storage (presented as the protocol's 64-bit
// unique on the wire); it is per-item monotonic, wraps past 2^32-1 mutations
// of one item, and skips 0.
func packAux(cas uint32, expiry uint32) uint64 { return uint64(cas)<<32 | uint64(expiry) }

func auxExpiry(aux uint64) uint32 { return uint32(aux) }
func auxCAS(aux uint64) uint32    { return uint32(aux >> 32) }

// nextCAS is the successor in the per-item CAS sequence (skipping 0, which
// means "no CAS assigned yet").
func nextCAS(old uint32) uint32 {
	old++
	if old == 0 {
		old = 1
	}
	return old
}

// Config parameterizes a Cache.
type Config struct {
	// MemoryBytes sizes the simulated NVRAM device.
	MemoryBytes uint64
	// Buckets is the hash-table bucket count (rounded to a power of two).
	Buckets int
	// MaxConns sizes the formatted session region (one per expected
	// concurrent connection/worker). Not a cap: the runtime's session pool
	// grows past it on demand.
	MaxConns int
	// WriteLatency is the simulated NVRAM write latency.
	WriteLatency time.Duration
	// DisableLinkCache turns the §4 link cache off (on by default in
	// NV-Memcached). Whether the cache is actually legal on the configured
	// device is derived from the Durability policy inside logfree; the
	// request here only expresses intent.
	DisableLinkCache bool
	// Device names the persistence substrate (logfree.MemDevice,
	// FileDevice, DAXDevice, BackendDevice); see sharded.WithDevice for what
	// its path means at one shard (the image) and at more (the pool
	// directory). A durable device that already holds a cache is recovered
	// in place (check Recovered()).
	Device logfree.DeviceSpec
	// Durability is the acknowledged-operation policy on the configured
	// device (logfree.Strict, Synced, Buffered). Zero value: Synced.
	Durability logfree.Durability
	// Shards is the number of independent runtimes the cache's pool runs
	// (rounded up to a power of two; 0 means 1). MemoryBytes, MaxGrowBytes
	// and Buckets are pool-wide budgets split evenly across the shards.
	Shards int
	// MaxBytes, when non-zero, caps the cache's LOGICAL footprint (entry
	// overhead + key + value, summed over live items): writes that would
	// push past it evict unused items first, even when the device still has
	// room. The memory-pressure valve memcached's -m flag provides.
	MaxBytes uint64
	// MaxGrowBytes, when non-zero, reserves device address space so the
	// pool can grow online: under allocator pressure the cache doubles the
	// pool (crash-atomically, clamped to this reserve) before resorting to
	// eviction. Reopening a grown image requires the same MaxGrowBytes-style
	// elastic configuration.
	MaxGrowBytes uint64
	// OnGrow, when set, is called after each successful online grow with
	// the pool's new total byte capacity (serving loop logging).
	OnGrow func(total uint64)
}

func (c *Config) fill() {
	if c.MemoryBytes == 0 {
		c.MemoryBytes = 256 << 20
	}
	if c.Buckets == 0 {
		c.Buckets = 1 << 16
	}
	if c.MaxConns == 0 {
		c.MaxConns = 8
	}
	// Rounded here, once, so every pool-wide budget is split by the count
	// the pool really opens.
	c.Shards = 1 << bits.Len(uint(max(c.Shards, 1)-1))
}

// Cache is a durable NV-Memcached instance. All methods are safe for
// concurrent use from any goroutine.
//
// A Cache is a handle on shared state. The one New returns has no gate: its
// mutations return only once they are replicated. The server gives every
// connection its own handle on the same state with that connection's gate
// set, so a mutation notes its seq there and the wait happens once, when
// the connection's response bytes leave (see ackGate).
type Cache struct {
	*cacheState
	gate *ackGate // nil except on a connection's handle
}

// cacheState is everything the handles of one cache share.
type cacheState struct {
	pool *sharded.Pool
	m    *logfree.ByteMap
	exp  *logfree.OrderedByteMap
	cfg  Config

	stats counters

	// ref holds the CLOCK reference bits, the cache's whole notion of
	// recency: one bit per slot of a flat table that keeps refSlotsPerItem
	// slots per item (growRef doubles it as the cache fills), a key's slot
	// picked by its stripe hash. A hit or a store sets the key's bit; the
	// eviction hand clears set bits as it passes and evicts the first key it
	// finds clear. Two keys sharing a slot share a bit (see refSlotsPerItem
	// for what that costs). hand is the hand's position: a Sweep cursor over
	// the item index's entry extents, in address order.
	ref   atomic.Pointer[[]atomic.Uint64]
	refMu sync.Mutex // serializes growRef
	hand  atomic.Uint64

	// usedBytes tracks the cache's logical footprint (the MaxBytes valve's
	// currency). Every mutation reads the length of the value it replaces or
	// removes in the pre-read it does anyway, so no per-item volatile record
	// is kept.
	usedBytes atomic.Int64

	// growMu serializes online grows so concurrent full writers walk the
	// doubling schedule one step at a time.
	growMu sync.Mutex

	// repl holds the replication hooks (nil pointer or nil fields = not
	// replicating): one atomic so SetReplication is safe mid-traffic.
	repl atomic.Pointer[replHooks]

	// keyLocks serialize the lifecycle (set/delete/evict and the composite
	// commands) of items sharing a key-hash stripe, exactly as memcached's
	// striped item locks do. Gets are lock-free.
	keyLocks [1024]sync.Mutex
}

// fnv1aStripe is a volatile FNV-1a over the key, computed once per operation:
// it picks the key's stripe lock and its reference bit (the durable index
// hash lives inside logfree). The halves are folded at the end: the low bits
// of a plain FNV-1a depend only on the low bits of the key's bytes, so keys
// that differ in a trailing counter would crowd a fraction of the slots.
func fnv1aStripe(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h ^ h>>32
}

// stripe is the lock of the key whose stripe hash is h.
func (m *cacheState) stripe(h uint64) *sync.Mutex {
	return &m.keyLocks[h%uint64(len(m.keyLocks))]
}

// refSlotsPerItem is how many reference-bit slots the table keeps per item,
// at the least: 4 to 8 bytes of DRAM per item, for which no more than one key
// in thirty shares its bit. Sharing is not free for a key in use — the hand
// clears the bit when it passes the other key, and the key in use is
// unprotected until its next hit — so the table is kept sparse.
const refSlotsPerItem = 32

// refBit locates the reference bit of the key whose stripe hash is h.
func (m *cacheState) refBit(h uint64) (word *atomic.Uint64, bit uint64) {
	table := *m.ref.Load()
	slot := h & uint64(len(table)*64-1)
	return &table[slot/64], 1 << (slot % 64)
}

// growRef doubles the reference-bit table until it has refSlotsPerItem slots
// for each of items. A key's slot is its hash modulo the table size, so a
// slot of the old table splits between itself and its images in the new one:
// every image inherits the bit. A bit set in the old table while it is being
// copied may be lost, which costs that key one turn of protection.
func (m *cacheState) growRef(items int64) {
	if items*refSlotsPerItem <= int64(len(*m.ref.Load()))*64 {
		return
	}
	m.refMu.Lock()
	defer m.refMu.Unlock()
	old := *m.ref.Load()
	words := len(old)
	for int64(words)*64 < items*refSlotsPerItem {
		words *= 2
	}
	if words == len(old) {
		return // another store grew it first
	}
	grown := make([]atomic.Uint64, words)
	for i := range grown {
		grown[i].Store(old[i%len(old)].Load())
	}
	m.ref.Store(&grown)
}

// markUsed sets a key's reference bit. It tests first: a hot key's bit is
// already set, and a load leaves the cache line shared between the cores
// reading it.
func (m *cacheState) markUsed(h uint64) {
	if word, bit := m.refBit(h); word.Load()&bit == 0 {
		word.Or(bit)
	}
}

// Stats mirrors the interesting counters of `stats`.
type Stats struct {
	Gets, Sets, Deletes uint64
	Hits, Misses        uint64
	Evictions           uint64
	Expired             uint64 // items removed by the expiry sweep
	Items               int64

	// Wire-compatibility counters (PR 7).
	Touches   uint64 // touch/gat commands served
	CasHits   uint64 // cas mutations applied
	CasBadval uint64 // cas rejected: token stale (EXISTS)
	CasMisses uint64 // cas rejected: key absent (NOT_FOUND)
	Flushes   uint64 // flush_all invocations applied

	// Replication rows (PR 8). ReplState is "none" when not replicating.
	ReplState      string
	ReplSeq        uint64
	ReplLagOps     uint64
	ReplReconnects uint64

	// Elastic-capacity rows (PR 9).
	EvictionsBytes uint64 // logical bytes reclaimed by evictions
	GrowCount      uint64 // successful online pool grows
	PoolBytesTotal uint64 // pool capacity (device bytes, all shards)
	PoolBytesUsed  uint64 // pool capacity currently allocated
}

// counters is the live, lock-free form of Stats: plain atomics bumped on
// the Get/Set hot paths, where the previous single stats mutex serialized
// every operation of every connection.
type counters struct {
	gets, sets, deletes atomic.Uint64
	hits, misses        atomic.Uint64
	evictions           atomic.Uint64
	expired             atomic.Uint64
	items               atomic.Int64

	touches   atomic.Uint64
	casHits   atomic.Uint64
	casBadval atomic.Uint64
	casMisses atomic.Uint64
	flushes   atomic.Uint64

	evictionsBytes atomic.Uint64
	growCount      atomic.Uint64
}

// New creates a durable cache. On the default in-process device it is always
// fresh; a durable Config.Device that already holds a cache is recovered in
// place (the kill -9 restart path — check Recovered()).
func New(cfg Config) (*Cache, error) {
	cfg.fill()
	// The link cache is requested as configured; logfree's durability rule
	// decides whether it is legal on the device (durable devices only run
	// it under a Buffered policy, whose flush timer bounds the exposure —
	// on Strict/Synced a volatile cache of publishing links would void the
	// acknowledged-write contract that file mode exists for).
	n := uint64(cfg.Shards)
	pool, err := sharded.Open(
		sharded.WithShards(cfg.Shards),
		sharded.WithShardSize(cfg.MemoryBytes/n),
		sharded.WithMaxShardSize(cfg.MaxGrowBytes/n),
		sharded.WithWriteLatency(cfg.WriteLatency),
		sharded.WithMaxThreads(cfg.MaxConns+1),
		sharded.WithLinkCache(!cfg.DisableLinkCache),
		sharded.WithDevice(cfg.Device),
		sharded.WithDurability(cfg.Durability))
	if err != nil {
		return nil, err
	}
	return openCache(pool, cfg)
}

// openCache builds a cache on an open pool, taking ownership of it: the item
// and expiry indexes are opened-or-created on every shard, and a pool that
// recovered existing state gets its volatile metadata rebuilt.
func openCache(pool *sharded.Pool, cfg Config) (*Cache, error) {
	buckets := cfg.Buckets
	if n := pool.Shards(); n > 1 {
		buckets = max(buckets/n, 1024)
	}
	m, err := pool.Map(cacheMapName, buckets)
	if err != nil {
		pool.Close()
		return nil, err
	}
	// Opened create-or-attach: images from before the ordered index simply
	// start one empty (their items still expire lazily on Get and get
	// indexed again on rewrite/touch).
	exp, err := pool.OrderedMap(expMapName)
	if err != nil {
		pool.Close()
		return nil, err
	}
	c := &Cache{cacheState: &cacheState{pool: pool, m: m, exp: exp, cfg: cfg}}
	ref := make([]atomic.Uint64, 64)
	c.ref.Store(&ref)
	if pool.Recovered() {
		c.rebuildVolatile()
	}
	return c, nil
}

// rebuildVolatile recounts the items and their logical footprint from one
// index walk that reads headers only — the volatile totals a recovery has to
// restore. The reference bits start clear: recency is lost, contents are not.
func (m *Cache) rebuildVolatile() {
	var items, used int64
	for cursor := uint64(0); ; {
		cursor = m.m.Walk(cursor, func(e logfree.Entry) bool {
			if !isReplMeta(e.Key) {
				items++
				used += footprint(len(e.Key), e.ValueLen)
			}
			return true
		})
		if cursor == 0 {
			break
		}
	}
	m.stats.items.Store(items)
	m.usedBytes.Store(used)
	m.growRef(items)
}

// Close drains the cache and closes the underlying pool; file-backed images
// are synchronously flushed, so after Close the backing file(s) alone carry
// the cache. The cache must be quiescent.
func (m *Cache) Close() error { return m.pool.Close() }

// Pool exposes the underlying sharded pool.
func (m *Cache) Pool() *sharded.Pool { return m.pool }

// Runtime exposes the sole shard's logfree runtime; nil when Shards > 1 —
// use Pool().Runtimes() there.
func (m *Cache) Runtime() *logfree.Runtime {
	if rts := m.pool.Runtimes(); len(rts) == 1 {
		return rts[0]
	}
	return nil
}

// Device exposes the sole shard's device (crash injection, stats); nil when
// Shards > 1.
func (m *Cache) Device() *nvram.Device {
	if rt := m.Runtime(); rt != nil {
		return rt.Device()
	}
	return nil
}

// Recovered reports whether the cache attached to existing durable state
// rather than formatting fresh.
func (m *Cache) Recovered() bool { return m.pool.Recovered() }

// RecoveryStats aggregates the shards' recovery passes — counters summed,
// duration = slowest shard, since shards recover in parallel.
func (m *Cache) RecoveryStats() logfree.RecoveryStats { return m.pool.RecoveryStats() }

// Stats returns a snapshot of the counters.
func (m *Cache) Stats() Stats {
	rs := m.replStats()
	return Stats{
		ReplState:      rs.State,
		ReplSeq:        rs.Seq,
		ReplLagOps:     rs.LagOps,
		ReplReconnects: rs.Reconnects,
		Gets:           m.stats.gets.Load(),
		Sets:           m.stats.sets.Load(),
		Deletes:        m.stats.deletes.Load(),
		Hits:           m.stats.hits.Load(),
		Misses:         m.stats.misses.Load(),
		Evictions:      m.stats.evictions.Load(),
		Expired:        m.stats.expired.Load(),
		Items:          m.stats.items.Load(),
		Touches:        m.stats.touches.Load(),
		CasHits:        m.stats.casHits.Load(),
		CasBadval:      m.stats.casBadval.Load(),
		CasMisses:      m.stats.casMisses.Load(),
		Flushes:        m.stats.flushes.Load(),
		EvictionsBytes: m.stats.evictionsBytes.Load(),
		GrowCount:      m.stats.growCount.Load(),
		PoolBytesTotal: m.pool.SizeBytes(),
		PoolBytesUsed:  m.pool.SizeBytes() - m.pool.FreeBytes(),
	}
}

// SizeBytes reports the pool's total device capacity (all shards).
func (m *Cache) SizeBytes() uint64 { return m.pool.SizeBytes() }

// UsedBytes reports the cache's logical footprint: entry overhead + key +
// value summed over live items (the quantity Config.MaxBytes caps).
func (m *Cache) UsedBytes() int64 { return m.usedBytes.Load() }

// Grow extends the pool online to total bytes (crash-atomic, shards in
// parallel). Requires the elastic reserve Config.MaxGrowBytes.
func (m *Cache) Grow(total uint64) error {
	m.growMu.Lock()
	defer m.growMu.Unlock()
	before := m.pool.SizeBytes()
	if err := m.pool.Grow(total); err != nil {
		return err
	}
	if after := m.pool.SizeBytes(); after > before {
		m.stats.growCount.Add(1)
		if m.cfg.OnGrow != nil {
			m.cfg.OnGrow(after)
		}
	}
	return nil
}

// unexpired reports whether an item's deadline (the aux word's expiry half,
// a unix time, 0 = never) is still ahead. The clock is read only for an item
// that has one.
func unexpired(aux uint64) bool {
	e := auxExpiry(aux)
	return e == 0 || int64(e) > time.Now().Unix()
}

// reclaim converts recently retired nodes into reusable slots (best
// effort): it flushes the session the pool hands back, which in the
// single-flow eviction loop is the one the preceding deletes retired into.
func (m *Cache) reclaim() { m.pool.Reclaim() }

// entrySize is an item's logical footprint: the byte-map entry overhead plus
// key and value — the currency of Config.MaxBytes and the used-bytes stat.
func entrySize(key, value []byte) int64 { return footprint(len(key), len(value)) }

// footprint is entrySize from the lengths alone.
func footprint(keyLen, valueLen int) int64 {
	return int64(logfree.MapEntryOverhead + keyLen + valueLen)
}

// lowWater is the allocator headroom kept ahead of writes so allocations
// deep in the index never fail (memcached's behaviour under memory
// pressure).
const lowWater = 256 << 10

// tryGrow extends the pool one step along the doubling schedule (clamped to
// Config.MaxGrowBytes), reporting whether capacity actually grew. Grows are
// serialized; concurrent writers under pressure take the schedule one step
// at a time instead of racing it to the reserve.
func (m *Cache) tryGrow() bool {
	if m.cfg.MaxGrowBytes == 0 {
		return false
	}
	m.growMu.Lock()
	defer m.growMu.Unlock()
	target := capacity.NextGrowTarget(m.pool.SizeBytes(), m.cfg.MaxGrowBytes)
	if target == 0 {
		return false
	}
	if err := m.pool.Grow(target); err != nil {
		return false
	}
	m.stats.growCount.Add(1)
	if m.cfg.OnGrow != nil {
		m.cfg.OnGrow(m.pool.SizeBytes())
	}
	return true
}

// ensureHeadroom makes room for an incoming write of `incoming` logical
// bytes: first the device-pressure valve (grow while the reserve allows,
// then evict down to the low-water headroom), then the logical MaxBytes
// valve (evict until the write fits the configured budget).
func (m *Cache) ensureHeadroom(incoming int64) {
	for i := 0; m.pool.AvailableBytes() < lowWater && i < 256; i++ {
		if m.tryGrow() {
			continue
		}
		if !m.evictOne() {
			break
		}
		if i%16 == 15 {
			// Convert retirements into reusable slots right away.
			m.reclaim()
		}
	}
	if max := int64(m.cfg.MaxBytes); max > 0 {
		for i := 0; m.usedBytes.Load()+incoming > max && i < 256; i++ {
			if !m.evictOne() {
				break
			}
			if i%16 == 15 {
				m.reclaim()
			}
		}
	}
}

// expKey builds an expiry-index key: the 8-byte big-endian deadline, then
// the item key. The index orders by deadline first, so "everything due by
// now" is the range [nil, expKey(now+1, nil)).
func expKey(deadline uint64, key []byte) []byte {
	out := make([]byte, 8+len(key))
	binary.BigEndian.PutUint64(out, deadline)
	copy(out[8:], key)
	return out
}

// FlushAll durably removes every item (memcached flush_all). Unlike stock
// memcached's lazy oldest_live invalidation, this walks the index and
// deletes each item, so the flush is crash-consistent: items removed before
// a crash stay removed, items not yet reached survive it (flush_all makes
// no atomicity promise across the whole cache). Returns items removed.
func (m *Cache) FlushAll() int {
	m.stats.flushes.Add(1)
	n, last := m.clear(true)
	// One ack wait covers the whole flush: the stream is ordered, so the
	// last delete's ack implies all the earlier ones.
	m.waitRepl(last)
	return n
}

// SweepExpired removes every item whose deadline has passed, by scanning
// the durable expiry index up to now — O(items due), not a full-table
// walk. Stale index entries (rewrites with a different deadline, or a
// crash between the index and item writes) are double-checked against the
// item's live aux word and discarded. Safe to run concurrently with
// serving traffic; returns the number of items removed.
func (m *Cache) SweepExpired(now int64) int {
	var due [][]byte
	for k := range m.exp.Scan(nil, expKey(uint64(now)+1, nil)) {
		due = append(due, append([]byte(nil), k...))
	}
	n := 0
	for _, ek := range due {
		deadline := binary.BigEndian.Uint64(ek[:8])
		key := ek[8:]
		mu := m.stripe(fnv1aStripe(key))
		mu.Lock()
		if aux, vlen, ok := m.m.GetAux(key); ok && uint64(auxExpiry(aux)) == deadline {
			// Replicated without an ack wait: followers share the item's
			// deadline (aux travels verbatim), so an unreplicated sweep
			// delete is merely deferred tidiness there, never staleness.
			if _, ok := m.removeLocked(key, aux, footprint(len(key), vlen), true); ok {
				m.stats.expired.Add(1)
				n++
			}
		} else {
			m.exp.Delete(ek) // stale
		}
		mu.Unlock()
	}
	return n
}

// StartSweeper launches a background goroutine that runs SweepExpired every
// interval. The returned stop function is idempotent and blocks until the
// sweeper exits.
func (m *Cache) StartSweeper(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				m.SweepExpired(time.Now().Unix())
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}

// evictOne removes one item that was not used since the hand last passed it
// (memcached behaviour under memory pressure). The hand resumes where the
// last eviction left it, clears the reference bits it finds set and takes the
// first live item whose bit is clear. It gives up after passing the device's
// end three times — the rest of a turn and two whole ones, enough to clear
// every bit and come back — which only happens when the keys are being used
// as fast as the hand moves. Returns false if nothing is evictable.
func (m *Cache) evictOne() bool {
	var victim []byte
	var aux uint64
	for ends := 0; ends < 3 && m.stats.items.Load() > 0; {
		victim = victim[:0]
		next := m.m.Sweep(m.hand.Load(), func(e logfree.SweepEntry) bool {
			if isReplMeta(e.Key) {
				return true
			}
			if word, bit := m.refBit(fnv1aStripe(e.Key)); word.Load()&bit != 0 {
				word.And(^bit)
				return true
			}
			if !e.Live() {
				return true // a replaced version, or an expiry-index entry
			}
			victim, aux = append(victim, e.Key...), e.Aux
			return false
		})
		// Concurrent evictors may move the hand over each other; the loser
		// resweeps pages whose bits were just cleared, which costs order,
		// not correctness.
		m.hand.Store(next)
		if next == 0 {
			ends++
		}
		if len(victim) == 0 {
			continue
		}
		// Only the version the hand found is evicted: a key rewritten since
		// carries a new CAS in its aux word. No ack wait: the client op
		// driving the eviction waits on its own (later) seq, which the
		// ordered stream makes a covering ack.
		if _, freed, ok := m.removeKey(victim, func(a uint64) bool { return a == aux }, true); ok {
			m.stats.evictions.Add(1)
			m.stats.evictionsBytes.Add(uint64(freed))
			return true
		}
	}
	return false
}

// Flush makes all deferred durability work durable (link cache, retirees).
// Requires quiescence.
func (m *Cache) Flush() { m.pool.Drain() }
