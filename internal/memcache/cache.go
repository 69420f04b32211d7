// Package memcache implements NV-Memcached (§6.5): a durable object cache
// in the mold of Memcached, built on the public logfree byte-key API.
//
// The paper gets durability by swapping the structure under Memcached's
// single item link/unlink path. Here too every way an item enters, changes
// or leaves the cache goes through these four pieces (lifecycle.go; the
// crawler is in cache.go):
//
//   - The store step: the item into the index, then, still inside the step,
//     the record into the replication stream, the entry's reference bit and the
//     totals. The item's aux word carries its CAS unique and its deadline, so
//     no other structure is written. The index is logfree's byte-keyed
//     durable map — a log-free lock-free hash table,
//     full keys verified in the durable entries so distinct keys never alias
//     — and items live in slab-class extents of the persistent allocator,
//     swept on recovery for extents allocated but not (or no longer)
//     reachable.
//   - The remove step: the item out of the index, then the same trail.
//   - The index walk: logfree's resumable bucket walk, a few buckets per epoch
//     section. It recounts the items and their bytes after a recovery (from
//     entry headers alone; recency resets, contents do not: cache metadata is
//     advisory, as in Memcached), and feeds snapshots and a follower's
//     resync.
//   - The crawler: logfree's resumable sweep over the index's entry extents
//     in device-address order, a few allocator pages per epoch section. One
//     crawl step finds the first live item its caller picks and runs the
//     remove step on it; eviction, the expiry sweep (the deadline in the aux
//     word) and flush_all are its three callers.
//
// Recency is volatile and approximate, as in MemC3: no list, no per-item
// record — one CLOCK reference bit per entry slot of the device, one word per
// allocator page (a bit per 64-byte granule, so no two live entries share
// one), found by the entry's slot, which a Get or a key's step learns from the
// entry it reads anyway and the hand from the extent it passes. The table
// covers the pages up to the highest one an entry was marked on, and doubles
// when a mark lands past its end. A hit or a store sets the bit (testing it
// first, so a hot entry's line stays shared); a replace writes a new entry,
// which the store marks. The eviction hand is the crawler's cursor kept
// between evictions, so it reads the bits in address order too: it takes a
// due item at once, clears the set bits it passes and evicts the first live
// item it finds clear, if the item still carries the aux word the hand read.
// Victims taken in address order sit together, so their unlinks land in the
// areas NV-epochs already holds active (§5.4) and the slots they free are
// reused from the same pages; a hand in hash order scatters both.
//
// Client commands of both wire protocols and a follower's replicated sets
// reach the steps through one mutation driver: it validates key and size,
// makes room (grow the pool, then evict what the hand finds unused), runs the
// command's precondition and the step as one read-decide-write step of the
// key (logfree's ByteMap.Update, Memcached's single item path: one session,
// the key hashed once, its one stripe lock taken once, one index search),
// retries through grow-then-evict while the device is full, and waits for
// replication once. Every command, with a deadline or without, is that one
// step in one lock domain, and no step draws a second session. No key lock
// is held while evicting or waiting: a full pool or a slow follower delays
// the caller, never another key. Evictions, the expiry sweep and flush_all
// run the remove step as a step of its own, and wait for nobody.
//
// The engine is one logfree runtime of Config.Shards ≥ 1 independent parts
// with keys hash-routed across them; one part is the paper's single hash
// table. What Config.Device's path means follows from the count and is
// decided by logfree.New alone: the image file itself at one part, a
// directory of per-part images plus a manifest at more.
//
// Threading: every method of Cache is safe for concurrent use from any
// goroutine — each operation draws one of the logfree runtime's implicit
// sessions at a time (a mutation one for its step), so connections need no
// worker-slot assignment to issue operations. Gets are lock-free.
//
// Durable linearizability: a mutation that returned is reflected after a
// crash (link-and-persist end to end); Gets are unaffected.
package memcache

import (
	"errors"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/capacity"
	"repro/internal/nvram"
	"repro/internal/pmem"
	"repro/logfree"
)

const (
	// MaxKeyLen matches memcached's 250-byte key limit.
	MaxKeyLen = 250
	// MaxValueLen is bounded by the largest slab class (entry header and a
	// maximum-length key subtracted), derived from the byte-map geometry.
	MaxValueLen = logfree.MaxMapEntrySize - logfree.MapEntryOverhead - MaxKeyLen

	// cacheMapName is the durable directory name of the item index.
	cacheMapName = "memcache"
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
	// MaxConns is the number of connections or workers expected to run
	// commands at once. Each part of the runtime formats MaxConns+1 operation
	// contexts (one spare for background work): the most commands that run
	// on a shard at once. A command that finds all of them out waits.
	MaxConns int
	// WriteLatency is the simulated NVRAM write latency.
	WriteLatency time.Duration
	// DisableLinkCache turns the §4 link cache off (on by default in
	// NV-Memcached). Whether the cache is actually legal on the configured
	// device is derived from the Durability policy inside logfree; the
	// request here only expresses intent.
	DisableLinkCache bool
	// Device names the persistence substrate (logfree.MemDevice,
	// FileDevice, DAXDevice, BackendDevice); see logfree.WithShards for what
	// its path means at one part (the image) and at more (a directory of
	// images). A durable device that already holds a cache is recovered in
	// place (check Recovered()).
	Device logfree.DeviceSpec
	// Durability is the acknowledged-operation policy on the configured
	// device (logfree.Strict, Synced, Buffered). Zero value: Synced.
	Durability logfree.Durability
	// Shards is the number of independent parts the cache's runtime opens
	// (logfree.WithShards; rounded up to a power of two, 0 means 1).
	// MemoryBytes, MaxGrowBytes and Buckets are budgets for the whole cache,
	// split evenly across the parts.
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

// WithDefaults returns c with its zero fields set to the defaults New and
// Adopt use, so a runtime opened for the cache can be sized to match it.
func (c Config) WithDefaults() Config {
	c.fill()
	return c
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
	rt  *logfree.Runtime
	m   *logfree.ByteMap
	cfg Config

	stats counters

	// ref holds the CLOCK reference bits, the cache's whole notion of
	// recency: one word per allocator page of the device, bit i for the
	// entry extent that starts in the page's 64-byte granule i, found by the
	// entry's slot — which a Get and a key's step learn from the entry they
	// read anyway, and the eviction hand from the extent it passes. No two
	// live entries share a bit. The table covers only the pages up to the
	// last one an entry was marked on (growRef doubles it when a mark lands
	// past its end), with the shards' pages interleaved (partBits). A hit or
	// a store sets the entry's bit; the eviction hand clears set bits as it
	// passes and evicts the first live item it finds clear. hand is the
	// hand's position: a Sweep cursor over the item index's entry extents, in
	// address order.
	ref      atomic.Pointer[[]atomic.Uint64]
	refMu    sync.Mutex // serializes growRef
	partBits uint       // log2 of the shard count
	hand     atomic.Uint64

	// usedBytes tracks the cache's logical footprint (the MaxBytes valve's
	// currency). Every mutation reads the length of the value it replaces or
	// removes through the step it runs in anyway, so no per-item volatile
	// record is kept.
	usedBytes atomic.Int64

	// growMu serializes online grows so concurrent full writers walk the
	// doubling schedule one step at a time.
	growMu sync.Mutex

	// repl holds the replication hooks (nil pointer or nil fields = not
	// replicating): one atomic so SetReplication is safe mid-traffic.
	repl atomic.Pointer[replHooks]
}

// refIndex locates slot's reference bit: the table word of its allocator
// page (the page number above partBits bits of shard number, so that the
// shards' pages interleave) and the bit of the page's 64-byte granule the
// entry starts in.
func (m *cacheState) refIndex(slot uint64) (i int, bit uint64) {
	part, addr := slot>>logfree.PartShift, slot&(1<<logfree.PartShift-1)
	return int(addr/pmem.PageSize<<m.partBits | part), 1 << (addr % pmem.PageSize / pmem.SlotAlign)
}

// markUsed sets the reference bit of the entry at slot. It tests first: a hot
// entry's bit is already set, and a load leaves the cache line shared between
// the cores reading it.
func (m *cacheState) markUsed(slot uint64) {
	i, bit := m.refIndex(slot)
	table := *m.ref.Load()
	if i >= len(table) {
		table = m.growRef(i)
	}
	if table[i].Load()&bit == 0 {
		table[i].Or(bit)
	}
}

// growRef doubles the reference-bit table until it covers word i, and
// returns it. A bit set in the old table while it is being copied may be
// lost, which costs that entry one turn of protection.
func (m *cacheState) growRef(i int) []atomic.Uint64 {
	m.refMu.Lock()
	defer m.refMu.Unlock()
	old := *m.ref.Load()
	if i < len(old) {
		return old // another mark grew it first
	}
	words := max(len(old), 64)
	for words <= i {
		words *= 2
	}
	grown := make([]atomic.Uint64, words)
	for j := range old {
		grown[j].Store(old[j].Load())
	}
	m.ref.Store(&grown)
	return grown
}

// Stats mirrors the interesting counters of `stats`.
type Stats struct {
	Gets, Sets, Deletes uint64
	Hits, Misses        uint64
	Evictions           uint64
	Expired             uint64 // due items removed by the expiry sweep or the eviction hand
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
	rt, err := logfree.New(
		logfree.WithShards(cfg.Shards),
		logfree.WithSize(cfg.MemoryBytes/n),
		logfree.WithMaxSize(cfg.MaxGrowBytes/n),
		logfree.WithWriteLatency(cfg.WriteLatency),
		logfree.WithMaxThreads(cfg.MaxConns+1),
		logfree.WithLinkCache(!cfg.DisableLinkCache),
		logfree.WithDevice(cfg.Device),
		logfree.WithDurability(cfg.Durability))
	if err != nil {
		return nil, err
	}
	return openCache(rt, cfg)
}

// openCache builds a cache on an open runtime, taking ownership of it: the
// item index is opened-or-created on every part, and a runtime that
// recovered existing state gets its volatile metadata rebuilt. Images
// written with a durable expiry index (memcache.exp) keep it as a structure
// nothing opens; their items' deadlines are in the items' aux words like any
// other's.
func openCache(rt *logfree.Runtime, cfg Config) (*Cache, error) {
	buckets := cfg.Buckets
	n := len(rt.Parts())
	if n > 1 {
		buckets = max(buckets/n, 1024)
	}
	m, err := rt.Map(cacheMapName, buckets)
	if err != nil {
		rt.Close()
		return nil, err
	}
	c := &Cache{cacheState: &cacheState{rt: rt, m: m, cfg: cfg, partBits: uint(bits.TrailingZeros(uint(n)))}}
	c.ref.Store(new([]atomic.Uint64))
	if rt.Recovered() {
		c.rebuildVolatile()
	}
	return c, nil
}

// rebuildVolatile recounts the items and their logical footprint from one
// index walk that reads headers only — the volatile totals a recovery has to
// restore. The reference table starts empty: recency is lost, contents are
// not.
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
}

// Close drains the cache and closes the underlying runtime; file-backed
// images are synchronously flushed, so after Close the backing file(s) alone
// carry the cache. The cache must be quiescent.
func (m *Cache) Close() error { return m.rt.Close() }

// Runtime exposes the cache's logfree runtime, of Config.Shards parts.
func (m *Cache) Runtime() *logfree.Runtime { return m.rt }

// Device exposes the sole part's device (crash injection, stats); nil when
// Shards > 1.
func (m *Cache) Device() *nvram.Device {
	if len(m.rt.Parts()) == 1 {
		return m.rt.Device()
	}
	return nil
}

// Recovered reports whether the cache attached to existing durable state
// rather than formatting fresh.
func (m *Cache) Recovered() bool { return m.rt.Recovered() }

// RecoveryStats aggregates the parts' recovery passes — counters summed,
// duration = slowest part, since parts recover in parallel.
func (m *Cache) RecoveryStats() logfree.RecoveryStats { return m.rt.RecoveryStats() }

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
		PoolBytesTotal: m.rt.SizeBytes(),
		PoolBytesUsed:  m.rt.SizeBytes() - m.rt.FreeBytes(),
	}
}

// SizeBytes reports the pool's total device capacity (all shards).
func (m *Cache) SizeBytes() uint64 { return m.rt.SizeBytes() }

// UsedBytes reports the cache's logical footprint: entry overhead + key +
// value summed over live items (the quantity Config.MaxBytes caps).
func (m *Cache) UsedBytes() int64 { return m.usedBytes.Load() }

// Grow extends the pool online to total bytes (crash-atomic, shards in
// parallel). Requires the elastic reserve Config.MaxGrowBytes.
func (m *Cache) Grow(total uint64) error {
	m.growMu.Lock()
	defer m.growMu.Unlock()
	_, err := m.growLocked(total)
	return err
}

// growLocked grows the pool to total bytes under growMu and reports whether
// capacity rose; only a grow that rose is counted and passed to OnGrow.
func (m *Cache) growLocked(total uint64) (grew bool, err error) {
	before := m.rt.SizeBytes()
	if err := m.rt.Grow(total); err != nil {
		return false, err
	}
	after := m.rt.SizeBytes()
	if after <= before {
		return false, nil
	}
	m.stats.growCount.Add(1)
	if m.cfg.OnGrow != nil {
		m.cfg.OnGrow(after)
	}
	return true, nil
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
func (m *Cache) reclaim() { m.rt.Reclaim() }

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
	target := capacity.NextGrowTarget(m.rt.SizeBytes(), m.cfg.MaxGrowBytes)
	if target == 0 {
		return false
	}
	grew, _ := m.growLocked(target)
	return grew
}

// ensureHeadroom makes room for an incoming write of `incoming` logical
// bytes: first the device-pressure valve (grow while the reserve allows,
// then evict down to the low-water headroom), then the logical MaxBytes
// valve (evict until the write fits the configured budget).
func (m *Cache) ensureHeadroom(incoming int64) {
	for i := 0; m.rt.AvailableBytes() < lowWater && i < 256; i++ {
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

// FlushAll durably removes every item (memcached flush_all). Unlike stock
// memcached's lazy oldest_live invalidation, this is one crawler revolution
// that deletes each item as it meets it, so the flush is crash-consistent:
// items removed before a crash stay removed, items not yet reached survive
// it. flush_all makes no atomicity promise across the whole cache, so a key
// written behind the crawler's cursor during the flush, concurrently with
// it, can survive it. Returns items removed.
func (m *Cache) FlushAll() int {
	m.stats.flushes.Add(1)
	n, last := m.clear(true)
	// One ack wait covers the whole flush: the stream is ordered, so the
	// last delete's ack implies all the earlier ones.
	m.waitRepl(last)
	return n
}

// SweepExpired removes every item whose deadline (the aux word's expiry
// half) is at or before now, and returns how many it removed. It is one
// revolution of the item crawler (see crawl) from the device's start: the
// crawler reads each extent's aux word in device-address order and runs
// Live and the remove step only on the due ones, so it costs time in the
// extents the device holds, not in the number due. Memcached's LRU crawler
// walks its items the same way. Safe to run concurrently with serving
// traffic: a key rewritten behind the cursor during the revolution can
// survive it, because that write is concurrent with the sweep; the next
// revolution finds it. The removals are replicated without an ack wait:
// followers share the item's deadline (aux travels verbatim), so an
// unreplicated sweep delete is merely deferred tidiness there, never
// staleness.
func (m *Cache) SweepExpired(now int64) int {
	n, _ := m.revolve(func(e logfree.SweepEntry) bool {
		d := auxExpiry(e.Aux)
		return d != 0 && int64(d) <= now
	}, true)
	m.stats.expired.Add(uint64(n))
	return n
}

// StartSweeper launches a background goroutine that runs SweepExpired every
// interval: one crawler revolution over the device per tick. The returned
// stop function is idempotent and blocks until the sweeper exits.
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

// victimKeys recycles the buffers crawl copies a picked item's key into (the
// key outlives the sweep's own buffer), so a crawl step allocates nothing.
var victimKeys = sync.Pool{New: func() any { return new([MaxKeyLen]byte) }}

// crawl is the one step of the item crawler, which evictOne, SweepExpired
// and clear share: one Sweep call from cursor that stops at the first extent
// pick accepts that is a live client item (Live runs only on extents pick
// accepted; the replication meta key is never offered), then the remove
// step on that item's key, run after the Sweep call has released its
// session, if the key still carries the aux word the Sweep call read. A
// rewrite or touch since then bumped its CAS, so only the version the
// crawler found is removed. next is the cursor to resume from, 0 past the
// device's end; seq, freed and ok are removeKey's. A key rewritten behind
// the cursor lands in an extent the cursor has passed, so a revolution can
// miss it; the next one meets it.
func (m *Cache) crawl(cursor uint64, pick func(logfree.SweepEntry) bool, publish bool) (next, seq uint64, freed int64, ok bool) {
	buf := victimKeys.Get().(*[MaxKeyLen]byte)
	defer victimKeys.Put(buf)
	key := buf[:0]
	var aux uint64
	next = m.m.Sweep(cursor, func(e logfree.SweepEntry) bool {
		if isReplMeta(e.Key) || !pick(e) || !e.Live() {
			return true
		}
		key, aux = append(key, e.Key...), e.Aux
		return false
	})
	if len(key) > 0 {
		seq, freed, ok = m.removeKey(key, func(a uint64) bool { return a == aux }, publish)
	}
	return next, seq, freed, ok
}

// revolve runs the crawler once over the device from its start, removing
// every live client item pick accepts, and returns how many it removed with
// the last replication seq their removals published.
func (m *Cache) revolve(pick func(logfree.SweepEntry) bool, publish bool) (removed int, last uint64) {
	for cursor := uint64(0); ; {
		next, seq, _, ok := m.crawl(cursor, pick, publish)
		if ok {
			removed++
		}
		if seq != 0 {
			last = seq
		}
		if next == 0 {
			return removed, last
		}
		cursor = next
	}
}

// evictOne removes one item that is due or was not used since the hand last
// passed it (memcached behaviour under memory pressure: an expired item is
// reclaimed before a live one is evicted). The hand is the crawler's cursor
// kept between evictions: it takes the first due item it meets, whatever its
// reference bit, clears the reference bits it finds set and takes the first
// live item whose bit is clear. It gives up after passing the device's end
// three times — the rest of a turn and two whole ones, enough to clear every
// bit and come back — which only happens when the keys are being used as
// fast as the hand moves. A due item counts in Stats.Expired, any other in
// Evictions. Returns false if nothing is evictable.
func (m *Cache) evictOne() bool {
	var due bool
	pick := func(e logfree.SweepEntry) bool {
		// unexpired reads the clock only for an entry with a deadline.
		if due = !unexpired(e.Aux); due {
			return true
		}
		i, bit := m.refIndex(e.Slot)
		if table := *m.ref.Load(); i < len(table) && table[i].Load()&bit != 0 {
			table[i].And(^bit)
			return false
		}
		return true
	}
	for ends := 0; ends < 3 && m.stats.items.Load() > 0; {
		// No ack wait: the client op driving the eviction waits on its own
		// (later) seq, which the ordered stream makes a covering ack.
		next, _, freed, ok := m.crawl(m.hand.Load(), pick, true)
		// Concurrent evictors may move the hand over each other; the loser
		// resweeps pages whose bits were just cleared, which costs order,
		// not correctness.
		m.hand.Store(next)
		if next == 0 {
			ends++
		}
		if !ok {
			continue
		}
		if due {
			m.stats.expired.Add(1)
		} else {
			m.stats.evictions.Add(1)
			m.stats.evictionsBytes.Add(uint64(freed))
		}
		return true
	}
	return false
}

// Flush makes all deferred durability work durable (link cache, retirees).
// Requires quiescence.
func (m *Cache) Flush() { m.rt.Drain() }
