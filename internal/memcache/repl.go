package memcache

import (
	"bytes"
	"encoding/binary"
	"io"
)

// Replication wiring: the cache publishes every acknowledged mutation to an
// optional ReplSink (the primary side) and can itself be driven as a warm
// standby through the Applier surface (ApplySet/ApplyDelete/SnapshotItems/
// ResetForSnapshot/ReplMeta), which internal/repl's Follower consumes. The
// cache never imports internal/repl — the coupling is structural, so the
// replication transport stays independently testable and fuzzable.
//
// Publication protocol: publish AFTER the durable mutation, under the same
// key stripe lock (so the stream's per-key order is the store's order), and
// hold the acknowledgement back AFTER the stripe lock is released (so a slow
// follower can never block other keys' writes — it only defers responses,
// and only until the sink's ack timeout sheds the laggard). What is held
// back depends on the caller: a direct caller's mutation returns only once
// it is replicated; a connection's mutation returns at once and the
// connection's response bytes wait instead (ackGate), once per flush however
// many mutations the flush answers.

// ReplSink receives acknowledged mutations for streaming to followers.
// Satisfied by *repl.Primary. PublishSet/PublishDelete return the assigned
// stream sequence (0 = nothing published); WaitAcked blocks until every
// in-sync follower has durably applied seq, the sink's ack timeout sheds
// the laggards, or the sink is closed — it must never block indefinitely.
type ReplSink interface {
	PublishSet(key, value []byte, flags uint16, aux uint64) uint64
	PublishDelete(key []byte) uint64
	WaitAcked(seq uint64)
}

// ReplStats is the replication surface reported through `stats`, filled by
// whichever role is live (primary sink or follower).
type ReplStats struct {
	State      string // none | streaming | degraded | connecting | snapshot | promoted | stopped
	Seq        uint64 // stream frontier (primary) or last applied seq (follower)
	LagOps     uint64 // ops the slowest follower trails by (primary) or ops behind the primary (follower)
	Reconnects uint64 // follower connections accepted (primary) or made (follower)
}

type replHooks struct {
	sink  ReplSink
	stats func() ReplStats
}

// SetReplication installs the replication hooks: sink receives every
// subsequent mutation (nil detaches), stats feeds the repl_* rows of
// `stats`. Safe to call while serving traffic.
func (m *Cache) SetReplication(sink ReplSink, stats func() ReplStats) {
	m.repl.Store(&replHooks{sink: sink, stats: stats})
}

// sink is the replication sink mutations publish to; nil when not
// replicating.
func (m *Cache) sink() ReplSink {
	if h := m.repl.Load(); h != nil {
		return h.sink
	}
	return nil
}

// waitRepl holds the caller's acknowledgement back until seq is replicated:
// through a connection's handle it only notes seq in the connection's gate;
// a direct caller waits here. The one place the cache waits on its sink.
// Must be called WITHOUT the key's stripe lock held. seq 0 (no sink, or the
// mutation did not publish) returns immediately.
func (m *Cache) waitRepl(seq uint64) {
	if seq == 0 {
		return
	}
	if m.gate != nil {
		if seq > m.gate.seq {
			m.gate.seq = seq
		}
		return
	}
	if sink := m.sink(); sink != nil {
		sink.WaitAcked(seq)
	}
}

// ackGate is the raw writer under a connection's bufio.Writer, and the place
// the connection's replication wait happens: before any byte goes out it
// waits for the highest seq the connection's mutations have published. Acks
// are cumulative and the stream is ordered, so that one wait covers every
// response in the buffer, and no response to a mutation (or to a request
// served after it on the connection) reaches the socket before the mutation
// is replicated — whether the bytes leave by an explicit Flush or because
// the buffer filled. Owned by the connection's goroutine: nothing else may
// use the handle that carries it.
type ackGate struct {
	w     io.Writer
	cache *Cache // the server's own handle, whose waitRepl waits
	seq   uint64 // highest seq published and not yet waited for; 0 = none
}

func (g *ackGate) Write(p []byte) (int, error) {
	if seq := g.seq; seq != 0 {
		g.seq = 0
		g.cache.waitRepl(seq)
	}
	return g.w.Write(p)
}

func (m *Cache) replStats() ReplStats {
	if h := m.repl.Load(); h != nil && h.stats != nil {
		return h.stats()
	}
	return ReplStats{State: "none"}
}

// replMetaKey is the reserved index slot holding a follower's durable
// resume point. The leading NUL keeps it out of any key a text-protocol
// client can express; the one whole-index walk (forEachItem) skips it.
var replMetaKey = []byte("\x00nvmc\x00repl")

func isReplMeta(key []byte) bool {
	return len(key) > 0 && key[0] == 0 && bytes.Equal(key, replMetaKey)
}

// ReplMeta loads the durable resume point: which primary incarnation
// (runID) this cache last followed and the last stream seq it applied.
// (0, 0) means "never followed" (or promoted) — the follower will
// re-snapshot.
func (m *Cache) ReplMeta() (runID, seq uint64) {
	v, _, _, ok := m.m.GetItem(replMetaKey)
	if !ok || len(v) != 16 {
		return 0, 0
	}
	return binary.BigEndian.Uint64(v), binary.BigEndian.Uint64(v[8:])
}

// SetReplMeta durably stores the resume point. The meta is an optimization,
// not a durability boundary: applied ops are themselves durable before
// being acked, and replaying past a stale resume point is idempotent
// (records carry items verbatim).
func (m *Cache) SetReplMeta(runID, seq uint64) error {
	var v [16]byte
	binary.BigEndian.PutUint64(v[:], runID)
	binary.BigEndian.PutUint64(v[8:], seq)
	_, err := m.m.SetItem(replMetaKey, v[:], 0, 0)
	return err
}

// ApplySet stores one replicated item byte-faithfully: the value, flags and
// aux word (CAS unique + expiry packed) land exactly as the primary wrote
// them, so a promoted follower's CAS generation chain continues the
// primary's. Runs behind the same pressure valves as a client's set.
func (m *Cache) ApplySet(key, value []byte, flags uint16, aux uint64) error {
	_, err := m.mutate(command{key: key, room: entrySize(key, value), replica: true},
		func(item, bool) (item, verdict, error) {
			return item{value: value, flags: flags, aux: aux}, store, nil
		})
	return err
}

// ApplyDelete removes one replicated key. A miss is not an error: the
// follower may be replaying ops it already applied (idempotent resume).
func (m *Cache) ApplyDelete(key []byte) error {
	m.removeKey(key, nil, false)
	return nil
}

// SnapshotItems walks the live index, emitting every item verbatim (value,
// flags, raw aux) — the primary side of initial sync. The walk is weakly
// consistent (lock-free, concurrent mutations may or may not be seen);
// the follower re-converges by replaying the stream from the snapshot's
// start seq, which is idempotent because records carry items verbatim.
func (m *Cache) SnapshotItems(emit func(key, value []byte, flags uint16, aux uint64) error) error {
	return m.forEachItem(emit)
}

// ResetForSnapshot clears every item (but not the repl meta slot) before a
// fresh snapshot lands: keys the primary deleted while this follower was
// away must not linger. Nothing is published (the follower cache has no
// sink) and the flush counter is not bumped (this is not a client
// flush_all).
func (m *Cache) ResetForSnapshot() error {
	m.clear(false)
	return nil
}
