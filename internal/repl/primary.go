package repl

import (
	crand "crypto/rand"
	"encoding/binary"
	"net"
	"sync"
	"time"
)

// Source is what the primary needs from its cache to bring a fresh (or
// lapsed) follower up: a weakly consistent item scan. Items mutated during
// the scan may appear at a newer state than the stream start; replaying the
// op stream from the start seq re-converges, because every Set record
// carries the item verbatim (exact value, flags, aux) and later seqs win.
type Source interface {
	SnapshotItems(emit func(key, value []byte, flags uint16, aux uint64) error) error
}

// Options parameterize a Primary. Zero values pick production defaults.
type Options struct {
	// RingSize is the replay window: the number of recent ops retained for
	// resume-from-seq and per-follower send queues. A follower whose cursor
	// falls out of the ring is shed to a fresh snapshot instead of growing
	// an unbounded queue. Default 1<<15.
	RingSize int
	// AckTimeout bounds how long an acknowledged-to-client mutation waits
	// for an in-sync follower's ack before the follower is shed to degraded
	// (it re-enters sync when it catches back up). The write path itself
	// never blocks on replication — only the client response defers, and
	// only while a follower is keeping up. Default 2s.
	AckTimeout time.Duration
	// Heartbeat is the idle-stream heartbeat interval (lag reporting and
	// dead-peer detection both ride on it). Default 500ms.
	Heartbeat time.Duration
}

// flushOps is the op-count backstop of the sender's group commit: an in-sync
// follower is sent its unsent ops when a WaitAcked caller needs one of them,
// on the heartbeat tick, or once this many have piled up — whichever comes
// first. It bounds how far a stream of publishes nobody waits on (noreply
// and quiet mutations, evictions, the expiry sweep) can run ahead of the
// follower between ticks.
const flushOps = 64

func (o *Options) fill() {
	if o.RingSize <= 0 {
		o.RingSize = 1 << 15
	}
	if o.AckTimeout <= 0 {
		o.AckTimeout = 2 * time.Second
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = 500 * time.Millisecond
	}
}

// Primary serves the replication stream: it assigns sequence numbers to
// published mutations, retains them in a bounded ring, and streams them to
// any number of followers, each brought up by snapshot or resumed from its
// last applied seq. PublishSet/PublishDelete/WaitAcked satisfy the cache's
// ReplSink hook.
type Primary struct {
	src Source
	opt Options
	// runID names this primary incarnation; a follower may resume only into
	// the incarnation it was streaming from (seqs are not comparable across
	// restarts — a recovered primary restarts its sequence).
	runID uint64

	ln net.Listener
	wg sync.WaitGroup

	mu      sync.Mutex
	pubCond *sync.Cond // publish / follower-gone / close: senders wake
	ackCond *sync.Cond // ack progress / membership change: WaitAcked wakes
	closed  bool
	seq     uint64
	want    uint64   // highest seq a WaitAcked caller has blocked on
	tick    uint64   // heartbeatLoop ticks so far
	ring    []Record // ring[s % len] holds seq s while s > seq-len
	flw     map[*fconn]struct{}

	accepts     uint64 // follower connections accepted over this lifetime
	sheds       uint64 // in-sync followers demoted by an ack timeout
	resnapshots uint64 // followers re-snapshotted after falling out of the ring
	ackWaits    uint64 // WaitAcked calls
	batches     uint64 // op batches flushed to followers
}

// fconn is the primary's per-follower state. Guarded by Primary.mu except
// conn, which is owned by the sender/receiver pair.
type fconn struct {
	conn  net.Conn
	sent  uint64 // the sender's cursor: ops up to here are on the wire
	acked uint64
	// inSync: the follower has caught the frontier and now gates client
	// acks (semi-synchronous replication). Cleared when an ack times out
	// (slow-follower shedding); re-set when it catches the frontier again.
	inSync bool
	gone   bool
}

// NewPrimary creates a primary streaming src's mutations. Call Listen to
// serve followers, then hand the Primary to the cache as its ReplSink.
func NewPrimary(src Source, opt Options) *Primary {
	opt.fill()
	var rnd [8]byte
	if _, err := crand.Read(rnd[:]); err != nil {
		binary.BigEndian.PutUint64(rnd[:], uint64(time.Now().UnixNano()))
	}
	runID := binary.BigEndian.Uint64(rnd[:])
	if runID == 0 {
		runID = 1 // 0 means "no incarnation" in a Hello
	}
	p := &Primary{
		src:   src,
		opt:   opt,
		runID: runID,
		ring:  make([]Record, opt.RingSize),
		flw:   make(map[*fconn]struct{}),
	}
	p.pubCond = sync.NewCond(&p.mu)
	p.ackCond = sync.NewCond(&p.mu)
	return p
}

// Listen starts serving followers on addr (":0" picks a free port).
func (p *Primary) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	p.ln = ln
	p.wg.Add(2)
	go p.acceptLoop()
	go p.heartbeatLoop()
	return nil
}

// Addr returns the replication listen address.
func (p *Primary) Addr() string { return p.ln.Addr().String() }

// Close stops the listener and drops all followers.
func (p *Primary) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for f := range p.flw {
		f.conn.Close()
	}
	p.pubCond.Broadcast()
	p.ackCond.Broadcast()
	p.mu.Unlock()
	var err error
	if p.ln != nil {
		err = p.ln.Close()
	}
	p.wg.Wait()
	return err
}

// DropFollowers closes every follower connection (without stopping the
// listener) — the operational hook behind SIGUSR2, and the transient-
// disconnect fault injection the failover e2e uses to prove
// reconnect-and-resume.
func (p *Primary) DropFollowers() {
	p.mu.Lock()
	for f := range p.flw {
		f.conn.Close()
	}
	p.mu.Unlock()
}

// PublishSet records one stored item (value, flags and aux verbatim) and
// returns its seq. Called under the cache's per-key stripe lock, AFTER the
// mutation is durable, so per-key order on the stream matches durable
// order. Key and value are copied (callers reuse their buffers).
func (p *Primary) PublishSet(key, value []byte, flags uint16, aux uint64) uint64 {
	buf := make([]byte, len(key)+len(value))
	copy(buf, key)
	copy(buf[len(key):], value)
	return p.publish(Record{
		Type:  TypeSet,
		Flags: flags,
		Aux:   aux,
		Key:   buf[:len(key):len(key)],
		Value: buf[len(key):],
	})
}

// PublishDelete records one durable delete and returns its seq.
func (p *Primary) PublishDelete(key []byte) uint64 {
	return p.publish(Record{Type: TypeDelete, Key: append([]byte(nil), key...)})
}

func (p *Primary) publish(rec Record) uint64 {
	p.mu.Lock()
	p.seq++
	rec.Seq = p.seq
	p.ring[rec.Seq%uint64(len(p.ring))] = rec
	for f := range p.flw {
		if p.sendDue(f) {
			p.pubCond.Broadcast()
			break
		}
	}
	p.mu.Unlock()
	return rec.Seq
}

// sendDue reports whether f's sender should put f's unsent ops on the wire
// now rather than leave them for the next heartbeat tick: always while f is
// catching up, and for an in-sync f when a WaitAcked caller is blocked on
// one of them or flushOps have piled up. This is the stream's group commit:
// a burst of publishes followed by one wait costs one frame write, one
// follower read and one ack, not one of each per publish. Caller holds p.mu.
func (p *Primary) sendDue(f *fconn) bool {
	return !f.inSync || p.want > f.sent || p.seq-f.sent >= flushOps
}

// WaitAcked blocks until every in-sync follower has acknowledged seq (its
// apply is durable), a laggard is shed by the ack timeout, or the primary
// closes. With no in-sync follower it returns immediately: replication
// degrades, it never blocks the write path. This is the semi-synchronous
// half of the acked-frontier guarantee — a mutation acknowledged to a
// client while a follower was in sync IS on that follower.
func (p *Primary) WaitAcked(seq uint64) {
	if seq == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ackWaits++
	if !p.lagBehind(seq) {
		return
	}
	if seq > p.want {
		p.want = seq
		p.pubCond.Broadcast() // senders: someone needs the unsent ops now
	}
	// No timer of its own: heartbeatLoop's tick broadcasts ackCond, so a
	// waiter re-checks its deadline at least once per tick.
	deadline := time.Now().Add(p.opt.AckTimeout)
	for !p.closed && p.lagBehind(seq) {
		if time.Now().After(deadline) {
			// Shed: stop gating client acks on followers that cannot keep
			// up. They stay connected and re-enter sync at the frontier.
			for f := range p.flw {
				if f.inSync && f.acked < seq {
					f.inSync = false
					p.sheds++
				}
			}
			return
		}
		p.ackCond.Wait()
	}
}

// lagBehind reports whether any in-sync follower has not yet acked seq.
// Caller holds p.mu.
func (p *Primary) lagBehind(seq uint64) bool {
	for f := range p.flw {
		if f.inSync && !f.gone && f.acked < seq {
			return true
		}
	}
	return false
}

// PrimaryStats is the primary-side replication surface behind `stats`.
type PrimaryStats struct {
	// State: "none" (no followers), "streaming" (at least one in-sync
	// follower gating acks), or "degraded" (followers connected, none in
	// sync — snapshotting, catching up, or shed).
	State     string
	Seq       uint64 // current stream frontier
	LagOps    uint64 // frontier minus the slowest follower's acked seq
	Followers int
	InSync    int
	// Accepts counts follower connections accepted over this primary's
	// lifetime — reported as repl_reconnects (a fresh stream is 1; every
	// reconnect increments it).
	Accepts     uint64
	Sheds       uint64
	Resnapshots uint64
	// AckWaits counts WaitAcked calls and Batches the op batches flushed to
	// followers; against Seq (ops published) they show the coalescing on
	// each side of the stream.
	AckWaits uint64
	Batches  uint64
}

// Stats snapshots the primary's replication counters.
func (p *Primary) Stats() PrimaryStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PrimaryStats{
		State:       "none",
		Seq:         p.seq,
		Accepts:     p.accepts,
		Sheds:       p.sheds,
		Resnapshots: p.resnapshots,
		AckWaits:    p.ackWaits,
		Batches:     p.batches,
	}
	minAcked := p.seq
	for f := range p.flw {
		st.Followers++
		if f.inSync {
			st.InSync++
		}
		if f.acked < minAcked {
			minAcked = f.acked
		}
	}
	if st.Followers > 0 {
		st.LagOps = p.seq - minAcked
		if st.InSync > 0 {
			st.State = "streaming"
		} else {
			st.State = "degraded"
		}
	}
	return st
}

func (p *Primary) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return
		}
		p.wg.Add(1)
		p.mu.Unlock()
		go func() {
			defer p.wg.Done()
			p.serveFollower(conn)
		}()
	}
}

// heartbeatLoop ticks both conditions (one shared ticker instead of a timer
// per sender or per waiter): senders wake to emit heartbeats and whatever
// ops nobody has waited on, WaitAcked callers to re-check their deadline.
func (p *Primary) heartbeatLoop() {
	defer p.wg.Done()
	t := time.NewTicker(p.opt.Heartbeat / 2)
	defer t.Stop()
	for range t.C {
		p.mu.Lock()
		closed := p.closed
		p.tick++
		p.pubCond.Broadcast()
		p.ackCond.Broadcast()
		p.mu.Unlock()
		if closed {
			return
		}
	}
}

// serveFollower runs one follower connection: handshake, snapshot or
// resume, then stream-from-ring with heartbeats, re-snapshotting if the
// follower falls out of the replay window. A paired receiver goroutine
// consumes acks.
func (p *Primary) serveFollower(conn net.Conn) {
	defer conn.Close()
	r := NewReader(conn)
	w := NewWriter(conn)

	var hello Record
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if err := r.ReadRecord(&hello); err != nil || hello.Type != TypeHello {
		return
	}
	conn.SetReadDeadline(time.Time{})

	f := &fconn{conn: conn}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.flw[f] = struct{}{}
	p.accepts++
	canResume := hello.Aux == p.runID && hello.Seq <= p.seq &&
		p.seq-hello.Seq <= uint64(len(p.ring))
	if canResume {
		f.sent = hello.Seq
	}
	p.mu.Unlock()
	defer p.dropFollower(f)

	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.readAcks(f, r)
	}()

	var err error
	if canResume {
		err = w.WriteRecord(&Record{Type: TypeWelcome, Seq: hello.Seq, Aux: p.runID, Flags: ModeResume})
		if err == nil {
			err = w.Flush()
		}
	} else {
		err = p.sendSnapshot(f, w)
	}
	if err != nil {
		return
	}

	lastSend := time.Now()
	var batch []Record
	for {
		p.mu.Lock()
		// Sleep until there is something to put on the wire: unsent ops
		// that are due (sendDue) or have sat through a tick, or a heartbeat
		// on an idle stream.
		for tick := p.tick; !p.closed && !f.gone; p.pubCond.Wait() {
			if p.seq == f.sent {
				if time.Since(lastSend) >= p.opt.Heartbeat {
					break
				}
				tick = p.tick // nothing has sat through it
			} else if p.sendDue(f) || p.tick != tick {
				break
			}
		}
		if p.closed || f.gone {
			p.mu.Unlock()
			return
		}
		heartbeat := false
		resnap := false
		switch {
		case p.seq == f.sent:
			heartbeat = true
		case p.seq-f.sent > uint64(len(p.ring)):
			// The follower's cursor fell out of the replay window: shed to
			// a fresh snapshot rather than queue unboundedly.
			p.resnapshots++
			resnap = true
		default:
			n := p.seq - f.sent
			if n > 256 {
				n = 256
			}
			batch = batch[:0]
			for i := uint64(1); i <= n; i++ {
				// Record structs are copied out under the lock; their
				// key/value allocations are immutable once published, so
				// writing them outside the lock is safe even if the ring
				// slot is overwritten meanwhile.
				batch = append(batch, p.ring[(f.sent+i)%uint64(len(p.ring))])
			}
			f.sent += n
			p.batches++
		}
		hbSeq := p.seq
		p.mu.Unlock()

		switch {
		case resnap:
			err = p.sendSnapshot(f, w)
		case heartbeat:
			err = w.WriteRecord(&Record{Type: TypeHeartbeat, Seq: hbSeq})
			if err == nil {
				err = w.Flush()
			}
		default:
			for i := range batch {
				if err = w.WriteRecord(&batch[i]); err != nil {
					break
				}
			}
			if err == nil {
				err = w.Flush()
			}
		}
		if err != nil {
			return
		}
		lastSend = time.Now()
	}
}

// sendSnapshot streams Welcome(snapshot) + every item + SnapEnd and moves
// f's cursor to the stream start seq (the frontier at snapshot begin; the
// scan is weakly consistent, replay from that seq re-converges). The item
// scan runs WITHOUT p.mu — publishes proceed concurrently.
func (p *Primary) sendSnapshot(f *fconn, w *Writer) error {
	p.mu.Lock()
	start := p.seq
	f.sent = start
	p.mu.Unlock()
	if err := w.WriteRecord(&Record{Type: TypeWelcome, Seq: start, Aux: p.runID, Flags: ModeSnapshot}); err != nil {
		return err
	}
	var count uint64
	err := p.src.SnapshotItems(func(key, value []byte, flags uint16, aux uint64) error {
		count++
		return w.WriteRecord(&Record{Type: TypeSnapItem, Flags: flags, Aux: aux, Key: key, Value: value})
	})
	if err != nil {
		return err
	}
	if err := w.WriteRecord(&Record{Type: TypeSnapEnd, Seq: count}); err != nil {
		return err
	}
	return w.Flush()
}

// readAcks consumes the follower's ack stream, promoting it to in-sync
// whenever it has caught the frontier. Any read error (or silence past the
// heartbeat-derived deadline) marks the follower gone.
func (p *Primary) readAcks(f *fconn, r *Reader) {
	var rec Record
	for {
		f.conn.SetReadDeadline(time.Now().Add(6 * p.opt.Heartbeat))
		if err := r.ReadRecord(&rec); err != nil || rec.Type != TypeAck {
			break
		}
		p.mu.Lock()
		if rec.Seq > f.acked {
			f.acked = rec.Seq
		}
		if f.acked >= p.seq {
			f.inSync = true
		}
		p.ackCond.Broadcast()
		p.mu.Unlock()
	}
	f.conn.Close()
	p.mu.Lock()
	f.gone = true
	f.inSync = false
	p.pubCond.Broadcast()
	p.ackCond.Broadcast()
	p.mu.Unlock()
}

func (p *Primary) dropFollower(f *fconn) {
	f.conn.Close()
	p.mu.Lock()
	delete(p.flw, f)
	f.gone = true
	f.inSync = false
	p.pubCond.Broadcast()
	p.ackCond.Broadcast()
	p.mu.Unlock()
}
