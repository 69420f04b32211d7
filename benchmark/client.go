package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/memcache"
)

var processStart = time.Now()

// now is nanoseconds on the monotonic clock since the process started.
func now() int64 { return int64(time.Since(processStart)) }

// env is what every phase of one run shares: the workload at its scaled
// size, the rendered keys, the oracle, and the owners' view of every key at
// phase boundaries (clients copy it in when they start and back when they
// have stopped, so phases with different client counts can follow each
// other on one cache).
type env struct {
	w       *workload
	sz      sizing
	seed    int64
	keys    int
	preload int
	slab    keySlab
	or      *oracle
	sizes   []int
	state   []uint32
}

func newEnv(w *workload, sz sizing, seed int64) *env {
	keys := max(w.keys/sz.keyDiv, 16)
	e := &env{
		w: w, sz: sz, seed: seed,
		keys: keys, preload: min(max(w.preload/sz.keyDiv, 8), keys),
		slab: newKeySlab(keys), or: newOracle(seed), sizes: distinctSizes(w),
	}
	e.resetState()
	return e
}

// preloadSize is the value size key idx is preloaded with: the workload's
// size pattern by index, so the preload's footprint is the same every run.
func (e *env) preloadSize(idx int) int { return e.w.sizes[idx%len(e.w.sizes)] }

// resetState sets the owners' view to "just preloaded".
func (e *env) resetState() {
	e.state = make([]uint32, e.keys)
	for i := 0; i < e.preload; i++ {
		e.state[i] = keyState(1, true)
	}
}

// preloadInto stores version 1 of keys [0,preload) through kv, from the
// calling goroutine, and returns the user bytes stored.
func (e *env) preloadInto(kv memcache.KV) (userBytes uint64, err error) {
	buf := make([]byte, maxValue)
	for i := 0; i < e.preload; i++ {
		v := e.or.encode(buf, uint32(i), 1, e.preloadSize(i))
		if err := kv.Set(e.slab.key(uint32(i)), v, 0, 0); err != nil {
			return 0, fmt.Errorf("preload key %d: %w", i, err)
		}
		userBytes += uint64(keyLen + len(v))
	}
	return userBytes, nil
}

// span is one timed interval at a layer boundary. Spans of one request
// share req; the parent of a span is the span of the enclosing layer with
// the same req (request > cache > repl.wait).
type span struct {
	name       uint8
	kind       uint8
	client     uint16
	req        uint64
	start, end int64
}

const (
	spanRequest uint8 = iota
	spanCache
	spanReplWait
)

var spanNames = [...]string{"request", "cache", "repl.wait"}

// client is one load goroutine (engine) or connection (wire). It owns the
// keys whose index is congruent to id mod stride, so every read it issues
// has exactly one right answer: the last thing it wrote.
type client struct {
	e      *env
	id     int
	stride int
	ops    []op
	pos    int
	state  []uint32 // by owned-key ordinal
	buf    []byte

	done uint64 // operations completed

	failed    uint64
	byVerdict [len(verdictNames)]uint64
	firstFail string

	// The schedule the client follows by the clock (see drive), the window
	// it has open, and what it has recorded.
	sched   schedule
	edge    int64 // the clock time at which the warm-up or open window ends; 0 = no schedule
	inWin   bool
	win     window
	record  record
	ref     *refWorker
	sampler bool // this client reads the process's CPU time at its window edges

	measuring *atomic.Bool // traced wire phases: tells the server-side wrappers a window is open
	traced    bool         // time every operation and keep it as a span
	reqBase   uint64       // traced: first request id, so phases do not reuse ids
	spans     []span
	curReq    *atomic.Uint64 // wire, traced: the request in flight, for the server-side wrappers
}

// window is one measured stretch of one client.
type window struct {
	slot       int
	t0, t1     int64
	ops        uint64 // done at t0, then completed in the window
	cpu0, cpu1 float64
	get0, get1 int // the window's latency samples: record.getLat[get0:get1]
	set0, set1 int
}

// schedule lays a phase out on the clock: a warm-up until start, then slots
// of equal length, each beginning with a slice of reference work (ref may
// be 0) and measuring for the rest; a closing reference slice ends it.
// Every client follows the same clock, so they pause and measure together.
type schedule struct {
	start, slot, ref int64
	slots            int
}

func (sc schedule) end() int64 { return sc.start + int64(sc.slots)*sc.slot + sc.ref }

// onEdge runs when the clock has passed c.edge with nothing in flight: it
// closes the open window, does the slot's reference slice and opens the next
// window, or reports that the schedule is over.
func (c *client) onEdge(t int64) (finished bool) {
	sc := c.sched
	if c.inWin {
		c.win.t1, c.win.ops = t, c.done-c.win.ops
		c.win.get1, c.win.set1 = len(c.record.getLat), len(c.record.setLat)
		if c.sampler {
			c.win.cpu1 = cpuMicros()
		}
		c.record.windows = append(c.record.windows, c.win)
		c.inWin = false
		if c.measuring != nil {
			c.measuring.Store(false)
		}
	}
	slot := int((t - sc.start) / sc.slot)
	if slot >= sc.slots {
		if sc.ref > 0 {
			c.record.refs = append(c.record.refs, refScore{sc.slots, c.ref.runUntil(max(sc.end(), now()+sc.ref/2))})
		}
		return true
	}
	slotStart := sc.start + int64(slot)*sc.slot
	if sc.ref > 0 {
		c.record.refs = append(c.record.refs, refScore{slot, c.ref.runUntil(slotStart + sc.ref)})
	}
	c.win = window{slot: slot, t0: now(), ops: c.done, get0: len(c.record.getLat), set0: len(c.record.setLat)}
	if c.sampler {
		c.win.cpu0 = cpuMicros()
	}
	c.inWin = true
	if c.measuring != nil {
		c.measuring.Store(true)
	}
	c.edge = slotStart + sc.slot
	return false
}

const maxSamples = 8 << 20

// genStreams generates the op streams of n clients.
func (e *env) genStreams(n int) [][]op {
	streams := make([][]op, n)
	for id := range streams {
		streams[id] = genStream(e.w, e.keys, e.seed, id, n, e.sz.streamOps)
	}
	return streams
}

// newClientsFrom makes one client per stream, each starting from the env's
// view of its keys.
func (e *env) newClientsFrom(streams [][]op) []*client {
	n := len(streams)
	out := make([]*client, n)
	for id := range out {
		c := &client{
			e: e, id: id, stride: n, ops: streams[id],
			state: make([]uint32, ownedKeys(e.keys, id, n)),
			buf:   make([]byte, maxValue),
		}
		for ord := range c.state {
			c.state[ord] = e.state[ord*n+id]
		}
		out[id] = c
	}
	return out
}

// absorb copies the stopped clients' view of their keys back into the env.
func (e *env) absorb(clients []*client) {
	for _, c := range clients {
		for ord, s := range c.state {
			e.state[ord*c.stride+c.id] = s
		}
	}
}

func (c *client) fail(v verdict, idx uint32, what string) {
	c.failed++
	c.byVerdict[v]++
	if c.firstFail == "" {
		c.firstFail = fmt.Sprintf("client %d key %d: %s (%s)", c.id, idx, what, verdictNames[v])
	}
}

func (c *client) checkRead(v []byte, found bool, idx, state uint32) {
	if verdict := c.e.or.judge(v, found, idx, state, c.e.w.capped); verdict != valueOK {
		c.fail(verdict, idx, "get")
	}
}

func (c *client) sample(kind uint8, req uint64, t0, t1 int64) {
	if !c.inWin {
		return
	}
	if c.traced {
		name := spanCache
		if c.e.w.wire {
			name = spanRequest
		}
		c.spans = append(c.spans, span{name: name, kind: kind, client: uint16(c.id), req: req, start: t0, end: t1})
		return
	}
	d := uint32(min(t1-t0, 1<<32-1))
	switch {
	case kind == opGet && len(c.record.getLat) < maxSamples:
		c.record.getLat = append(c.record.getLat, d)
	case kind == opSet && len(c.record.setLat) < maxSamples:
		c.record.setLat = append(c.record.setLat, d)
	}
}

func (c *client) nextOp() (o op, idx uint32) {
	o = c.ops[c.pos]
	if c.pos++; c.pos == len(c.ops) {
		c.pos = 0
	}
	return o, o.key*uint32(c.stride) + uint32(c.id)
}

// runEngine calls kv in process until its schedule is over or budget
// operations are done (budget 0 = no budget). One call in eight is
// timed, every call when the client is traced; the schedule is consulted at
// the timed calls.
func (c *client) runEngine(kv memcache.KV, budget int) {
	e := c.e
	for n := 0; budget == 0 || n < budget; n++ {
		timed := c.traced || n&7 == 0
		if timed && c.edge != 0 {
			if t := now(); t >= c.edge && c.onEdge(t) {
				return
			}
		}
		o, idx := c.nextOp()
		key := e.slab.key(idx)
		var val []byte
		var ver uint32
		if o.kind == opSet {
			ver = stateVer(c.state[o.key]) + 1
			val = e.or.encode(c.buf, idx, ver, e.sizes[o.size])
		}
		var t0 int64
		if timed {
			t0 = now()
		}
		var got []byte
		var found bool
		var err error
		switch o.kind {
		case opGet:
			got, _, found = kv.Get(key)
		case opSet:
			err = kv.Set(key, val, 0, 0)
		case opDel:
			kv.Delete(key)
		}
		if timed {
			c.sample(o.kind, c.reqBase+uint64(n), t0, now())
		}
		switch {
		case o.kind == opGet:
			c.checkRead(got, found, idx, c.state[o.key])
		case o.kind == opDel:
			c.state[o.key] = keyState(stateVer(c.state[o.key]), false)
		case err != nil:
			c.fail(valueMissing, idx, "set: "+err.Error())
		default:
			c.state[o.key] = keyState(ver, true)
		}
		c.done++
	}
}

// pending is a request on the wire whose reply has not been read yet.
type pending struct {
	kind  uint8
	idx   uint32
	state uint32 // the owner's view once every earlier request has applied
	req   uint64
	t0    int64
}

// wireConn drives one text-protocol connection with up to depth requests in
// flight. A connection's requests are served in order, so the expected
// answer to a get is the owner's view at the moment it was sent.
type wireConn struct {
	c     *client
	conn  net.Conn
	r     *bufio.Reader
	w     *bufio.Writer
	depth int
	fifo  []pending
	head  int
	count int
	num   []byte
	sent  uint64
}

func dialWire(addr string, c *client, depth int) (*wireConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial server: %w", err)
	}
	// A bound on the whole connection, so a dead server cannot hang a run.
	conn.SetDeadline(time.Now().Add(150 * time.Second))
	return &wireConn{
		c: c, conn: conn, depth: depth,
		r:    bufio.NewReaderSize(conn, 64<<10),
		w:    bufio.NewWriterSize(conn, 64<<10),
		fifo: make([]pending, depth),
		num:  make([]byte, 0, 16),
		sent: c.reqBase,
	}, nil
}

// render writes the client's next operation into the write buffer, applies
// it to the owner's view, and returns what the reply must be judged against.
func (wc *wireConn) render() pending {
	c := wc.c
	o, idx := c.nextOp()
	key := c.e.slab.key(idx)
	switch o.kind {
	case opGet:
		wc.w.WriteString("get ")
		wc.w.Write(key)
		wc.w.WriteString("\r\n")
	case opSet:
		ver := stateVer(c.state[o.key]) + 1
		val := c.e.or.encode(c.buf, idx, ver, c.e.sizes[o.size])
		wc.w.WriteString("set ")
		wc.w.Write(key)
		wc.w.WriteString(" 0 0 ")
		wc.w.Write(strconv.AppendInt(wc.num[:0], int64(len(val)), 10))
		wc.w.WriteString("\r\n")
		wc.w.Write(val)
		wc.w.WriteString("\r\n")
		c.state[o.key] = keyState(ver, true)
	case opDel:
		wc.w.WriteString("delete ")
		wc.w.Write(key)
		wc.w.WriteString("\r\n")
		c.state[o.key] = keyState(stateVer(c.state[o.key]), false)
	}
	wc.sent++
	return pending{kind: o.kind, idx: idx, state: c.state[o.key], req: wc.sent - 1}
}

func (wc *wireConn) enqueue() {
	wc.fifo[(wc.head+wc.count)%len(wc.fifo)] = wc.render()
	wc.count++
}

func (wc *wireConn) dequeue() pending {
	p := wc.fifo[wc.head]
	wc.head = (wc.head + 1) % len(wc.fifo)
	wc.count--
	return p
}

var errProtocol = errors.New("protocol error")

// parseValueLine parses "VALUE <key> <flags> <bytes>\r\n" for the expected
// key without allocating, returning the byte count.
func parseValueLine(line, key []byte) (n int, ok bool) {
	const prefix = "VALUE "
	if len(line) < len(prefix)+len(key)+6 || string(line[:len(prefix)]) != prefix ||
		!bytes.Equal(line[len(prefix):len(prefix)+len(key)], key) || line[len(prefix)+len(key)] != ' ' {
		return 0, false
	}
	rest := line[len(prefix)+len(key)+1:]
	sp := bytes.IndexByte(rest, ' ')
	if sp < 1 || !bytes.HasSuffix(rest, []byte("\r\n")) {
		return 0, false
	}
	digits := rest[sp+1 : len(rest)-2]
	if len(digits) == 0 || len(digits) > 5 {
		return 0, false
	}
	for _, d := range digits {
		if d < '0' || d > '9' {
			return 0, false
		}
		n = n*10 + int(d-'0')
	}
	return n, n <= maxValue
}

// readReply reads the next reply off the connection and judges it as the
// answer to p.
func (wc *wireConn) readReply(p pending) error {
	line, err := wc.r.ReadSlice('\n')
	if err != nil {
		return err
	}
	c := wc.c
	switch p.kind {
	case opSet:
		if string(line) != "STORED\r\n" {
			return fmt.Errorf("%w: set answered %q", errProtocol, line)
		}
	case opDel:
		if s := string(line); s != "DELETED\r\n" && s != "NOT_FOUND\r\n" {
			return fmt.Errorf("%w: delete answered %q", errProtocol, line)
		}
	case opGet:
		if string(line) == "END\r\n" {
			c.checkRead(nil, false, p.idx, p.state)
			return nil
		}
		n, ok := parseValueLine(line, c.e.slab.key(p.idx))
		if !ok {
			return fmt.Errorf("%w: get answered %q", errProtocol, line)
		}
		data, err := wc.r.Peek(n + 2)
		if err != nil {
			return err
		}
		c.checkRead(data[:n], true, p.idx, p.state)
		wc.r.Discard(n + 2)
		if line, err = wc.r.ReadSlice('\n'); err != nil {
			return err
		}
		if string(line) != "END\r\n" {
			return fmt.Errorf("%w: value followed by %q", errProtocol, line)
		}
	}
	return nil
}

// run keeps depth requests in flight until the client's schedule is over or
// budget operations have completed, then drains what is in
// flight. At a schedule edge it first lets the pipeline run empty. Latency
// is from the flush that sent a request to its reply being parsed: with
// depth > 1 that is latency at that concurrency, not service time.
func (wc *wireConn) run(budget int) error {
	c := wc.c
	completed := 0
	for {
		pausing := false
		if c.edge != 0 {
			if t := now(); t >= c.edge {
				if wc.count == 0 && c.onEdge(t) {
					return nil
				}
				pausing = wc.count > 0
			}
		}
		stopping := pausing || (budget > 0 && completed+wc.count >= budget)
		first := wc.count
		for wc.count < wc.depth && !stopping {
			wc.enqueue()
			stopping = budget > 0 && completed+wc.count >= budget
		}
		if wc.count == 0 {
			return nil
		}
		if wc.count > first {
			t0 := now()
			for i := first; i < wc.count; i++ {
				wc.fifo[(wc.head+i)%len(wc.fifo)].t0 = t0
			}
			if c.curReq != nil {
				c.curReq.Store(wc.fifo[wc.head].req)
			}
			if err := wc.w.Flush(); err != nil {
				return wc.abort(err)
			}
		}
		// Block for one reply, then take every reply already buffered.
		for more := true; more; more = wc.count > 0 && wc.r.Buffered() > 0 {
			p := wc.dequeue()
			if err := wc.readReply(p); err != nil {
				c.fail(valueMissing, p.idx, err.Error())
				return wc.abort(err)
			}
			c.sample(p.kind, p.req, p.t0, now())
			c.done++
			completed++
		}
	}
}

// abort counts every request still in flight as failed.
func (wc *wireConn) abort(err error) error {
	for wc.count > 0 {
		wc.c.fail(valueMissing, wc.dequeue().idx, "in flight when the connection failed")
	}
	return fmt.Errorf("client %d: %w", wc.c.id, err)
}

func (wc *wireConn) close() { wc.conn.Close() }
