package memcache

import (
	"bufio"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Server speaks the memcached wire protocols over TCP, backed by any KV
// (NV-Memcached or a volatile comparator). Both are served from the same
// listener: the first byte of a connection selects binary framing (magic
// 0x80) or the text protocol, exactly as stock memcached auto-negotiates.
//
// There is one request path. A protocol is only a decoder, which fills the
// connection's request (text.go: command lines and data blocks; binary.go:
// frames, quiet opcodes included), and an encoder, which renders a result;
// between them every request runs through execute (request.go). What a
// request is subject to whatever its protocol lives there and only there:
// the read-only gate, the key and value limits, the exptime rule, which
// commands the backend has, and the mapping from cache errors to statuses.
// The decoders own the buffering limits, derived from what is storable: a
// text line past maxLineLen is answered "CLIENT_ERROR line too long" and the
// connection closes, a data block or binary body no item could hold is
// swallowed unbuffered and answered "object too large" / "Too large.".
//
// The per-connection reader is allocation-free on the hot path: request
// lines are parsed in place from the bufio buffer (no strings.Split), data
// blocks land in a per-connection reusable buffer, and the whole
// per-connection state is recycled through a sync.Pool. Responses coalesce:
// the write buffer is flushed only when the read side has no more pipelined
// input, so noreply/quiet streams turn into large batched writes.
//
// The backend is shared by all connections — implicit sessions make it safe
// from any goroutine. The maxConns bound caps concurrently served
// connections (connections beyond it wait, they are not refused).
type Server struct {
	ln    net.Listener
	sem   chan struct{}
	kv    KV
	stats func() Stats

	// readonly gates every mutating command (a warm-standby replica serves
	// reads only; its writes come from the replication stream). Flipped off
	// at promotion.
	readonly atomic.Bool

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	timers map[*time.Timer]struct{}
	wg     sync.WaitGroup
}

const serverVersion = "nv-memcached-1.0"

// NewServer serves kv on addr ("host:port"; ":0" picks a free port).
// maxConns bounds concurrently served connections.
func NewServer(addr string, maxConns int, kv KV, stats func() Stats) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		ln:     ln,
		sem:    make(chan struct{}, maxConns),
		kv:     kv,
		stats:  stats,
		conns:  make(map[net.Conn]struct{}),
		timers: make(map[*time.Timer]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// SetReadOnly gates (or ungates) every mutating command on both protocols:
// a read-only server answers stores with "SERVER_ERROR replica is
// read-only" (binary: NOT_STORED status) and serves retrievals normally.
// Used while the cache is a replication follower; promotion flips it off.
func (s *Server) SetReadOnly(v bool) { s.readonly.Store(v) }

// Close stops accepting, closes active connections, and cancels pending
// delayed flush_all timers.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	for t := range s.timers {
		t.Stop()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.sem <- struct{}{}
			s.serve(conn)
			<-s.sem
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			conn.Close()
		}()
	}
}

// connState is the reusable per-connection machinery: buffered IO, the
// request being served, and the decoders' and encoders' scratch buffers. It
// is recycled across connections through connPool.
type connState struct {
	r      *bufio.Reader
	w      *bufio.Writer // over out, never over the connection itself
	out    ackGate
	binary bool // which protocol's decoder and encoder serve the connection
	req    request

	fields [][]byte // views into the reader's buffer, valid until next read
	line   []byte   // accumulator for lines longer than the reader's buffer, at most maxLineLen
	data   []byte   // payload buffer (text data blocks, binary bodies), binMaxBody
	keyBuf []byte   // key copy that survives reading the data block
	num    []byte   // scratch: integer rendering, binary response headers
}

// base is the server's own cache handle (nil on a comparator backend): what
// anything that outlives or runs beside a connection must use, because a
// connection's handle belongs to that connection's goroutine alone.
func (s *Server) base() *Cache {
	cache, _ := s.kv.(*Cache)
	return cache
}

var connPool = sync.Pool{New: func() any {
	return &connState{
		r:      bufio.NewReaderSize(nil, 16<<10),
		w:      bufio.NewWriterSize(nil, 16<<10),
		fields: make([][]byte, 0, 16),
		data:   make([]byte, 0, binMaxBody),
		keyBuf: make([]byte, 0, MaxKeyLen+1),
		num:    make([]byte, 32),
	}
}}

// serve runs one connection to completion.
func (s *Server) serve(conn net.Conn) {
	c := connPool.Get().(*connState)
	s.serveStream(c, conn, conn)
	connPool.Put(c)
}

// serveStream binds c to one stream, picks the protocol from its first byte,
// runs the one loop — decode, execute, encode, flush unless more input is
// already waiting — and unbinds c. Split out from serve so tests and fuzz
// targets can drive a connState over any reader/writer.
func (s *Server) serveStream(c *connState, r io.Reader, w io.Writer) {
	c.out = ackGate{w: w, cache: s.base()}
	c.r.Reset(r)
	c.w.Reset(&c.out)
	req := &c.req
	if first, err := c.r.Peek(1); err == nil {
		c.binary = first[0] == binMagicReq
		for {
			st := c.decode(req)
			if st == statusEOF {
				break
			}
			res := result{status: st}
			if st == statusOK {
				res = s.execute(c, req)
			}
			c.encode(req, &res)
			if req.op == opQuit || st == statusLineTooLong || c.maybeFlush() != nil {
				break
			}
		}
		c.w.Flush()
	}
	c.r.Reset(nil)
	c.w.Reset(nil)
	c.out, c.req = ackGate{}, request{}
}

func (c *connState) decode(req *request) status {
	if c.binary {
		return c.decodeBinary(req)
	}
	return c.decodeText(req)
}

func (c *connState) encode(req *request, res *result) {
	if c.binary {
		c.encodeBinary(req, res)
	} else {
		c.encodeText(req, res)
	}
}

// maybeFlush flushes the response buffer only when no more pipelined input
// is waiting — the write-coalescing half of noreply pipelining, and what
// makes a pipelined burst of mutations pay one replication wait (in c.out).
func (c *connState) maybeFlush() error {
	if c.r.Buffered() > 0 || len(c.req.more) > 0 {
		return nil
	}
	return c.w.Flush()
}

// afterFunc schedules fn, tracking the timer so Close cancels it (a flush
// must not fire into a cache that its server has released).
func (s *Server) afterFunc(d time.Duration, fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	var t *time.Timer
	t = time.AfterFunc(d, func() {
		s.mu.Lock()
		_, live := s.timers[t]
		delete(s.timers, t)
		s.mu.Unlock()
		if live {
			fn()
		}
	})
	s.timers[t] = struct{}{}
}

// statRow is one row of `stats`, as both protocols emit it.
type statRow struct{ name, value string }

// rows lists the `stats` rows in wire order — the one table the text and
// binary protocols both emit.
func (st Stats) rows() []statRow {
	row := func(name string, v uint64) statRow { return statRow{name, strconv.FormatUint(v, 10)} }
	state := st.ReplState
	if state == "" {
		state = "none" // stats funcs that predate replication
	}
	return []statRow{
		row("cmd_get", st.Gets),
		row("cmd_set", st.Sets),
		row("cmd_touch", st.Touches),
		row("cmd_flush", st.Flushes),
		row("get_hits", st.Hits),
		row("get_misses", st.Misses),
		row("cas_hits", st.CasHits),
		row("cas_badval", st.CasBadval),
		row("cas_misses", st.CasMisses),
		row("evictions", st.Evictions),
		row("evictions_bytes", st.EvictionsBytes),
		row("expired_unfetched", st.Expired),
		row("curr_items", uint64(st.Items)),
		row("grow_count", st.GrowCount),
		row("pool_bytes_total", st.PoolBytesTotal),
		row("pool_bytes_used", st.PoolBytesUsed),
		row("repl_seq", st.ReplSeq),
		row("repl_lag_ops", st.ReplLagOps),
		row("repl_reconnects", st.ReplReconnects),
		{"repl_state", state},
	}
}
