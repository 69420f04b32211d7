package memcache

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Server speaks the memcached wire protocol over TCP, backed by any KV
// (NV-Memcached or a volatile comparator). Both protocols are served from
// the same listener: the first byte of a connection selects binary framing
// (magic 0x80) or the text protocol, exactly as stock memcached
// auto-negotiates.
//
// Text commands: set, add, replace, append, prepend, cas, get, gets, gat,
// gats, delete, incr, decr, touch, stats, flush_all, verbosity, version,
// quit — all with noreply support. Binary: the full common opcode set
// including the quiet (pipelined) variants; see binary.go.
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

// relativeExpiryCutoff: per the memcached protocol, expiration times up to
// 30 days are relative to now; larger values are absolute unix timestamps.
const relativeExpiryCutoff = 60 * 60 * 24 * 30

// normalizeExp converts a wire exptime to the absolute unix deadline the
// cache stores: 0 = never, negative = already expired, <= 30 days =
// relative to now, else absolute.
func normalizeExp(exp int64, now int64) uint32 {
	switch {
	case exp == 0:
		return 0
	case exp < 0:
		return uint32(now - 1)
	case exp <= relativeExpiryCutoff:
		return uint32(now + exp)
	default:
		return uint32(exp)
	}
}

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

const readOnlyMsg = "SERVER_ERROR replica is read-only\r\n"

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
// in-place field splitter, and the request/response scratch buffers. It is
// recycled across connections through connPool.
type connState struct {
	r *bufio.Reader
	w *bufio.Writer // over out, never over the connection itself
	// kv is what this connection's commands run on, cache the same thing
	// when it is a *Cache (nil otherwise). For a server on a *Cache both are
	// &handle: the connection's own handle on the server's cache, whose
	// mutations note their replication seq in out instead of waiting, so
	// the connection waits once per flush (see ackGate).
	kv     KV
	cache  *Cache
	handle Cache
	out    ackGate

	fields [][]byte // views into the reader's buffer, valid until next read
	line   []byte   // overflow accumulator for lines longer than the buffer
	data   []byte   // payload buffer (text data blocks, binary bodies)
	keyBuf []byte   // key copy that survives reading the data block
	num    []byte   // integer rendering scratch
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
		keyBuf: make([]byte, 0, MaxKeyLen+8),
		num:    make([]byte, 0, 32),
	}
}}

// serve runs one connection to completion, auto-detecting the protocol
// from its first byte.
func (s *Server) serve(conn net.Conn) {
	c := connPool.Get().(*connState)
	s.serveStream(c, conn, conn)
	connPool.Put(c)
}

// serveStream binds c to one stream, dispatches on the protocol magic and
// unbinds it. Split out from serve so tests and fuzz targets can drive a
// connState over any reader/writer.
func (s *Server) serveStream(c *connState, r io.Reader, w io.Writer) {
	c.kv, c.cache = s.kv, nil
	c.out = ackGate{w: w}
	if base := s.base(); base != nil {
		c.out.cache = base
		c.handle = Cache{cacheState: base.cacheState, gate: &c.out}
		c.kv, c.cache = &c.handle, &c.handle
	}
	c.r.Reset(r)
	c.w.Reset(&c.out)
	if first, err := c.r.Peek(1); err == nil {
		if first[0] == binMagicReq {
			s.serveBinary(c)
		} else {
			s.serveText(c)
		}
		c.w.Flush()
	}
	c.r.Reset(nil)
	c.w.Reset(nil)
	c.kv, c.cache, c.handle, c.out = nil, nil, Cache{}, ackGate{}
}

// readLine returns the next \n-terminated line with the line ending
// trimmed. The returned slice aliases the reader's buffer (or c.line for
// oversized lines) and is valid only until the next read.
func (c *connState) readLine() ([]byte, error) {
	line, err := c.r.ReadSlice('\n')
	if err == nil {
		return trimCRLF(line), nil
	}
	if err != bufio.ErrBufferFull {
		return nil, err
	}
	c.line = append(c.line[:0], line...)
	for {
		line, err = c.r.ReadSlice('\n')
		c.line = append(c.line, line...)
		if err == nil {
			return trimCRLF(c.line), nil
		}
		if err != bufio.ErrBufferFull {
			return nil, err
		}
	}
}

func trimCRLF(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b
}

// splitFields splits line on spaces into dst without allocating (beyond
// growing dst's backing array once per connection).
func splitFields(line []byte, dst [][]byte) [][]byte {
	for len(line) > 0 {
		for len(line) > 0 && line[0] == ' ' {
			line = line[1:]
		}
		if len(line) == 0 {
			break
		}
		i := bytes.IndexByte(line, ' ')
		if i < 0 {
			dst = append(dst, line)
			break
		}
		dst = append(dst, line[:i])
		line = line[i+1:]
	}
	return dst
}

// parseUint is an allocation-free strconv.ParseUint(s, 10, 64).
func parseUint(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 20 {
		return 0, false
	}
	var v uint64
	for _, ch := range b {
		if ch < '0' || ch > '9' {
			return 0, false
		}
		d := uint64(ch - '0')
		if v > (^uint64(0)-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// parseInt accepts an optional leading minus.
func parseInt(b []byte) (int64, bool) {
	neg := false
	if len(b) > 0 && b[0] == '-' {
		neg = true
		b = b[1:]
	}
	v, ok := parseUint(b)
	if !ok || v > 1<<62 {
		return 0, false
	}
	if neg {
		return -int64(v), true
	}
	return int64(v), true
}

// writeUint renders v in decimal without allocating.
func (c *connState) writeUint(v uint64) {
	c.num = strconv.AppendUint(c.num[:0], v, 10)
	c.w.Write(c.num)
}

func (c *connState) writeCRLF() { c.w.WriteString("\r\n") }

// maybeFlush flushes the response buffer only when no more pipelined input
// is waiting — the write-coalescing half of noreply pipelining, and what
// makes a pipelined burst of mutations pay one replication wait (in c.out).
func (c *connState) maybeFlush() error {
	if c.r.Buffered() > 0 {
		return nil
	}
	return c.w.Flush()
}

// ---------------------------------------------------------------------------
// Text protocol

func (s *Server) serveText(c *connState) {
	for {
		line, err := c.readLine()
		if err != nil {
			return
		}
		if len(line) == 0 {
			continue
		}
		c.fields = splitFields(line, c.fields[:0])
		if len(c.fields) == 0 {
			// A line of only spaces: no command token (fuzz-found panic).
			io.WriteString(c.w, "ERROR\r\n")
			if c.maybeFlush() != nil {
				return
			}
			continue
		}
		if !s.dispatchText(c, c.fields) {
			return
		}
		if c.maybeFlush() != nil {
			return
		}
	}
}

// dispatchText runs one parsed command line; false ends the connection.
func (s *Server) dispatchText(c *connState, f [][]byte) bool {
	switch string(f[0]) {
	case "get":
		s.cmdGet(c, f, false)
	case "gets":
		s.cmdGet(c, f, true)
	case "gat":
		s.cmdGat(c, f, false)
	case "gats":
		s.cmdGat(c, f, true)
	case "set", "add", "replace", "append", "prepend", "cas":
		return s.cmdStore(c, f)
	case "delete":
		s.cmdDelete(c, f)
	case "incr", "decr":
		s.cmdIncrDecr(c, f)
	case "touch":
		s.cmdTouch(c, f)
	case "stats":
		s.cmdStats(c)
	case "flush_all":
		s.cmdFlushAll(c, f)
	case "verbosity":
		if !hasNoreply(f, 2) {
			io.WriteString(c.w, "OK\r\n")
		}
	case "version":
		io.WriteString(c.w, "VERSION "+serverVersion+"\r\n")
	case "quit":
		return false
	default:
		io.WriteString(c.w, "ERROR\r\n")
	}
	return true
}

// hasNoreply reports whether field at (the command's noreply position)
// exists and is the noreply token.
func hasNoreply(f [][]byte, at int) bool {
	return len(f) > at && string(f[at]) == "noreply"
}

func clientError(c *connState, msg string) {
	io.WriteString(c.w, "CLIENT_ERROR "+msg+"\r\n")
}

// cmdStore parses set|add|replace|append|prepend|cas
//
//	<verb> <key> <flags> <exptime> <bytes> [<cas unique>] [noreply]\r\n<data>\r\n
//
// Returns false when the connection must close (short read mid-payload).
func (s *Server) cmdStore(c *connState, f [][]byte) bool {
	verb := string(f[0])
	isCas := verb == "cas"
	minFields := 5
	if isCas {
		minFields = 6
	}
	if len(f) < minFields {
		clientError(c, "bad command line format")
		return true
	}
	noreply := hasNoreply(f, minFields)
	if len(f) > minFields+1 || (len(f) == minFields+1 && !noreply) {
		clientError(c, "bad command line format")
		return true
	}
	key := f[1]
	flags, okF := parseUint(f[2])
	expRaw, okE := parseInt(f[3])
	n, okN := parseUint(f[4])
	var casToken uint64
	okC := true
	if isCas {
		casToken, okC = parseUint(f[5])
	}
	if !okN {
		// Unparseable length: the data block cannot be swallowed; the next
		// line is parsed as a command (the client is already desynced).
		if !noreply {
			clientError(c, "bad command line format")
		}
		return true
	}
	badHeader := !okF || !okE || !okC || flags > 0xFFFF ||
		len(key) == 0 || len(key) > MaxKeyLen
	tooLarge := n > uint64(MaxValueLen)
	if badHeader || tooLarge {
		// The length WAS parseable: swallow the data block so the
		// connection stays in sync, then report.
		if ok := discardN(c.r, int64(n)+2); !ok {
			return false
		}
		if noreply {
			return true
		}
		if tooLarge {
			io.WriteString(c.w, "SERVER_ERROR object too large for cache\r\n")
		} else {
			clientError(c, "bad command line format")
		}
		return true
	}
	// The parsed fields alias the read buffer; the key must survive the
	// data-block read below.
	c.keyBuf = append(c.keyBuf[:0], key...)
	key = c.keyBuf
	if cap(c.data) < int(n)+2 {
		c.data = make([]byte, n+2)
	}
	c.data = c.data[:n+2]
	if _, err := io.ReadFull(c.r, c.data); err != nil {
		return false
	}
	if c.data[n] != '\r' || c.data[n+1] != '\n' {
		if !noreply {
			clientError(c, "bad data chunk")
		}
		return true
	}
	value := c.data[:n]
	exp := normalizeExp(expRaw, time.Now().Unix())

	// Gated here, after the data block is swallowed, so the connection
	// stays in sync for the next command.
	if s.readonly.Load() {
		if !noreply {
			io.WriteString(c.w, readOnlyMsg)
		}
		return true
	}

	cache := c.cache
	var err error
	switch {
	case verb == "set":
		err = c.kv.Set(key, value, uint16(flags), exp)
	case cache == nil:
		err = errBackend
	case verb == "add":
		_, err = cache.Add(key, value, uint16(flags), exp)
	case verb == "replace":
		_, err = cache.Replace(key, value, uint16(flags), exp)
	case verb == "append":
		_, err = cache.Append(key, value, 0)
	case verb == "prepend":
		_, err = cache.Prepend(key, value, 0)
	default: // cas
		_, err = cache.CompareAndSwap(key, value, uint16(flags), exp, casToken)
	}
	if noreply {
		return true
	}
	switch {
	case err == nil:
		io.WriteString(c.w, "STORED\r\n")
	case errors.Is(err, ErrNotStored):
		io.WriteString(c.w, "NOT_STORED\r\n")
	case errors.Is(err, ErrCASConflict):
		io.WriteString(c.w, "EXISTS\r\n")
	case errors.Is(err, ErrNotFound):
		io.WriteString(c.w, "NOT_FOUND\r\n")
	case errors.Is(err, ErrTooLarge):
		io.WriteString(c.w, "SERVER_ERROR object too large for cache\r\n")
	default:
		fmt.Fprintf(c.w, "SERVER_ERROR %v\r\n", err)
	}
	return true
}

var errBackend = errors.New("command not supported by this backend")

// discardN swallows n bytes of payload (a rejected store's data block).
func discardN(r *bufio.Reader, n int64) bool {
	_, err := io.CopyN(io.Discard, r, n)
	return err == nil
}

// writeValue emits one retrieval response:
//
//	VALUE <key> <flags> <bytes> [<cas>]\r\n<data>\r\n
func (c *connState) writeValue(key, v []byte, flags uint16, cas uint64, withCAS bool) {
	c.w.WriteString("VALUE ")
	c.w.Write(key)
	c.w.WriteByte(' ')
	c.writeUint(uint64(flags))
	c.w.WriteByte(' ')
	c.writeUint(uint64(len(v)))
	if withCAS {
		c.w.WriteByte(' ')
		c.writeUint(cas)
	}
	c.writeCRLF()
	c.w.Write(v)
	c.writeCRLF()
}

// cmdGet serves get/gets: one optional VALUE block per requested key,
// then END. gets adds the per-item CAS unique as the fifth header field.
func (s *Server) cmdGet(c *connState, f [][]byte, withCAS bool) {
	cache := c.cache
	for _, key := range f[1:] {
		if len(key) == 0 || len(key) > MaxKeyLen {
			continue
		}
		if withCAS && cache != nil {
			if v, flags, cas, ok := cache.Gets(key); ok {
				c.writeValue(key, v, flags, cas, true)
			}
		} else if v, flags, ok := c.kv.Get(key); ok {
			c.writeValue(key, v, flags, 0, withCAS)
		}
	}
	io.WriteString(c.w, "END\r\n")
}

// cmdGat serves gat/gats: get-and-touch over a list of keys.
//
//	gat[s] <exptime> <key>+\r\n
func (s *Server) cmdGat(c *connState, f [][]byte, withCAS bool) {
	cache := c.cache
	if cache == nil || len(f) < 3 {
		io.WriteString(c.w, "ERROR\r\n")
		return
	}
	expRaw, ok := parseInt(f[1])
	if !ok {
		clientError(c, "invalid exptime argument")
		return
	}
	if s.readonly.Load() { // gat mutates the expiry
		io.WriteString(c.w, readOnlyMsg)
		return
	}
	exp := normalizeExp(expRaw, time.Now().Unix())
	for _, key := range f[2:] {
		if len(key) == 0 || len(key) > MaxKeyLen {
			continue
		}
		if v, flags, cas, ok := cache.GetAndTouch(key, exp); ok {
			c.writeValue(key, v, flags, cas, withCAS)
		}
	}
	io.WriteString(c.w, "END\r\n")
}

// cmdDelete parses: delete <key> [noreply].
func (s *Server) cmdDelete(c *connState, f [][]byte) {
	noreply := hasNoreply(f, 2)
	if len(f) < 2 || len(f) > 3 || (len(f) == 3 && !noreply) {
		if !noreply {
			clientError(c, "bad command line format")
		}
		return
	}
	if s.readonly.Load() {
		if !noreply {
			io.WriteString(c.w, readOnlyMsg)
		}
		return
	}
	ok := c.kv.Delete(f[1])
	if noreply {
		return
	}
	if ok {
		io.WriteString(c.w, "DELETED\r\n")
	} else {
		io.WriteString(c.w, "NOT_FOUND\r\n")
	}
}

// cmdIncrDecr parses: incr|decr <key> <delta> [noreply].
func (s *Server) cmdIncrDecr(c *connState, f [][]byte) {
	cache := c.cache
	noreply := hasNoreply(f, 3)
	reply := func(msg string) {
		if !noreply {
			io.WriteString(c.w, msg)
		}
	}
	if cache == nil || len(f) < 3 || len(f[1]) > MaxKeyLen {
		reply("CLIENT_ERROR bad command line format\r\n")
		return
	}
	delta, ok := parseUint(f[2])
	if !ok {
		reply("CLIENT_ERROR invalid numeric delta argument\r\n")
		return
	}
	if s.readonly.Load() {
		reply(readOnlyMsg)
		return
	}
	var v uint64
	var err error
	if f[0][0] == 'i' {
		v, err = cache.Incr(f[1], delta)
	} else {
		v, err = cache.Decr(f[1], delta)
	}
	switch {
	case err == nil:
		if !noreply {
			c.writeUint(v)
			c.writeCRLF()
		}
	case errors.Is(err, ErrNotFound):
		reply("NOT_FOUND\r\n")
	default:
		reply("CLIENT_ERROR cannot increment or decrement non-numeric value\r\n")
	}
}

// cmdTouch parses: touch <key> <exptime> [noreply].
func (s *Server) cmdTouch(c *connState, f [][]byte) {
	cache := c.cache
	noreply := hasNoreply(f, 3)
	reply := func(msg string) {
		if !noreply {
			io.WriteString(c.w, msg)
		}
	}
	if cache == nil || len(f) < 3 {
		reply("CLIENT_ERROR bad command line format\r\n")
		return
	}
	expRaw, ok := parseInt(f[2])
	if !ok {
		reply("CLIENT_ERROR invalid exptime argument\r\n")
		return
	}
	if s.readonly.Load() {
		reply(readOnlyMsg)
		return
	}
	if _, ok := cache.Touch(f[1], normalizeExp(expRaw, time.Now().Unix())); ok {
		reply("TOUCHED\r\n")
	} else {
		reply("NOT_FOUND\r\n")
	}
}

// cmdFlushAll parses: flush_all [delay] [noreply]. The flush itself is a
// durable index walk (Cache.FlushAll); on volatile comparator backends the
// command acknowledges without acting, as before.
func (s *Server) cmdFlushAll(c *connState, f [][]byte) {
	delay := int64(0)
	rest := f[1:]
	if len(rest) > 0 && string(rest[0]) != "noreply" {
		d, ok := parseInt(rest[0])
		if !ok || d < 0 {
			clientError(c, "invalid delay argument")
			return
		}
		delay = d
		rest = rest[1:]
	}
	noreply := len(rest) > 0 && string(rest[0]) == "noreply"
	if s.readonly.Load() {
		if !noreply {
			io.WriteString(c.w, readOnlyMsg)
		}
		return
	}
	s.flushAll(c, delay)
	if !noreply {
		io.WriteString(c.w, "OK\r\n")
	}
}

// flushAll runs flush_all for c now, or after delay seconds. The delayed
// flush runs on a timer goroutine, so it goes through the server's own
// handle: on c's it would write c's gate from outside c's goroutine.
func (s *Server) flushAll(c *connState, delay int64) {
	switch {
	case c.cache == nil: // comparator backends acknowledge without acting
	case delay == 0:
		c.cache.FlushAll()
	default:
		base := s.base()
		s.afterFunc(time.Duration(delay)*time.Second, func() { base.FlushAll() })
	}
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

func (s *Server) cmdStats(c *connState) {
	for _, r := range s.stats().rows() {
		c.w.WriteString("STAT ")
		c.w.WriteString(r.name)
		c.w.WriteByte(' ')
		c.w.WriteString(r.value)
		c.writeCRLF()
	}
	io.WriteString(c.w, "END\r\n")
}
