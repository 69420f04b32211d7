package memcache

import (
	"errors"
	"time"
)

// The one request path: a protocol's decoder fills the connection's request,
// execute runs it, the protocol's encoder renders the result (see Server).

// op is a command as the executor knows it, whichever protocol spelled it.
type op uint8

const (
	opUnknown op = iota
	opGet        // get, gets; GET, GETK. The keyed commands run from here to opTouch.
	opGat
	opSet
	opAdd
	opReplace
	opCas // text cas; binary SET and REPLACE carrying a cas
	opAppend
	opPrepend
	opDelete
	opIncr
	opDecr
	opTouch
	opFlushAll
	opStats
	opVersion
	opVerbosity
	opNoop
	opQuit
)

func (o op) keyed() bool     { return o >= opGet && o <= opTouch }
func (o op) retrieval() bool { return o == opGet || o == opGat }

// mutates lists the commands that write to the cache: what a read-only
// replica refuses. gat counts, it moves the expiry.
var mutates = [opQuit + 1]bool{
	opGat: true, opSet: true, opAdd: true, opReplace: true, opCas: true,
	opAppend: true, opPrepend: true, opDelete: true, opIncr: true,
	opDecr: true, opTouch: true, opFlushAll: true,
}

// request is one decoded command. Its slices alias the connection's buffers
// and are valid until the next decode.
type request struct {
	op      op
	silent  bool // text noreply, binary quiet opcode: what it suppresses is the encoder's business
	withKey bool // the reply to a retrieval carries the key
	withCAS bool // ... and the CAS unique
	create  bool // incr/decr seeds an absent key with initial
	flags   uint16
	key     []byte
	more    [][]byte // text multi-key retrieval: the keys after key, each decoded as the next request
	value   []byte
	exptime int64 // as on the wire; see normalizeExp
	cas     uint64
	delta   uint64
	initial uint64
	delay   int64 // flush_all, seconds

	opcode uint8 // binary: echoed in the response header
	opaque uint32
}

// status is the outcome of a request as both encoders understand it.
type status uint8

const (
	statusOK status = iota
	statusNotFound
	statusNotStored
	statusExists
	statusTooLarge
	statusNotNumber
	statusBadFormat // malformed command or key
	statusBadChunk
	statusBadDelta
	statusBadExptime
	statusBadDelay
	statusLineTooLong // answered, then the connection closes: framing is lost
	statusUnknownCommand
	statusReadOnly
	statusUnsupported
	statusOutOfMemory
	statusEOF // from a decoder only: the stream ended or lost framing, nothing to answer
)

// readOnlyMsg is what statusReadOnly tells the client on either protocol.
const readOnlyMsg = "replica is read-only"

// result is what a request produced, for the encoder to render.
type result struct {
	status status
	flags  uint16
	value  []byte
	cas    uint64
	number uint64    // incr, decr
	rows   []statRow // stats
}

// statusOf is the one mapping from a cache error to a wire status.
func statusOf(err error) status {
	switch {
	case err == nil:
		return statusOK
	case errors.Is(err, ErrNotFound):
		return statusNotFound
	case errors.Is(err, ErrNotStored):
		return statusNotStored
	case errors.Is(err, ErrCASConflict):
		return statusExists
	case errors.Is(err, ErrTooLarge):
		return statusTooLarge
	case errors.Is(err, ErrNotNumber):
		return statusNotNumber
	}
	return statusOutOfMemory
}

// relativeExpiryCutoff: per the memcached protocol, expiration times up to
// 30 days are relative to now; larger values are absolute unix timestamps.
const relativeExpiryCutoff = 60 * 60 * 24 * 30

// normalizeExp converts a wire exptime to the absolute unix deadline the
// cache stores: 0 = never, negative = already expired, <= 30 days =
// relative to now, else absolute. Only the relative forms read the clock.
func normalizeExp(exp int64) uint32 {
	switch {
	case exp == 0 || exp > relativeExpiryCutoff:
		return uint32(exp)
	case exp < 0:
		return uint32(time.Now().Unix() - 1)
	}
	return uint32(time.Now().Unix() + exp)
}

// execute runs one decoded request. Everything a request is subject to
// whatever its protocol is decided here and nowhere else: the read-only
// gate, the key and value limits, the exptime rule, which commands the
// backend has, and what a cache error means on the wire.
func (s *Server) execute(c *connState, req *request) (res result) {
	if mutates[req.op] && s.readonly.Load() {
		return result{status: statusReadOnly}
	}
	if req.op.keyed() {
		// A multi-key retrieval is checked whole, before any key is read.
		bad := len(req.key) == 0 || len(req.key) > MaxKeyLen
		for _, k := range req.more {
			bad = bad || len(k) > MaxKeyLen
		}
		if bad {
			return result{status: statusBadFormat}
		}
	}
	if len(req.value) > MaxValueLen {
		return result{status: statusTooLarge}
	}
	switch req.op {
	case opStats:
		return result{rows: s.stats().rows()}
	case opVersion, opVerbosity, opNoop, opQuit:
		return result{}
	}
	exp := normalizeExp(req.exptime)
	base := s.base()
	if base == nil {
		return executeKV(s.kv, req, exp)
	}
	// The connection's own handle on the server's cache: its mutations note
	// their replication seq in c.out instead of waiting, so the connection
	// waits once per flush (see ackGate).
	cache := Cache{cacheState: base.cacheState, gate: &c.out}
	var err error
	switch req.op {
	case opGet:
		var ok bool
		if res.value, res.flags, res.cas, ok = cache.Gets(req.key); !ok {
			err = ErrNotFound
		}
	case opGat:
		var ok bool
		if res.value, res.flags, res.cas, ok = cache.GetAndTouch(req.key, exp); !ok {
			err = ErrNotFound
		}
	case opSet:
		res.cas, err = cache.SetCAS(req.key, req.value, req.flags, exp)
	case opAdd:
		res.cas, err = cache.Add(req.key, req.value, req.flags, exp)
	case opReplace:
		res.cas, err = cache.Replace(req.key, req.value, req.flags, exp)
	case opCas:
		res.cas, err = cache.CompareAndSwap(req.key, req.value, req.flags, exp, req.cas)
	case opAppend:
		res.cas, err = cache.Append(req.key, req.value, req.cas)
	case opPrepend:
		res.cas, err = cache.Prepend(req.key, req.value, req.cas)
	case opDelete:
		err = cache.DeleteCAS(req.key, req.cas)
	case opIncr, opDecr:
		res.number, res.cas, err = cache.IncrDecrCAS(req.key, req.delta, req.initial, exp, req.create, req.op == opDecr)
	case opTouch:
		var ok bool
		if res.cas, ok = cache.Touch(req.key, exp); !ok {
			err = ErrNotFound
		}
	case opFlushAll:
		if req.delay == 0 {
			cache.FlushAll()
		} else {
			// A delayed flush runs on a timer goroutine, so it goes through
			// the server's own handle: on the connection's it would write
			// the connection's gate from outside the connection's goroutine.
			s.afterFunc(time.Duration(req.delay)*time.Second, func() { base.FlushAll() })
		}
	}
	res.status = statusOf(err)
	return res
}

// executeKV is the whole command set of a bare KV (the volatile
// comparators): set, get and delete; flush_all acknowledges without acting.
func executeKV(kv KV, req *request, exp uint32) (res result) {
	switch req.op {
	case opGet:
		var ok bool
		if res.value, res.flags, ok = kv.Get(req.key); !ok {
			res.status = statusNotFound
		}
	case opSet:
		res.status = statusOf(kv.Set(req.key, req.value, req.flags, exp))
	case opDelete:
		if !kv.Delete(req.key) {
			res.status = statusNotFound
		}
	case opFlushAll:
	default:
		res.status = statusUnsupported
	}
	return res
}
