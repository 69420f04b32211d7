package memcache

import (
	"encoding/binary"
	"errors"
	"io"
	"time"
)

// The memcached binary protocol: 24-byte big-endian framed requests (magic
// 0x80) and responses (magic 0x81), with the same CAS semantics as the text
// protocol and the quiet (pipelined) opcode variants. Responses echo the
// request opaque verbatim; quiet ops suppress their success (and, for
// GETQ/GETKQ/GATQ, their miss) responses, so a pipeline of quiet ops ends
// with a NOOP that both flushes and delimits it.
//
//	byte/     0       |       1       |       2       |       3       |
//	   0| magic       | opcode        | key length                    |
//	   4| extras len  | data type     | vbucket id / status           |
//	   8| total body length                                           |
//	  12| opaque                                                      |
//	  16| cas                                                         |

const (
	binMagicReq = 0x80
	binMagicRes = 0x81

	binHeaderLen = 24

	// binMaxBody bounds a request body we are willing to buffer; larger
	// frames (bogus lengths from broken clients, fuzzers) are swallowed
	// without buffering and answered with E2BIG, up to binInsaneBody where
	// the framing itself is untrustworthy and the connection closes.
	binMaxBody    = 1 << 20
	binInsaneBody = 64 << 20
)

// Request opcodes.
const (
	binOpGet      = 0x00
	binOpSet      = 0x01
	binOpAdd      = 0x02
	binOpReplace  = 0x03
	binOpDelete   = 0x04
	binOpIncr     = 0x05
	binOpDecr     = 0x06
	binOpQuit     = 0x07
	binOpFlush    = 0x08
	binOpGetQ     = 0x09
	binOpNoop     = 0x0a
	binOpVersion  = 0x0b
	binOpGetK     = 0x0c
	binOpGetKQ    = 0x0d
	binOpAppend   = 0x0e
	binOpPrepend  = 0x0f
	binOpStat     = 0x10
	binOpSetQ     = 0x11
	binOpAddQ     = 0x12
	binOpReplaceQ = 0x13
	binOpDeleteQ  = 0x14
	binOpIncrQ    = 0x15
	binOpDecrQ    = 0x16
	binOpQuitQ    = 0x17
	binOpFlushQ   = 0x18
	binOpAppendQ  = 0x19
	binOpPrependQ = 0x1a
	binOpTouch    = 0x1c
	binOpGAT      = 0x1d
	binOpGATQ     = 0x1e
)

// Response status codes.
const (
	binStatusOK          = 0x0000
	binStatusKeyNotFound = 0x0001
	binStatusKeyExists   = 0x0002
	binStatusTooLarge    = 0x0003
	binStatusInvalidArgs = 0x0004
	binStatusNotStored   = 0x0005
	binStatusDeltaBadval = 0x0006
	binStatusUnknownCmd  = 0x0081
	binStatusOOM         = 0x0082
)

func binStatusMsg(status uint16) string {
	switch status {
	case binStatusKeyNotFound:
		return "Not found"
	case binStatusKeyExists:
		return "Data exists for key."
	case binStatusTooLarge:
		return "Too large."
	case binStatusInvalidArgs:
		return "Invalid arguments"
	case binStatusNotStored:
		return "Not stored."
	case binStatusDeltaBadval:
		return "Non-numeric server-side value for incr or decr"
	case binStatusUnknownCmd:
		return "Unknown command"
	case binStatusOOM:
		return "Out of memory"
	}
	return ""
}

// binReq is one decoded request frame. Key/ext/value alias c.data.
type binReq struct {
	op     uint8
	opaque uint32
	cas    uint64
	ext    []byte
	key    []byte
	value  []byte
}

// quietOf maps a quiet opcode to (base opcode, true); non-quiet ops map to
// themselves.
func quietOf(op uint8) (uint8, bool) {
	switch op {
	case binOpGetQ:
		return binOpGet, true
	case binOpGetKQ:
		return binOpGetK, true
	case binOpSetQ:
		return binOpSet, true
	case binOpAddQ:
		return binOpAdd, true
	case binOpReplaceQ:
		return binOpReplace, true
	case binOpDeleteQ:
		return binOpDelete, true
	case binOpIncrQ:
		return binOpIncr, true
	case binOpDecrQ:
		return binOpDecr, true
	case binOpQuitQ:
		return binOpQuit, true
	case binOpFlushQ:
		return binOpFlush, true
	case binOpAppendQ:
		return binOpAppend, true
	case binOpPrependQ:
		return binOpPrepend, true
	case binOpGATQ:
		return binOpGAT, true
	}
	return op, false
}

// binRespond writes one response frame. ext/key/val may be nil.
func (c *connState) binRespond(op uint8, status uint16, opaque uint32, cas uint64, ext, key, val []byte) {
	var hdr [binHeaderLen]byte
	hdr[0] = binMagicRes
	hdr[1] = op
	binary.BigEndian.PutUint16(hdr[2:], uint16(len(key)))
	hdr[4] = uint8(len(ext))
	binary.BigEndian.PutUint16(hdr[6:], status)
	binary.BigEndian.PutUint32(hdr[8:], uint32(len(ext)+len(key)+len(val)))
	binary.BigEndian.PutUint32(hdr[12:], opaque)
	binary.BigEndian.PutUint64(hdr[16:], cas)
	c.w.Write(hdr[:])
	c.w.Write(ext)
	c.w.Write(key)
	c.w.Write(val)
}

// binError responds with a status code and its textual message as the body.
func (c *connState) binError(op uint8, status uint16, opaque uint32) {
	c.binRespond(op, status, opaque, 0, nil, nil, []byte(binStatusMsg(status)))
}

func (s *Server) serveBinary(c *connState) {
	for {
		var hdr [binHeaderLen]byte
		if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
			return
		}
		if hdr[0] != binMagicReq {
			return // framing lost; nothing sane to answer
		}
		keyLen := int(binary.BigEndian.Uint16(hdr[2:]))
		extLen := int(hdr[4])
		bodyLen := int64(binary.BigEndian.Uint32(hdr[8:]))
		req := binReq{
			op:     hdr[1],
			opaque: binary.BigEndian.Uint32(hdr[12:]),
			cas:    binary.BigEndian.Uint64(hdr[16:]),
		}
		if bodyLen < int64(keyLen+extLen) || bodyLen > binInsaneBody {
			return
		}
		if bodyLen > binMaxBody {
			if !discardN(c.r, bodyLen) {
				return
			}
			c.binError(req.op, binStatusTooLarge, req.opaque)
			if c.maybeFlush() != nil {
				return
			}
			continue
		}
		if cap(c.data) < int(bodyLen) {
			c.data = make([]byte, bodyLen)
		}
		c.data = c.data[:bodyLen]
		if _, err := io.ReadFull(c.r, c.data); err != nil {
			return
		}
		req.ext = c.data[:extLen]
		req.key = c.data[extLen : extLen+keyLen]
		req.value = c.data[extLen+keyLen:]
		if !s.dispatchBinary(c, &req) {
			return
		}
		if c.maybeFlush() != nil {
			return
		}
	}
}

// binMutates reports whether a (base) opcode writes to the cache — the set
// gated while the server is a read-only replica. GAT counts: it mutates
// the expiry.
func binMutates(op uint8) bool {
	switch op {
	case binOpSet, binOpAdd, binOpReplace, binOpAppend, binOpPrepend,
		binOpDelete, binOpIncr, binOpDecr, binOpTouch, binOpGAT, binOpFlush:
		return true
	}
	return false
}

// binWellFormed checks a keyed request's shape: the extras length its
// (base) opcode requires, a key of legal length, and no value unless the
// opcode stores one.
func binWellFormed(op uint8, req *binReq) bool {
	ext, value := 0, false
	switch op {
	case binOpGet, binOpGetK, binOpDelete:
	case binOpGAT, binOpTouch:
		ext = 4
	case binOpSet, binOpAdd, binOpReplace:
		ext, value = 8, true
	case binOpAppend, binOpPrepend:
		value = true
	case binOpIncr, binOpDecr:
		ext = 20
	default:
		return true
	}
	return len(req.ext) == ext && len(req.key) != 0 && len(req.key) <= MaxKeyLen &&
		(value || len(req.value) == 0)
}

// dispatchBinary runs one request; false ends the connection.
func (s *Server) dispatchBinary(c *connState, req *binReq) bool {
	op, quiet := quietOf(req.op)
	cache := c.cache
	now := time.Now().Unix()
	if s.readonly.Load() && binMutates(op) {
		// The body is already consumed, so the connection stays in sync.
		// Errors are sent even for quiet variants, per the binary contract.
		c.binRespond(req.op, binStatusNotStored, req.opaque, 0, nil, nil, []byte("replica is read-only"))
		return true
	}
	if !binWellFormed(op, req) {
		c.binError(req.op, binStatusInvalidArgs, req.opaque)
		return true
	}
	switch op {
	case binOpGet, binOpGetK:
		s.binGet(c, req, cache, op == binOpGetK, quiet, 0, false)

	case binOpGAT:
		exp := normalizeExp(int64(int32(binary.BigEndian.Uint32(req.ext))), now)
		s.binGet(c, req, cache, false, quiet, exp, true)

	case binOpSet, binOpAdd, binOpReplace:
		flags := binary.BigEndian.Uint32(req.ext)
		if flags > 0xFFFF {
			// Item flags are stored 16-bit (see README §Protocol).
			c.binError(req.op, binStatusInvalidArgs, req.opaque)
			return true
		}
		exp := normalizeExp(int64(int32(binary.BigEndian.Uint32(req.ext[4:]))), now)
		s.binStore(c, req, cache, op, uint16(flags), exp, quiet)

	case binOpAppend, binOpPrepend:
		if cache == nil {
			c.binError(req.op, binStatusUnknownCmd, req.opaque)
			return true
		}
		var cas uint64
		var err error
		if op == binOpAppend {
			cas, err = cache.Append(req.key, req.value, req.cas)
		} else {
			cas, err = cache.Prepend(req.key, req.value, req.cas)
		}
		s.binMutationResult(c, req, cas, nil, err, quiet)

	case binOpDelete:
		var err error
		if cache != nil {
			err = cache.DeleteCAS(req.key, req.cas)
		} else if !c.kv.Delete(req.key) {
			err = ErrNotFound
		}
		s.binMutationResult(c, req, 0, nil, err, quiet)

	case binOpIncr, binOpDecr:
		if cache == nil {
			c.binError(req.op, binStatusUnknownCmd, req.opaque)
			return true
		}
		delta := binary.BigEndian.Uint64(req.ext)
		initial := binary.BigEndian.Uint64(req.ext[8:])
		expRaw := binary.BigEndian.Uint32(req.ext[16:])
		create := expRaw != 0xffffffff
		exp := uint32(0)
		if create {
			exp = normalizeExp(int64(int32(expRaw)), now)
		}
		v, cas, err := cache.IncrDecrCAS(req.key, delta, initial, exp, create, op == binOpDecr)
		var body [8]byte
		binary.BigEndian.PutUint64(body[:], v)
		s.binMutationResult(c, req, cas, body[:], err, quiet)

	case binOpTouch:
		if cache == nil {
			c.binError(req.op, binStatusUnknownCmd, req.opaque)
			return true
		}
		exp := normalizeExp(int64(int32(binary.BigEndian.Uint32(req.ext))), now)
		if cas, ok := cache.Touch(req.key, exp); ok {
			c.binRespond(req.op, binStatusOK, req.opaque, cas, nil, nil, nil)
		} else {
			c.binError(req.op, binStatusKeyNotFound, req.opaque)
		}

	case binOpNoop:
		c.binRespond(req.op, binStatusOK, req.opaque, 0, nil, nil, nil)

	case binOpVersion:
		c.binRespond(req.op, binStatusOK, req.opaque, 0, nil, nil, []byte(serverVersion))

	case binOpStat:
		s.binStats(c, req)

	case binOpFlush:
		var delay int64
		if len(req.ext) == 4 {
			delay = int64(binary.BigEndian.Uint32(req.ext))
		} else if len(req.ext) != 0 {
			c.binError(req.op, binStatusInvalidArgs, req.opaque)
			return true
		}
		s.flushAll(c, delay)
		if !quiet {
			c.binRespond(req.op, binStatusOK, req.opaque, 0, nil, nil, nil)
		}

	case binOpQuit:
		if !quiet {
			c.binRespond(req.op, binStatusOK, req.opaque, 0, nil, nil, nil)
		}
		return false

	default:
		c.binError(req.op, binStatusUnknownCmd, req.opaque)
	}
	return true
}

// binGet serves GET/GETK/GETQ/GETKQ/GAT/GATQ: response extras are the item
// flags (4 bytes), the response cas is the item's unique, and GETK echoes
// the key. Quiet misses are suppressed.
func (s *Server) binGet(c *connState, req *binReq, cache *Cache, withKey, quiet bool, exp uint32, touch bool) {
	var (
		v     []byte
		flags uint16
		cas   uint64
		ok    bool
	)
	switch {
	case cache == nil:
		v, flags, ok = c.kv.Get(req.key)
	case touch:
		v, flags, cas, ok = cache.GetAndTouch(req.key, exp)
	default:
		v, flags, cas, ok = cache.Gets(req.key)
	}
	if !ok {
		if !quiet {
			if withKey {
				c.binRespond(req.op, binStatusKeyNotFound, req.opaque, 0, nil, req.key, []byte(binStatusMsg(binStatusKeyNotFound)))
			} else {
				c.binError(req.op, binStatusKeyNotFound, req.opaque)
			}
		}
		return
	}
	var ext [4]byte
	binary.BigEndian.PutUint32(ext[:], uint32(flags))
	key := []byte(nil)
	if withKey {
		key = req.key
	}
	c.binRespond(req.op, binStatusOK, req.opaque, cas, ext[:], key, v)
}

// binStore serves SET/ADD/REPLACE (+quiet): a nonzero request cas turns SET
// and REPLACE into compare-and-swap; ADD requires cas 0.
func (s *Server) binStore(c *connState, req *binReq, cache *Cache, op uint8, flags uint16, exp uint32, quiet bool) {
	var cas uint64
	var err error
	switch {
	case cache == nil:
		if op == binOpSet && req.cas == 0 {
			err = c.kv.Set(req.key, req.value, flags, exp)
		} else {
			c.binError(req.op, binStatusUnknownCmd, req.opaque)
			return
		}
	case op == binOpAdd:
		if req.cas != 0 {
			c.binError(req.op, binStatusInvalidArgs, req.opaque)
			return
		}
		cas, err = cache.Add(req.key, req.value, flags, exp)
	case req.cas != 0: // SET/REPLACE with cas
		cas, err = cache.CompareAndSwap(req.key, req.value, flags, exp, req.cas)
	case op == binOpSet:
		cas, err = cache.SetCAS(req.key, req.value, flags, exp)
	default: // REPLACE
		cas, err = cache.Replace(req.key, req.value, flags, exp)
	}
	s.binMutationResult(c, req, cas, nil, err, quiet)
}

// binMutationResult maps a cache mutation error to the wire status. The
// text protocol's NOT_STORED split: for binary, add-on-present and
// replace/append/prepend-on-absent both report their distinct statuses.
func (s *Server) binMutationResult(c *connState, req *binReq, cas uint64, body []byte, err error, quiet bool) {
	switch {
	case err == nil:
		if !quiet {
			c.binRespond(req.op, binStatusOK, req.opaque, cas, nil, nil, body)
		}
	case errors.Is(err, ErrCASConflict):
		c.binError(req.op, binStatusKeyExists, req.opaque)
	case errors.Is(err, ErrNotFound):
		c.binError(req.op, binStatusKeyNotFound, req.opaque)
	case errors.Is(err, ErrNotStored):
		// add on an existing key reports "exists"; replace/append/prepend
		// on a missing key report "not found", as stock memcached does.
		if req.op == binOpAdd || req.op == binOpAddQ {
			c.binError(req.op, binStatusKeyExists, req.opaque)
		} else {
			c.binError(req.op, binStatusKeyNotFound, req.opaque)
		}
	case errors.Is(err, ErrTooLarge):
		c.binError(req.op, binStatusTooLarge, req.opaque)
	case errors.Is(err, ErrNotNumber):
		c.binError(req.op, binStatusDeltaBadval, req.opaque)
	default:
		c.binError(req.op, binStatusOOM, req.opaque)
	}
}

// binStats emits the stats rows as key/value packets, terminated by an
// empty packet, per the binary STAT contract.
func (s *Server) binStats(c *connState, req *binReq) {
	for _, r := range s.stats().rows() {
		c.binRespond(req.op, binStatusOK, req.opaque, 0, nil, []byte(r.name), []byte(r.value))
	}
	c.binRespond(req.op, binStatusOK, req.opaque, 0, nil, nil, nil)
}
