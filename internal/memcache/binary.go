package memcache

import (
	"encoding/binary"
	"io"
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

	// binMaxBody is the largest body a storable request has (INCR's extras,
	// a key and a value at their limits) and all that is ever buffered.
	// Longer ones (bogus lengths from broken clients, fuzzers) are swallowed
	// unbuffered and answered with E2BIG, up to binInsaneBody where the
	// framing itself is untrustworthy and the connection closes.
	binMaxBody    = 20 + MaxKeyLen + MaxValueLen
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

// binShape is what the decoder knows of an opcode: the command it spells,
// whether it is the quiet variant, and the frame it must come in.
type binShape struct {
	op      op
	quiet   bool
	withKey bool  // GETK: the response echoes the key
	ext     uint8 // length of the extras
	value   bool  // the body may carry a value after the key
}

var binShapes = [...]binShape{
	binOpGet:      {op: opGet},
	binOpGetQ:     {op: opGet, quiet: true},
	binOpGetK:     {op: opGet, withKey: true},
	binOpGetKQ:    {op: opGet, withKey: true, quiet: true},
	binOpGAT:      {op: opGat, ext: 4},
	binOpGATQ:     {op: opGat, ext: 4, quiet: true},
	binOpTouch:    {op: opTouch, ext: 4},
	binOpSet:      {op: opSet, ext: 8, value: true},
	binOpSetQ:     {op: opSet, ext: 8, value: true, quiet: true},
	binOpAdd:      {op: opAdd, ext: 8, value: true},
	binOpAddQ:     {op: opAdd, ext: 8, value: true, quiet: true},
	binOpReplace:  {op: opReplace, ext: 8, value: true},
	binOpReplaceQ: {op: opReplace, ext: 8, value: true, quiet: true},
	binOpAppend:   {op: opAppend, value: true},
	binOpAppendQ:  {op: opAppend, value: true, quiet: true},
	binOpPrepend:  {op: opPrepend, value: true},
	binOpPrependQ: {op: opPrepend, value: true, quiet: true},
	binOpDelete:   {op: opDelete},
	binOpDeleteQ:  {op: opDelete, quiet: true},
	binOpIncr:     {op: opIncr, ext: 20},
	binOpIncrQ:    {op: opIncr, ext: 20, quiet: true},
	binOpDecr:     {op: opDecr, ext: 20},
	binOpDecrQ:    {op: opDecr, ext: 20, quiet: true},
	binOpFlush:    {op: opFlushAll, ext: 4}, // the delay, which may be left out
	binOpFlushQ:   {op: opFlushAll, ext: 4, quiet: true},
	binOpNoop:     {op: opNoop},
	binOpVersion:  {op: opVersion},
	binOpStat:     {op: opStats},
	binOpQuit:     {op: opQuit},
	binOpQuitQ:    {op: opQuit, quiet: true},
}

// binExptime reads a 32-bit wire exptime, negative values included.
func binExptime(b []byte) int64 { return int64(int32(binary.BigEndian.Uint32(b))) }

// decodeBinary reads the next request frame into req; key and value alias
// c.data.
func (c *connState) decodeBinary(req *request) status {
	hdr, err := c.r.Peek(binHeaderLen)
	if err != nil || hdr[0] != binMagicReq {
		return statusEOF // on a bad magic framing is lost: nothing sane to answer
	}
	keyLen := int(binary.BigEndian.Uint16(hdr[2:]))
	extLen := int(hdr[4])
	bodyLen := int(binary.BigEndian.Uint32(hdr[8:]))
	*req = request{
		opcode:  hdr[1],
		opaque:  binary.BigEndian.Uint32(hdr[12:]),
		cas:     binary.BigEndian.Uint64(hdr[16:]),
		withCAS: true,
	}
	c.r.Discard(binHeaderLen)
	if bodyLen < keyLen+extLen || bodyLen > binInsaneBody {
		return statusEOF
	}
	if bodyLen > binMaxBody {
		if !discardN(c.r, int64(bodyLen)) {
			return statusEOF
		}
		return statusTooLarge
	}
	c.data = c.data[:bodyLen]
	if _, err := io.ReadFull(c.r, c.data); err != nil {
		return statusEOF
	}
	ext := c.data[:extLen]
	req.key, req.value = c.data[extLen:extLen+keyLen], c.data[extLen+keyLen:]

	var sh binShape
	if int(req.opcode) < len(binShapes) {
		sh = binShapes[req.opcode]
	}
	req.op, req.silent, req.withKey = sh.op, sh.quiet, sh.withKey
	switch {
	case sh.op == opUnknown:
		return statusUnknownCommand
	case len(ext) != int(sh.ext) && !(sh.op == opFlushAll && len(ext) == 0),
		len(req.value) != 0 && !sh.value,
		sh.op == opAdd && req.cas != 0:
		return statusBadFormat
	}
	switch sh.op {
	case opSet, opAdd, opReplace:
		flags := binary.BigEndian.Uint32(ext)
		if flags > 0xFFFF {
			return statusBadFormat // item flags are stored 16-bit (README §Protocol)
		}
		req.flags, req.exptime = uint16(flags), binExptime(ext[4:])
		if req.cas != 0 {
			req.op = opCas // SET and REPLACE with a cas are compare-and-swap
		}
	case opGat, opTouch:
		req.exptime = binExptime(ext)
	case opIncr, opDecr:
		req.delta, req.initial = binary.BigEndian.Uint64(ext), binary.BigEndian.Uint64(ext[8:])
		// An exptime of all ones means: do not create an absent key.
		if req.create = binary.BigEndian.Uint32(ext[16:]) != 0xffffffff; req.create {
			req.exptime = binExptime(ext[16:])
		}
	case opFlushAll:
		if len(ext) == 4 {
			req.delay = int64(binary.BigEndian.Uint32(ext))
		}
	}
	return statusOK
}

// binStatus is the binary rendering of a status: the response's status code.
var binStatus = [...]uint16{
	statusOK:             binStatusOK,
	statusNotFound:       binStatusKeyNotFound,
	statusNotStored:      binStatusKeyNotFound, // KeyExists for ADD, as stock memcached
	statusExists:         binStatusKeyExists,
	statusTooLarge:       binStatusTooLarge,
	statusNotNumber:      binStatusDeltaBadval,
	statusBadFormat:      binStatusInvalidArgs,
	statusBadChunk:       binStatusInvalidArgs,
	statusBadDelta:       binStatusInvalidArgs,
	statusBadExptime:     binStatusInvalidArgs,
	statusBadDelay:       binStatusInvalidArgs,
	statusLineTooLong:    binStatusTooLarge,
	statusUnknownCommand: binStatusUnknownCmd,
	statusReadOnly:       binStatusNotStored,
	statusUnsupported:    binStatusUnknownCmd,
	statusOutOfMemory:    binStatusOOM,
}

// binHeader writes a response header: opcode and opaque echo the request.
func (c *connState) binHeader(req *request, code uint16, cas uint64, extLen, keyLen, bodyLen int) {
	hdr := c.num[:binHeaderLen]
	hdr[0], hdr[1] = binMagicRes, req.opcode
	binary.BigEndian.PutUint16(hdr[2:], uint16(keyLen))
	hdr[4], hdr[5] = uint8(extLen), 0
	binary.BigEndian.PutUint16(hdr[6:], code)
	binary.BigEndian.PutUint32(hdr[8:], uint32(extLen+keyLen+bodyLen))
	binary.BigEndian.PutUint32(hdr[12:], req.opaque)
	binary.BigEndian.PutUint64(hdr[16:], cas)
	c.w.Write(hdr)
}

// encodeBinary renders res as the response frame to req. A quiet opcode
// never suppresses an error: a pipeline of quiet ops ends with a NOOP that
// both flushes and delimits it.
func (c *connState) encodeBinary(req *request, res *result) {
	code := binStatus[res.status]
	if res.status == statusNotStored && req.op == opAdd {
		code = binStatusKeyExists
	}
	scratch := c.num[binHeaderLen : binHeaderLen+8]
	var key []byte
	if req.withKey && res.status <= statusNotFound {
		key = req.key // GETK echoes the key, hit or miss
	}
	switch {
	case req.silent && res.status == statusNotFound && req.op.retrieval(),
		req.silent && res.status == statusOK && !req.op.retrieval():
		// What a quiet opcode leaves unanswered: a retrieval its miss, the
		// rest their success.
	case code != binStatusOK:
		// The body is the status as text.
		msg := binStatusMsg(code)
		if res.status == statusReadOnly {
			msg = readOnlyMsg
		}
		c.binHeader(req, code, 0, 0, len(key), len(msg))
		c.w.Write(key)
		c.w.WriteString(msg)
	case req.op.retrieval():
		// Extras are the item's flags, the header's cas its unique.
		c.binHeader(req, code, res.cas, 4, len(key), len(res.value))
		binary.BigEndian.PutUint32(scratch, uint32(res.flags))
		c.w.Write(scratch[:4])
		c.w.Write(key)
		c.w.Write(res.value)
	case req.op == opIncr || req.op == opDecr:
		c.binHeader(req, code, res.cas, 0, 0, 8)
		binary.BigEndian.PutUint64(scratch, res.number)
		c.w.Write(scratch)
	case req.op == opStats:
		// One key/value packet per row, terminated by an empty packet.
		for _, r := range res.rows {
			c.binHeader(req, code, 0, 0, len(r.name), len(r.value))
			c.w.WriteString(r.name)
			c.w.WriteString(r.value)
		}
		c.binHeader(req, code, 0, 0, 0, 0)
	case req.op == opVersion:
		c.binHeader(req, code, 0, 0, 0, len(serverVersion))
		c.w.WriteString(serverVersion)
	default:
		c.binHeader(req, code, res.cas, 0, 0, 0)
	}
}
