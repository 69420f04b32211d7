package memcache

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strconv"
)

// The text protocol: a decoder from command lines (and data blocks) to
// requests and an encoder from results to reply lines. Commands: set, add,
// replace, append, prepend, cas, get, gets, gat, gats, delete, incr, decr,
// touch, stats, flush_all, verbosity, version, quit, with noreply wherever
// the protocol has it.

// maxLineLen bounds a command line: 256 maximum-length keys in one
// multi-key retrieval. A longer line cannot be resynchronised, so it is
// answered (once the reader's buffer fills past the bound, or the line
// ends) and the connection closes.
const maxLineLen = 64 << 10

var errLineTooLong = errors.New("memcache: command line too long")

// readLine returns the next \n-terminated line with the line ending
// trimmed. The returned slice aliases the reader's buffer (or c.line for
// lines longer than that) and is valid only until the next read.
func (c *connState) readLine() ([]byte, error) {
	line, err := c.r.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return trimCRLF(line), err
	}
	if c.line == nil {
		c.line = make([]byte, 0, maxLineLen)
	}
	c.line = c.line[:0]
	for {
		if len(c.line)+len(line) > maxLineLen {
			return nil, errLineTooLong
		}
		c.line = append(c.line, line...)
		if err != bufio.ErrBufferFull {
			return trimCRLF(c.line), err
		}
		line, err = c.r.ReadSlice('\n')
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

// trailer checks the end of a command line of n fields plus an optional
// noreply: silent reports the noreply, ok that no field is missing and
// nothing else follows.
func trailer(f [][]byte, n int) (silent, ok bool) {
	silent = len(f) == n+1 && string(f[n]) == "noreply"
	return silent, len(f) == n || silent
}

// decodeText reads the next text command into req.
func (c *connState) decodeText(req *request) status {
	if len(req.more) > 0 { // the next key of a multi-key retrieval
		req.key, req.more = req.more[0], req.more[1:]
		return statusOK
	}
	*req = request{withKey: true}
	var line []byte
	for len(line) == 0 { // blank lines are skipped
		var err error
		if line, err = c.readLine(); err == errLineTooLong {
			return statusLineTooLong
		} else if err != nil {
			return statusEOF
		}
	}
	c.fields = splitFields(line, c.fields[:0])
	f := c.fields
	if len(f) == 0 {
		return statusUnknownCommand // a line of only spaces (fuzz-found panic)
	}
	switch string(f[0]) {
	case "get":
		req.op = opGet
	case "gets":
		req.op, req.withCAS = opGet, true
	case "gat":
		req.op = opGat
	case "gats":
		req.op, req.withCAS = opGat, true
	case "set":
		req.op = opSet
	case "add":
		req.op = opAdd
	case "replace":
		req.op = opReplace
	case "append":
		req.op = opAppend
	case "prepend":
		req.op = opPrepend
	case "cas":
		req.op = opCas
	case "delete":
		req.op = opDelete
	case "incr":
		req.op = opIncr
	case "decr":
		req.op = opDecr
	case "touch":
		req.op = opTouch
	case "flush_all":
		req.op = opFlushAll
	case "stats":
		req.op = opStats
	case "version":
		req.op = opVersion
	case "verbosity":
		req.op = opVerbosity
	case "quit":
		req.op = opQuit
	default:
		return statusUnknownCommand
	}

	ok := true
	switch req.op {
	case opGet: // get|gets <key>+
		if len(f) < 2 {
			return statusUnknownCommand
		}
		req.key, req.more = f[1], f[2:]
	case opGat: // gat|gats <exptime> <key>+
		if len(f) < 3 {
			return statusUnknownCommand
		}
		if req.exptime, ok = parseInt(f[1]); !ok {
			return statusBadExptime
		}
		req.key, req.more = f[2], f[3:]
	case opSet, opAdd, opReplace, opAppend, opPrepend, opCas:
		return c.decodeStore(req, f)
	case opDelete: // delete <key> [noreply]
		if req.silent, ok = trailer(f, 2); !ok {
			return statusBadFormat
		}
		req.key = f[1]
	case opIncr, opDecr: // incr|decr <key> <delta> [noreply]
		if req.silent, ok = trailer(f, 3); !ok {
			return statusBadFormat
		}
		if req.delta, ok = parseUint(f[2]); !ok {
			return statusBadDelta
		}
		req.key = f[1]
	case opTouch: // touch <key> <exptime> [noreply]
		if req.silent, ok = trailer(f, 3); !ok {
			return statusBadFormat
		}
		if req.exptime, ok = parseInt(f[2]); !ok {
			return statusBadExptime
		}
		req.key = f[1]
	case opFlushAll: // flush_all [delay] [noreply]
		n := 1
		if len(f) > 1 && string(f[1]) != "noreply" {
			if req.delay, ok = parseInt(f[1]); !ok || req.delay < 0 {
				return statusBadDelay
			}
			n = 2
		}
		if req.silent, ok = trailer(f, n); !ok {
			return statusBadFormat
		}
	case opVerbosity: // verbosity <level> [noreply]: accepted, does nothing
		req.silent, _ = trailer(f, 2)
	}
	return statusOK
}

// decodeStore reads the rest of
//
//	set|add|replace|append|prepend|cas <key> <flags> <exptime> <bytes> [<cas unique>] [noreply]\r\n<data>\r\n
//
// data block included. A header that is rejected with a byte count that
// parsed has its data block swallowed, so the connection stays in sync; with
// an unparseable count (or the wrong number of fields) the next line is
// read as a command: that client is already desynced.
func (c *connState) decodeStore(req *request, f [][]byte) status {
	n := 5
	if req.op == opCas {
		n = 6
	}
	var ok bool
	if req.silent, ok = trailer(f, n); !ok {
		return statusBadFormat
	}
	flags, okF := parseUint(f[2])
	exptime, okE := parseInt(f[3])
	size, okN := parseUint(f[4])
	okC := true
	if req.op == opCas {
		req.cas, okC = parseUint(f[5])
	}
	if !okN {
		return statusBadFormat
	}
	// What no item can hold is never buffered.
	if tooLarge := size > uint64(MaxValueLen); tooLarge || !okF || !okE || !okC || flags > 0xFFFF {
		if !discardN(c.r, int64(size)+2) {
			return statusEOF
		}
		if tooLarge {
			return statusTooLarge
		}
		return statusBadFormat
	}
	req.flags, req.exptime = uint16(flags), exptime
	// The fields alias the read buffer and the key must survive reading the
	// data block. A key past the limit is cut one byte past it: still
	// rejected by execute, never buffered whole.
	c.keyBuf = append(c.keyBuf[:0], f[1][:min(len(f[1]), MaxKeyLen+1)]...)
	req.key = c.keyBuf
	c.data = c.data[:size+2]
	if _, err := io.ReadFull(c.r, c.data); err != nil {
		return statusEOF
	}
	if c.data[size] != '\r' || c.data[size+1] != '\n' {
		return statusBadChunk
	}
	req.value = c.data[:size]
	return statusOK
}

// discardN swallows n bytes of payload without buffering them.
func discardN(r *bufio.Reader, n int64) bool {
	_, err := io.CopyN(io.Discard, r, n)
	return err == nil
}

// textStatus is the text rendering of every status but statusOK, whose
// reply depends on the command.
var textStatus = [...]string{
	statusNotFound:       "NOT_FOUND\r\n",
	statusNotStored:      "NOT_STORED\r\n",
	statusExists:         "EXISTS\r\n",
	statusTooLarge:       "SERVER_ERROR object too large for cache\r\n",
	statusNotNumber:      "CLIENT_ERROR cannot increment or decrement non-numeric value\r\n",
	statusBadFormat:      "CLIENT_ERROR bad command line format\r\n",
	statusBadChunk:       "CLIENT_ERROR bad data chunk\r\n",
	statusBadDelta:       "CLIENT_ERROR invalid numeric delta argument\r\n",
	statusBadExptime:     "CLIENT_ERROR invalid exptime argument\r\n",
	statusBadDelay:       "CLIENT_ERROR invalid delay argument\r\n",
	statusLineTooLong:    "CLIENT_ERROR line too long\r\n",
	statusUnknownCommand: "ERROR\r\n",
	statusReadOnly:       "SERVER_ERROR " + readOnlyMsg + "\r\n",
	statusUnsupported:    "SERVER_ERROR command not supported by this backend\r\n",
	statusOutOfMemory:    "SERVER_ERROR out of memory storing object\r\n",
}

// encodeText renders res as the reply to req; noreply suppresses all of it.
func (c *connState) encodeText(req *request, res *result) {
	switch {
	case req.silent:
	case req.op.retrieval() && res.status <= statusNotFound:
		// One optional VALUE block per key, END after the line's last:
		//
		//	VALUE <key> <flags> <bytes> [<cas>]\r\n<data>\r\n
		if res.status == statusOK {
			c.w.WriteString("VALUE ")
			c.w.Write(req.key)
			c.w.WriteByte(' ')
			c.writeUint(uint64(res.flags))
			c.w.WriteByte(' ')
			c.writeUint(uint64(len(res.value)))
			if req.withCAS {
				c.w.WriteByte(' ')
				c.writeUint(res.cas)
			}
			c.w.WriteString("\r\n")
			c.w.Write(res.value)
			c.w.WriteString("\r\n")
		}
		if len(req.more) == 0 {
			c.w.WriteString("END\r\n")
		}
	case res.status != statusOK:
		req.more = nil // an error answers the whole line
		c.w.WriteString(textStatus[res.status])
	case req.op == opIncr || req.op == opDecr:
		c.writeUint(res.number)
		c.w.WriteString("\r\n")
	case req.op == opStats:
		for _, r := range res.rows {
			c.w.WriteString("STAT " + r.name + " " + r.value + "\r\n")
		}
		c.w.WriteString("END\r\n")
	case req.op == opVersion:
		c.w.WriteString("VERSION " + serverVersion + "\r\n")
	case req.op == opDelete:
		c.w.WriteString("DELETED\r\n")
	case req.op == opTouch:
		c.w.WriteString("TOUCHED\r\n")
	case req.op == opFlushAll || req.op == opVerbosity:
		c.w.WriteString("OK\r\n")
	case req.op == opQuit:
	default:
		c.w.WriteString("STORED\r\n")
	}
}

// writeUint renders v in decimal without allocating.
func (c *connState) writeUint(v uint64) {
	c.w.Write(strconv.AppendUint(c.num[:0], v, 10))
}
