// Package repl is NV-Memcached's warm-standby replication channel: a
// logical op stream from a primary to followers over TCP. The stream is a
// replication channel, NOT a recovery dependency — the log-free design
// recovers a single node from its own NVRAM image; repl exists so a
// MACHINE loss does not lose the service (ROADMAP "Replication for
// failover", adapting the AOF-with-configurable-sync idiom to the log-free
// world).
//
// Wire format: length-prefixed CRC-framed records,
//
//	[4B payload length][4B CRC-32C of payload][payload]
//
// where every payload carries the same fixed header regardless of type —
//
//	[1B type][8B seq][2B flags][8B aux][4B klen][4B vlen][key][value]
//
// — so one encoder/decoder covers the whole protocol and the decoder is a
// single, easily fuzzed surface. The CRC is over the payload, so a
// truncated, bit-flipped, or mis-framed record fails loudly instead of
// mis-applying; the decoder never panics on hostile input (FuzzReplStream).
//
// Record types and their field use:
//
//	Hello      follower→primary  seq = last applied seq, aux = known runID
//	Welcome    primary→follower  seq = stream start, aux = runID,
//	                             flags = ModeSnapshot | ModeResume
//	SnapItem   primary→follower  flags/aux/key/value = one item, verbatim
//	SnapEnd    primary→follower  seq = item count (informational)
//	Set        primary→follower  seq + the item exactly as stored (flags,
//	                             aux carrying CAS unique and expiry)
//	Delete     primary→follower  seq + key
//	Heartbeat  primary→follower  seq = primary's current frontier
//	Ack        follower→primary  seq = follower's applied-and-durable seq
//
// Followers are byte-faithful: Set/SnapItem carry the item's aux word
// verbatim, so the follower's CAS uniques and expiry deadlines are the
// primary's, bit for bit.
package repl

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Record types. Zero is deliberately invalid.
const (
	TypeHello byte = iota + 1
	TypeWelcome
	TypeSnapItem
	TypeSnapEnd
	TypeSet
	TypeDelete
	TypeHeartbeat
	TypeAck

	typeMax = TypeAck
)

// Welcome modes (in Record.Flags).
const (
	ModeSnapshot uint16 = 0
	ModeResume   uint16 = 1
)

const (
	// payloadHeaderLen is the fixed prefix of every payload:
	// type(1) + seq(8) + flags(2) + aux(8) + klen(4) + vlen(4).
	payloadHeaderLen = 1 + 8 + 2 + 8 + 4 + 4

	// frameHeaderLen prefixes every frame: payload length + CRC-32C.
	frameHeaderLen = 4 + 4

	// MaxFrame bounds a payload we are willing to buffer. Items are capped
	// far below this (memcache.MaxValueLen is under 2 KiB); anything larger is a
	// corrupt or hostile length field.
	MaxFrame = 8 << 20
)

// ErrCorrupt reports a frame that failed structural validation or its CRC.
// The connection is unrecoverable past it (framing is lost).
var ErrCorrupt = errors.New("repl: corrupt frame")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one replication protocol record. Field meaning varies by Type
// (see the package comment). Key and Value returned by Reader.ReadRecord
// alias the reader's scratch buffer and are valid only until the next read.
type Record struct {
	Type  byte
	Seq   uint64
	Flags uint16
	Aux   uint64
	Key   []byte
	Value []byte
}

// Writer encodes records onto a stream. Not safe for concurrent use.
type Writer struct {
	w   *bufio.Writer
	buf []byte
}

// NewWriter wraps w in a buffering record encoder. Call Flush to push
// batched records to the underlying stream.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 64<<10)}
}

// WriteRecord appends one encoded record to the write buffer.
func (w *Writer) WriteRecord(r *Record) error {
	plen := payloadHeaderLen + len(r.Key) + len(r.Value)
	if plen > MaxFrame {
		return fmt.Errorf("repl: record too large (%d bytes)", plen)
	}
	need := frameHeaderLen + plen
	if cap(w.buf) < need {
		w.buf = make([]byte, need)
	}
	b := w.buf[:need]
	binary.BigEndian.PutUint32(b[0:], uint32(plen))
	p := b[frameHeaderLen:]
	p[0] = r.Type
	binary.BigEndian.PutUint64(p[1:], r.Seq)
	binary.BigEndian.PutUint16(p[9:], r.Flags)
	binary.BigEndian.PutUint64(p[11:], r.Aux)
	binary.BigEndian.PutUint32(p[19:], uint32(len(r.Key)))
	binary.BigEndian.PutUint32(p[23:], uint32(len(r.Value)))
	copy(p[payloadHeaderLen:], r.Key)
	copy(p[payloadHeaderLen+len(r.Key):], r.Value)
	binary.BigEndian.PutUint32(b[4:], crc32.Checksum(p, castagnoli))
	_, err := w.w.Write(b)
	return err
}

// Flush pushes buffered records to the underlying stream.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader decodes records from a stream. Not safe for concurrent use.
type Reader struct {
	r   *bufio.Reader
	buf []byte
}

// NewReader wraps r in a buffering record decoder.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 64<<10)}
}

// Buffered reports how many decoded-but-unread bytes are pending — the
// follower's ack-coalescing signal (ack only when the pipe runs dry).
func (r *Reader) Buffered() int { return r.r.Buffered() }

// ReadRecord decodes the next record into rec. rec.Key/rec.Value alias the
// reader's scratch buffer: copy them to retain past the next call. Returns
// io.EOF at a clean stream end, ErrCorrupt (wrapped) on a frame that fails
// validation, and io.ErrUnexpectedEOF on truncation mid-frame.
func (r *Reader) ReadRecord(rec *Record) error {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r.r, hdr[:1]); err != nil {
		return err // clean EOF between frames stays io.EOF
	}
	if _, err := io.ReadFull(r.r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	plen := int(binary.BigEndian.Uint32(hdr[0:]))
	wantCRC := binary.BigEndian.Uint32(hdr[4:])
	if plen < payloadHeaderLen || plen > MaxFrame {
		return fmt.Errorf("%w: payload length %d", ErrCorrupt, plen)
	}
	if cap(r.buf) < plen {
		r.buf = make([]byte, plen)
	}
	p := r.buf[:plen]
	if _, err := io.ReadFull(r.r, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	if crc32.Checksum(p, castagnoli) != wantCRC {
		return fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	typ := p[0]
	if typ == 0 || typ > typeMax {
		return fmt.Errorf("%w: unknown record type %d", ErrCorrupt, typ)
	}
	klen := int(binary.BigEndian.Uint32(p[19:]))
	vlen := int(binary.BigEndian.Uint32(p[23:]))
	if klen < 0 || vlen < 0 || payloadHeaderLen+klen+vlen != plen {
		return fmt.Errorf("%w: field lengths %d+%d disagree with payload %d", ErrCorrupt, klen, vlen, plen)
	}
	rec.Type = typ
	rec.Seq = binary.BigEndian.Uint64(p[1:])
	rec.Flags = binary.BigEndian.Uint16(p[9:])
	rec.Aux = binary.BigEndian.Uint64(p[11:])
	rec.Key = p[payloadHeaderLen : payloadHeaderLen+klen]
	rec.Value = p[payloadHeaderLen+klen : plen]
	return nil
}
