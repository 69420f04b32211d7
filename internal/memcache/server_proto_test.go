package memcache

// Protocol conformance suite: byte-exact coverage of the text command set
// (including the spec error strings) and a binary-protocol twin with exact
// frame checks, each run over both the in-process MemBackend and the
// file-backed FileBackend. CAS uniques are deterministic on a fresh cache
// (each item's sequence starts at 1), so expected responses can spell them
// out literally.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/logfree"
)

// protoBackends enumerates the storage backends the conformance tables run
// over.
var protoBackends = []string{"mem", "file"}

func newProtoCache(t *testing.T, backend string) *Cache {
	t.Helper()
	cfg := Config{MemoryBytes: 32 << 20, Buckets: 1 << 10, MaxConns: 4}
	if backend == "file" {
		cfg.Device = logfree.FileDevice(filepath.Join(t.TempDir(), "proto.pmem"))
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if backend == "file" {
		t.Cleanup(func() { m.Close() })
	}
	return m
}

func newProtoConn(t *testing.T, backend string) net.Conn {
	t.Helper()
	m := newProtoCache(t, backend)
	_, conn := serveKV(t, m, m.Stats)
	return conn
}

// serveKV starts a server on kv and dials one connection to it.
func serveKV(t *testing.T, kv KV, stats func() Stats) (*Server, net.Conn) {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", 4, kv, stats)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, dialProto(t, srv)
}

func dialProto(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	return conn
}

// protoStep is one request/response exchange: raw bytes out, exact raw
// bytes expected back ("" = no response expected for this step).
type protoStep struct {
	send string
	want string
}

// runTextScript sends every step and then compares the full concatenated
// response byte-exactly, so missing AND extra bytes both fail.
func runTextScript(t *testing.T, backend string, steps []protoStep) {
	t.Helper()
	runTextSteps(t, newProtoConn(t, backend), steps)
}

func runTextSteps(t *testing.T, conn net.Conn, steps []protoStep) {
	t.Helper()
	var want strings.Builder
	for _, st := range steps {
		if _, err := conn.Write([]byte(st.send)); err != nil {
			t.Fatal(err)
		}
		want.WriteString(st.want)
	}
	expectExact(t, conn, []byte(want.String()))
}

// expectExact reads exactly len(want) bytes and requires them equal, then
// verifies no extra bytes follow.
func expectExact(t *testing.T, conn net.Conn, want []byte) {
	t.Helper()
	got := make([]byte, len(want))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("short response: %v\ngot so far: %q\nwant:       %q", err, got, want)
	}
	if !bytes.Equal(got, want) {
		// Find the first divergence for a readable failure.
		i := 0
		for i < len(got) && got[i] == want[i] {
			i++
		}
		t.Fatalf("response diverges at byte %d:\ngot:  %q\nwant: %q", i, got, want)
	}
	conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	var extra [64]byte
	if n, _ := conn.Read(extra[:]); n > 0 {
		t.Fatalf("unexpected extra bytes: %q", extra[:n])
	}
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
}

func TestTextConformance(t *testing.T) {
	longTextKey := strings.Repeat("k", MaxKeyLen+1)
	cases := []struct {
		name  string
		steps []protoStep
	}{
		{"set_get_delete", []protoStep{
			{"set foo 3 0 5\r\nhello\r\n", "STORED\r\n"},
			{"get foo\r\n", "VALUE foo 3 5\r\nhello\r\nEND\r\n"},
			{"delete foo\r\n", "DELETED\r\n"},
			{"get foo\r\n", "END\r\n"},
			{"delete foo\r\n", "NOT_FOUND\r\n"},
		}},
		{"add_replace", []protoStep{
			{"add k 0 0 2\r\nv1\r\n", "STORED\r\n"},
			{"add k 0 0 2\r\nv2\r\n", "NOT_STORED\r\n"},
			{"replace k 1 0 2\r\nv3\r\n", "STORED\r\n"},
			{"get k\r\n", "VALUE k 1 2\r\nv3\r\nEND\r\n"},
			{"replace missing 0 0 1\r\nx\r\n", "NOT_STORED\r\n"},
		}},
		{"append_prepend", []protoStep{
			{"append missing 0 0 1\r\nx\r\n", "NOT_STORED\r\n"},
			{"prepend missing 0 0 1\r\nx\r\n", "NOT_STORED\r\n"},
			{"set k 7 0 3\r\nmid\r\n", "STORED\r\n"},
			{"append k 0 0 4\r\n-end\r\n", "STORED\r\n"},
			{"prepend k 0 0 4\r\npre-\r\n", "STORED\r\n"},
			// flags survive concatenation, per the spec
			{"get k\r\n", "VALUE k 7 11\r\npre-mid-end\r\nEND\r\n"},
		}},
		{"cas_lifecycle", []protoStep{
			{"set k 0 0 2\r\nv1\r\n", "STORED\r\n"},
			// fresh item: cas unique 1
			{"gets k\r\n", "VALUE k 0 2 1\r\nv1\r\nEND\r\n"},
			{"cas k 0 0 2 1\r\nv2\r\n", "STORED\r\n"},
			// stale token now
			{"cas k 0 0 2 1\r\nv3\r\n", "EXISTS\r\n"},
			{"gets k\r\n", "VALUE k 0 2 2\r\nv2\r\nEND\r\n"},
			{"cas missing 0 0 1 1\r\nx\r\n", "NOT_FOUND\r\n"},
		}},
		{"gets_multi", []protoStep{
			{"set a 1 0 1\r\nA\r\n", "STORED\r\n"},
			{"set b 2 0 1\r\nB\r\n", "STORED\r\n"},
			{"gets a missing b\r\n", "VALUE a 1 1 1\r\nA\r\nVALUE b 2 1 1\r\nB\r\nEND\r\n"},
		}},
		{"incr_decr", []protoStep{
			{"set n 0 0 2\r\n10\r\n", "STORED\r\n"},
			{"incr n 5\r\n", "15\r\n"},
			{"decr n 20\r\n", "0\r\n"}, // floored at zero
			{"incr missing 1\r\n", "NOT_FOUND\r\n"},
			{"set s 0 0 3\r\nabc\r\n", "STORED\r\n"},
			{"incr s 1\r\n", "CLIENT_ERROR cannot increment or decrement non-numeric value\r\n"},
			{"incr n bogus\r\n", "CLIENT_ERROR invalid numeric delta argument\r\n"},
		}},
		{"touch_gat", []protoStep{
			{"set k 5 0 3\r\nval\r\n", "STORED\r\n"},
			{"touch k 100\r\n", "TOUCHED\r\n"},
			{"touch missing 0\r\n", "NOT_FOUND\r\n"},
			// gat returns the value; gats adds the (bumped) cas unique
			{"gat 100 k missing\r\n", "VALUE k 5 3\r\nval\r\nEND\r\n"},
			{"gats 100 k\r\n", "VALUE k 5 3 4\r\nval\r\nEND\r\n"},
		}},
		{"flush_verbosity_version", []protoStep{
			{"set k 0 0 1\r\nv\r\n", "STORED\r\n"},
			{"verbosity 1\r\n", "OK\r\n"},
			{"verbosity 1 noreply\r\n", ""},
			{"flush_all\r\n", "OK\r\n"},
			{"get k\r\n", "END\r\n"},
			{"flush_all 100\r\n", "OK\r\n"},
			{"flush_all noreply\r\n", ""},
			{"version\r\n", "VERSION " + serverVersion + "\r\n"},
		}},
		{"noreply_pipelining", []protoStep{
			{"set a 0 0 1 noreply\r\nA\r\nset b 0 0 1 noreply\r\nB\r\ndelete a noreply\r\nincr b 1 noreply\r\ntouch b 0 noreply\r\nget a b\r\n",
				"VALUE b 0 1\r\nB\r\nEND\r\n"},
		}},
		{"errors", []protoStep{
			{"bogus\r\n", "ERROR\r\n"},
			// whitespace-only line: no command token (fuzz-found panic)
			{" \r\n", "ERROR\r\n"},
			{"   \r\n", "ERROR\r\n"},
			{"set onlykey\r\n", "CLIENT_ERROR bad command line format\r\n"},
			{"set k x 0 1\r\nv\r\n", "CLIENT_ERROR bad command line format\r\n"},
			// Arity failure before the length parse: no swallow, so the
			// orphaned data line is parsed as a (bogus) command.
			{"set k 0 0 1 extra junk\r\nv\r\n", "CLIENT_ERROR bad command line format\r\nERROR\r\n"},
			{"cas k 0 0 1\r\n", "CLIENT_ERROR bad command line format\r\n"},
			{"set k 0 0 3\r\nlonger than declared\r\n", "CLIENT_ERROR bad data chunk\r\nERROR\r\n"},
			{"delete\r\n", "CLIENT_ERROR bad command line format\r\n"},
			{"delete a b c\r\n", "CLIENT_ERROR bad command line format\r\n"},
			{"touch k\r\n", "CLIENT_ERROR bad command line format\r\n"},
			{"incr k\r\n", "CLIENT_ERROR bad command line format\r\n"},
			{"flush_all -1\r\n", "CLIENT_ERROR invalid delay argument\r\n"},
		}},
		{"oversized_and_bad_keys", []protoStep{
			{fmt.Sprintf("set big 0 0 %d\r\n%s\r\n", MaxValueLen+1, strings.Repeat("x", MaxValueLen+1)),
				"SERVER_ERROR object too large for cache\r\n"},
			{fmt.Sprintf("set %s 0 0 1\r\nv\r\n", strings.Repeat("k", MaxKeyLen+1)),
				"CLIENT_ERROR bad command line format\r\n"},
			{fmt.Sprintf("incr %s 1\r\n", strings.Repeat("k", MaxKeyLen+1)),
				"CLIENT_ERROR bad command line format\r\n"},
			// oversized noreply set is swallowed silently, connection stays usable
			{fmt.Sprintf("set big 0 0 %d noreply\r\n%s\r\nversion\r\n", MaxValueLen+1, strings.Repeat("x", MaxValueLen+1)),
				"VERSION " + serverVersion + "\r\n"},
			// Every keyed command answers a 251-byte key as set and incr do,
			// and a multi-key retrieval is checked whole: no VALUE block
			// precedes the error.
			{"set good 0 0 1\r\nv\r\n", "STORED\r\n"},
			{"get " + longTextKey + "\r\n", "CLIENT_ERROR bad command line format\r\n"},
			{"gets " + longTextKey + "\r\n", "CLIENT_ERROR bad command line format\r\n"},
			{"get good " + longTextKey + "\r\n", "CLIENT_ERROR bad command line format\r\n"},
			{"gat 100 " + longTextKey + "\r\n", "CLIENT_ERROR bad command line format\r\n"},
			{"gats 100 good " + longTextKey + "\r\n", "CLIENT_ERROR bad command line format\r\n"},
			{"touch " + longTextKey + " 100\r\n", "CLIENT_ERROR bad command line format\r\n"},
			{"delete " + longTextKey + "\r\n", "CLIENT_ERROR bad command line format\r\n"},
			{"delete " + longTextKey + " noreply\r\nget good\r\n", "VALUE good 0 1\r\nv\r\nEND\r\n"},
		}},
		{"flags_16bit_limit", []protoStep{
			{"set k 65535 0 1\r\nv\r\n", "STORED\r\n"},
			{"get k\r\n", "VALUE k 65535 1\r\nv\r\nEND\r\n"},
			{"set k 65536 0 1\r\nv\r\n", "CLIENT_ERROR bad command line format\r\n"},
		}},
		{"expiry_semantics", []protoStep{
			// negative exptime: stored already expired
			{"set k 0 -1 1\r\nv\r\n", "STORED\r\n"},
			{"get k\r\n", "END\r\n"},
			// relative exptime far in the future
			{"set k2 0 1000 1\r\nv\r\n", "STORED\r\n"},
			{"get k2\r\n", "VALUE k2 0 1\r\nv\r\nEND\r\n"},
		}},
	}
	for _, backend := range protoBackends {
		for _, tc := range cases {
			t.Run(backend+"/"+tc.name, func(t *testing.T) {
				runTextScript(t, backend, tc.steps)
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Binary protocol twin

// binFrame builds a request frame.
func binFrame(op uint8, opaque uint32, cas uint64, ext, key, val []byte) []byte {
	f := make([]byte, binHeaderLen, binHeaderLen+len(ext)+len(key)+len(val))
	f[0] = binMagicReq
	f[1] = op
	binary.BigEndian.PutUint16(f[2:], uint16(len(key)))
	f[4] = uint8(len(ext))
	binary.BigEndian.PutUint32(f[8:], uint32(len(ext)+len(key)+len(val)))
	binary.BigEndian.PutUint32(f[12:], opaque)
	binary.BigEndian.PutUint64(f[16:], cas)
	f = append(f, ext...)
	f = append(f, key...)
	return append(f, val...)
}

// binResFrame builds the exact response frame the server must emit.
func binResFrame(op uint8, status uint16, opaque uint32, cas uint64, ext, key, val []byte) []byte {
	f := make([]byte, binHeaderLen, binHeaderLen+len(ext)+len(key)+len(val))
	f[0] = binMagicRes
	f[1] = op
	binary.BigEndian.PutUint16(f[2:], uint16(len(key)))
	f[4] = uint8(len(ext))
	binary.BigEndian.PutUint16(f[6:], status)
	binary.BigEndian.PutUint32(f[8:], uint32(len(ext)+len(key)+len(val)))
	binary.BigEndian.PutUint32(f[12:], opaque)
	binary.BigEndian.PutUint64(f[16:], cas)
	f = append(f, ext...)
	f = append(f, key...)
	return append(f, val...)
}

func binErrFrame(op uint8, status uint16, opaque uint32) []byte {
	return binResFrame(op, status, opaque, 0, nil, nil, []byte(binStatusMsg(status)))
}

func setExt(flags, expiry uint32) []byte {
	var e [8]byte
	binary.BigEndian.PutUint32(e[:], flags)
	binary.BigEndian.PutUint32(e[4:], expiry)
	return e[:]
}

func flagsExt(flags uint32) []byte {
	var e [4]byte
	binary.BigEndian.PutUint32(e[:], flags)
	return e[:]
}

func incrExt(delta, initial uint64, expiry uint32) []byte {
	var e [20]byte
	binary.BigEndian.PutUint64(e[:], delta)
	binary.BigEndian.PutUint64(e[8:], initial)
	binary.BigEndian.PutUint32(e[16:], expiry)
	return e[:]
}

func u64body(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// binStep is one exchange of raw frames.
type binStep struct {
	send []byte
	want []byte
}

func runBinScript(t *testing.T, backend string, steps []binStep) {
	t.Helper()
	runBinSteps(t, newProtoConn(t, backend), steps)
}

func runBinSteps(t *testing.T, conn net.Conn, steps []binStep) {
	t.Helper()
	var want []byte
	for _, st := range steps {
		if _, err := conn.Write(st.send); err != nil {
			t.Fatal(err)
		}
		want = append(want, st.want...)
	}
	expectExact(t, conn, want)
}

func cat(frames ...[]byte) []byte {
	var out []byte
	for _, f := range frames {
		out = append(out, f...)
	}
	return out
}

func TestBinaryConformance(t *testing.T) {
	key := []byte("bk")
	longKey := bytes.Repeat([]byte("k"), MaxKeyLen+1)
	cases := []struct {
		name  string
		steps []binStep
	}{
		{"set_get_cas_chain", []binStep{
			// SET: fresh item, response cas 1, opaque echoed
			{binFrame(binOpSet, 0xdead0001, 0, setExt(7, 0), key, []byte("v1")),
				binResFrame(binOpSet, binStatusOK, 0xdead0001, 1, nil, nil, nil)},
			// GET: flags in 4B extras, cas 1
			{binFrame(binOpGet, 0xdead0002, 0, nil, key, nil),
				binResFrame(binOpGet, binStatusOK, 0xdead0002, 1, flagsExt(7), nil, []byte("v1"))},
			// GETK echoes the key
			{binFrame(binOpGetK, 0xdead0003, 0, nil, key, nil),
				binResFrame(binOpGetK, binStatusOK, 0xdead0003, 1, flagsExt(7), key, []byte("v1"))},
			// SET with matching cas = compare-and-swap, bumps to 2
			{binFrame(binOpSet, 0xdead0004, 1, setExt(7, 0), key, []byte("v2")),
				binResFrame(binOpSet, binStatusOK, 0xdead0004, 2, nil, nil, nil)},
			// SET with the stale cas: KeyExists
			{binFrame(binOpSet, 0xdead0005, 1, setExt(7, 0), key, []byte("v3")),
				binErrFrame(binOpSet, binStatusKeyExists, 0xdead0005)},
			// DELETE with the stale cas: KeyExists; with the live one: OK
			{binFrame(binOpDelete, 0xdead0006, 1, nil, key, nil),
				binErrFrame(binOpDelete, binStatusKeyExists, 0xdead0006)},
			{binFrame(binOpDelete, 0xdead0007, 2, nil, key, nil),
				binResFrame(binOpDelete, binStatusOK, 0xdead0007, 0, nil, nil, nil)},
			{binFrame(binOpGet, 0xdead0008, 0, nil, key, nil),
				binErrFrame(binOpGet, binStatusKeyNotFound, 0xdead0008)},
		}},
		{"add_replace", []binStep{
			{binFrame(binOpAdd, 1, 0, setExt(0, 0), key, []byte("a")),
				binResFrame(binOpAdd, binStatusOK, 1, 1, nil, nil, nil)},
			{binFrame(binOpAdd, 2, 0, setExt(0, 0), key, []byte("b")),
				binErrFrame(binOpAdd, binStatusKeyExists, 2)},
			{binFrame(binOpReplace, 3, 0, setExt(0, 0), key, []byte("c")),
				binResFrame(binOpReplace, binStatusOK, 3, 2, nil, nil, nil)},
			{binFrame(binOpReplace, 4, 0, setExt(0, 0), []byte("missing"), []byte("x")),
				binErrFrame(binOpReplace, binStatusKeyNotFound, 4)},
		}},
		{"append_prepend", []binStep{
			{binFrame(binOpAppend, 1, 0, nil, key, []byte("x")),
				binErrFrame(binOpAppend, binStatusKeyNotFound, 1)},
			{binFrame(binOpSet, 2, 0, setExt(3, 0), key, []byte("mid")),
				binResFrame(binOpSet, binStatusOK, 2, 1, nil, nil, nil)},
			{binFrame(binOpAppend, 3, 0, nil, key, []byte("-end")),
				binResFrame(binOpAppend, binStatusOK, 3, 2, nil, nil, nil)},
			{binFrame(binOpPrepend, 4, 0, nil, key, []byte("pre-")),
				binResFrame(binOpPrepend, binStatusOK, 4, 3, nil, nil, nil)},
			{binFrame(binOpGet, 5, 0, nil, key, nil),
				binResFrame(binOpGet, binStatusOK, 5, 3, flagsExt(3), nil, []byte("pre-mid-end"))},
		}},
		{"incr_decr", []binStep{
			// INCR with 0xffffffff expiry: no create → miss
			{binFrame(binOpIncr, 1, 0, incrExt(1, 0, 0xffffffff), key, nil),
				binErrFrame(binOpIncr, binStatusKeyNotFound, 1)},
			// INCR with create: seeds initial 10
			{binFrame(binOpIncr, 2, 0, incrExt(5, 10, 0), key, nil),
				binResFrame(binOpIncr, binStatusOK, 2, 1, nil, nil, u64body(10))},
			{binFrame(binOpIncr, 3, 0, incrExt(5, 0, 0xffffffff), key, nil),
				binResFrame(binOpIncr, binStatusOK, 3, 2, nil, nil, u64body(15))},
			// DECR floors at zero
			{binFrame(binOpDecr, 4, 0, incrExt(100, 0, 0xffffffff), key, nil),
				binResFrame(binOpDecr, binStatusOK, 4, 3, nil, nil, u64body(0))},
			// non-numeric value
			{binFrame(binOpSet, 5, 0, setExt(0, 0), []byte("s"), []byte("abc")),
				binResFrame(binOpSet, binStatusOK, 5, 1, nil, nil, nil)},
			{binFrame(binOpIncr, 6, 0, incrExt(1, 0, 0xffffffff), []byte("s"), nil),
				binErrFrame(binOpIncr, binStatusDeltaBadval, 6)},
		}},
		{"quiet_ops", []binStep{
			// SETQ: success suppressed; GETQ miss suppressed; GETKQ miss
			// suppressed; the closing NOOP is the only response
			{cat(
				binFrame(binOpSetQ, 1, 0, setExt(0, 0), key, []byte("q")),
				binFrame(binOpGetQ, 2, 0, nil, []byte("missing"), nil),
				binFrame(binOpGetKQ, 3, 0, nil, []byte("missing"), nil),
				binFrame(binOpGetQ, 4, 0, nil, key, nil),
				binFrame(binOpNoop, 5, 0, nil, nil, nil),
			), cat(
				// GETQ hit DOES respond
				binResFrame(binOpGetQ, binStatusOK, 4, 1, flagsExt(0), nil, []byte("q")),
				binResFrame(binOpNoop, binStatusOK, 5, 0, nil, nil, nil),
			)},
			// DELETEQ success suppressed
			{cat(
				binFrame(binOpDeleteQ, 6, 0, nil, key, nil),
				binFrame(binOpNoop, 7, 0, nil, nil, nil),
			), binResFrame(binOpNoop, binStatusOK, 7, 0, nil, nil, nil)},
			// quiet miss is NOT suppressed for DELETEQ (only GETQ/GETKQ/GATQ)
			{binFrame(binOpDeleteQ, 8, 0, nil, key, nil),
				binErrFrame(binOpDeleteQ, binStatusKeyNotFound, 8)},
		}},
		{"touch_gat", []binStep{
			{binFrame(binOpSet, 1, 0, setExt(9, 0), key, []byte("tv")),
				binResFrame(binOpSet, binStatusOK, 1, 1, nil, nil, nil)},
			{binFrame(binOpTouch, 2, 0, flagsExt(100), key, nil),
				binResFrame(binOpTouch, binStatusOK, 2, 2, nil, nil, nil)},
			{binFrame(binOpGAT, 3, 0, flagsExt(100), key, nil),
				binResFrame(binOpGAT, binStatusOK, 3, 3, flagsExt(9), nil, []byte("tv"))},
			{binFrame(binOpTouch, 4, 0, flagsExt(0), []byte("missing"), nil),
				binErrFrame(binOpTouch, binStatusKeyNotFound, 4)},
			{binFrame(binOpGATQ, 5, 0, flagsExt(0), []byte("missing"), nil), nil},
			{binFrame(binOpNoop, 6, 0, nil, nil, nil),
				binResFrame(binOpNoop, binStatusOK, 6, 0, nil, nil, nil)},
		}},
		{"flush_version_unknown", []binStep{
			{binFrame(binOpSet, 1, 0, setExt(0, 0), key, []byte("v")),
				binResFrame(binOpSet, binStatusOK, 1, 1, nil, nil, nil)},
			{binFrame(binOpFlush, 2, 0, nil, nil, nil),
				binResFrame(binOpFlush, binStatusOK, 2, 0, nil, nil, nil)},
			{binFrame(binOpGet, 3, 0, nil, key, nil),
				binErrFrame(binOpGet, binStatusKeyNotFound, 3)},
			{binFrame(binOpVersion, 4, 0, nil, nil, nil),
				binResFrame(binOpVersion, binStatusOK, 4, 0, nil, nil, []byte(serverVersion))},
			{binFrame(0x55, 5, 0, nil, nil, nil),
				binErrFrame(0x55, binStatusUnknownCmd, 5)},
		}},
		{"invalid_args", []binStep{
			// GET with extras
			{binFrame(binOpGet, 1, 0, flagsExt(0), key, nil),
				binErrFrame(binOpGet, binStatusInvalidArgs, 1)},
			// SET without extras
			{binFrame(binOpSet, 2, 0, nil, key, []byte("v")),
				binErrFrame(binOpSet, binStatusInvalidArgs, 2)},
			// SET with 32-bit flags beyond the 16-bit storage
			{binFrame(binOpSet, 3, 0, setExt(0x10000, 0), key, []byte("v")),
				binErrFrame(binOpSet, binStatusInvalidArgs, 3)},
			// ADD with a cas token
			{binFrame(binOpAdd, 4, 9, setExt(0, 0), key, []byte("v")),
				binErrFrame(binOpAdd, binStatusInvalidArgs, 4)},
			// TOUCH with no extras
			{binFrame(binOpTouch, 5, 0, nil, key, nil),
				binErrFrame(binOpTouch, binStatusInvalidArgs, 5)},
		}},
		{"key_too_long", []binStep{
			// Every keyed opcode rejects a 251-byte key as SET does; the
			// creating INCR must not store one.
			{binFrame(binOpSet, 1, 0, setExt(0, 0), longKey, []byte("v")),
				binErrFrame(binOpSet, binStatusInvalidArgs, 1)},
			{binFrame(binOpIncr, 2, 0, incrExt(1, 5, 0), longKey, nil),
				binErrFrame(binOpIncr, binStatusInvalidArgs, 2)},
			{binFrame(binOpDecr, 3, 0, incrExt(1, 5, 0), longKey, nil),
				binErrFrame(binOpDecr, binStatusInvalidArgs, 3)},
			{binFrame(binOpTouch, 4, 0, flagsExt(100), longKey, nil),
				binErrFrame(binOpTouch, binStatusInvalidArgs, 4)},
			{binFrame(binOpGAT, 5, 0, flagsExt(100), longKey, nil),
				binErrFrame(binOpGAT, binStatusInvalidArgs, 5)},
			{binFrame(binOpDelete, 6, 0, nil, longKey, nil),
				binErrFrame(binOpDelete, binStatusInvalidArgs, 6)},
			{binFrame(binOpGet, 7, 0, nil, longKey, nil),
				binErrFrame(binOpGet, binStatusInvalidArgs, 7)},
		}},
	}
	for _, backend := range protoBackends {
		for _, tc := range cases {
			t.Run(backend+"/"+tc.name, func(t *testing.T) {
				runBinScript(t, backend, tc.steps)
			})
		}
	}
}

// TestBinaryStatsTerminator checks the STAT contract: key/value packets
// terminated by an empty packet.
func TestBinaryStatsTerminator(t *testing.T) {
	conn := newProtoConn(t, "mem")
	if _, err := conn.Write(binFrame(binOpStat, 42, 0, nil, nil, nil)); err != nil {
		t.Fatal(err)
	}
	sawRows := 0
	for {
		var hdr [binHeaderLen]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			t.Fatal(err)
		}
		if hdr[0] != binMagicRes {
			t.Fatalf("bad magic 0x%02x", hdr[0])
		}
		if got := binary.BigEndian.Uint32(hdr[12:]); got != 42 {
			t.Fatalf("opaque = %d, want 42", got)
		}
		bodyLen := int(binary.BigEndian.Uint32(hdr[8:]))
		if bodyLen == 0 {
			break // terminator
		}
		body := make([]byte, bodyLen)
		if _, err := io.ReadFull(conn, body); err != nil {
			t.Fatal(err)
		}
		sawRows++
	}
	if sawRows < 10 {
		t.Fatalf("only %d stat rows before terminator", sawRows)
	}
}

// TestBinaryFraming rejects: wrong magic closes the connection; a body
// length smaller than key+extras closes the connection.
func TestBinaryFramingRejects(t *testing.T) {
	t.Run("bad_magic", func(t *testing.T) {
		conn := newProtoConn(t, "mem")
		// First frame valid (selects binary), second has a corrupt magic.
		conn.Write(binFrame(binOpNoop, 1, 0, nil, nil, nil))
		bad := binFrame(binOpNoop, 2, 0, nil, nil, nil)
		bad[0] = 0x99
		conn.Write(bad)
		expectClosedAfter(t, conn, binResFrame(binOpNoop, binStatusOK, 1, 0, nil, nil, nil))
	})
	t.Run("bodylen_lt_keylen", func(t *testing.T) {
		conn := newProtoConn(t, "mem")
		f := binFrame(binOpGet, 1, 0, nil, []byte("key"), nil)
		binary.BigEndian.PutUint32(f[8:], 1) // body shorter than the key
		conn.Write(f)
		expectClosedAfter(t, conn, nil)
	})
	t.Run("insane_bodylen", func(t *testing.T) {
		conn := newProtoConn(t, "mem")
		f := binFrame(binOpSet, 1, 0, nil, nil, nil)
		binary.BigEndian.PutUint32(f[8:], 1<<30) // past binInsaneBody
		conn.Write(f)
		expectClosedAfter(t, conn, nil)
	})
}

// expectClosedAfter reads exactly want (possibly empty) and then requires
// EOF — the server must have closed the connection.
func expectClosedAfter(t *testing.T, conn net.Conn, want []byte) {
	t.Helper()
	if len(want) > 0 {
		got := make([]byte, len(want))
		if _, err := io.ReadFull(conn, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("got %q, want %q", got, want)
		}
	}
	var one [1]byte
	if _, err := conn.Read(one[:]); err != io.EOF {
		t.Fatalf("connection still open (read err %v)", err)
	}
}
