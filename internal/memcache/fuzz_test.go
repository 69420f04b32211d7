package memcache

// Native fuzz targets for the wire-protocol parsers. Both targets drive the
// real per-connection handler (serveStream) over an in-memory stream whose
// read boundaries are fuzz-controlled, so requests split at arbitrary
// points across Read calls are covered — the classic parser trap. The
// cache behind the server is shared across executions (creating a durable
// device per exec would drown the fuzzer in setup).
//
// Invariants: the handler must never panic or hang, and every binary
// response emitted must be a well-formed 0x81 frame whose body length
// matches the bytes that follow.

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

var (
	fuzzSrvOnce sync.Once
	fuzzSrv     *Server
)

// fuzzServer returns a listener-less Server over a shared cache: serveStream
// needs only the kv, stats, and timer plumbing.
func fuzzServer(tb testing.TB) *Server {
	fuzzSrvOnce.Do(func() {
		m, err := New(Config{MemoryBytes: 64 << 20, Buckets: 1 << 10, MaxConns: 8})
		if err != nil {
			tb.Fatal(err)
		}
		fuzzSrv = &Server{
			kv:     m,
			stats:  m.Stats,
			conns:  make(map[net.Conn]struct{}),
			timers: make(map[*time.Timer]struct{}),
		}
	})
	return fuzzSrv
}

// chunkReader yields data in fuzz-chosen chunk sizes, forcing split reads.
type chunkReader struct {
	data  []byte
	chunk int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := r.chunk
	if n <= 0 {
		n = 1
	}
	if n > len(r.data) {
		n = len(r.data)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// fuzzServe runs one input through the connection handler and returns the
// raw response bytes.
func fuzzServe(tb testing.TB, input []byte, chunk int) []byte {
	out, _ := serveOnce(tb, &chunkReader{data: input, chunk: chunk})
	return out
}

func FuzzTextRequest(f *testing.F) {
	seeds := []string{
		"get foo\r\n",
		"gets a b c\r\n",
		"set k 3 0 5\r\nhello\r\nget k\r\n",
		"set k 0 0 5 noreply\r\nhello\r\ndelete k noreply\r\n",
		"add k 0 0 1\r\nx\r\nreplace k 0 0 1\r\ny\r\n",
		"append k 0 0 1\r\nz\r\nprepend k 0 0 1\r\nw\r\n",
		"cas k 1 0 2 42\r\nhi\r\n",
		"incr n 5\r\ndecr n 3\r\n",
		"touch k 100\r\ngat 50 k\r\ngats 50 k other\r\n",
		"stats\r\nversion\r\nverbosity 1\r\n",
		"flush_all\r\nflush_all 30\r\nflush_all noreply\r\n",
		"set big 0 0 99999\r\n",
		"set k 0 0 -1\r\n",
		"set k 99999999999999999999 0 1\r\nv\r\n",
		"quit\r\n",
		"\r\n\r\n\r\n",
		"set " + string(bytes.Repeat([]byte("k"), 300)) + " 0 0 1\r\nv\r\n",
	}
	for _, s := range seeds {
		for _, chunk := range []int{1, 3, 16 << 10} {
			f.Add([]byte(s), chunk)
		}
	}
	f.Fuzz(func(t *testing.T, input []byte, chunk int) {
		if len(input) > 1<<16 {
			return // bound per-exec work, not coverage
		}
		// Force the text handler even when the first byte is 0x80: text
		// parsing must survive arbitrary bytes mid-stream anyway.
		if len(input) > 0 && input[0] == binMagicReq {
			input[0] = 'g'
		}
		fuzzServe(t, input, chunk)
	})
}

func FuzzBinaryRequest(f *testing.F) {
	frame := func(op uint8, cas uint64, ext, key, val []byte) []byte {
		return binFrame(op, 0xfeedface, cas, ext, key, val)
	}
	seeds := [][]byte{
		frame(binOpSet, 0, setExt(1, 0), []byte("k"), []byte("v")),
		frame(binOpGet, 0, nil, []byte("k"), nil),
		frame(binOpGetK, 0, nil, []byte("k"), nil),
		cat(
			frame(binOpSetQ, 0, setExt(0, 0), []byte("q"), []byte("x")),
			frame(binOpGetQ, 0, nil, []byte("q"), nil),
			frame(binOpNoop, 0, nil, nil, nil),
		),
		frame(binOpDelete, 3, nil, []byte("k"), nil),
		frame(binOpIncr, 0, incrExt(1, 10, 0), []byte("n"), nil),
		frame(binOpDecr, 0, incrExt(1, 0, 0xffffffff), []byte("n"), nil),
		frame(binOpTouch, 0, flagsExt(60), []byte("k"), nil),
		frame(binOpGAT, 0, flagsExt(60), []byte("k"), nil),
		frame(binOpAppend, 0, nil, []byte("k"), []byte("+")),
		frame(binOpStat, 0, nil, nil, nil),
		frame(binOpVersion, 0, nil, nil, nil),
		frame(binOpFlush, 0, nil, nil, nil),
		frame(binOpQuit, 0, nil, nil, nil),
		frame(0x42, 0, nil, nil, nil), // unknown opcode
		// Truncated header.
		{binMagicReq, binOpGet, 0, 1},
		// Oversized body length (swallowed, answered E2BIG).
		func() []byte {
			f := frame(binOpSet, 0, nil, nil, nil)
			binary.BigEndian.PutUint32(f[8:], binMaxBody+1)
			return f
		}(),
		// Insane body length (connection must close, not allocate).
		func() []byte {
			f := frame(binOpSet, 0, nil, nil, nil)
			binary.BigEndian.PutUint32(f[8:], 1<<30)
			return f
		}(),
		// bodyLen < keyLen + extLen (inconsistent framing).
		func() []byte {
			f := frame(binOpGet, 0, nil, []byte("key"), nil)
			binary.BigEndian.PutUint32(f[8:], 1)
			return f
		}(),
	}
	for _, s := range seeds {
		for _, chunk := range []int{1, 7, 16 << 10} {
			f.Add(s, chunk)
		}
	}
	f.Fuzz(func(t *testing.T, input []byte, chunk int) {
		if len(input) > 1<<16 {
			return
		}
		// Force binary framing: serveStream dispatches on the first byte.
		if len(input) > 0 {
			input[0] = binMagicReq
		} else {
			return
		}
		out := fuzzServe(t, input, chunk)
		// Every emitted response must be a well-formed frame.
		for len(out) > 0 {
			if len(out) < binHeaderLen {
				t.Fatalf("trailing partial response header (%d bytes): %x", len(out), out)
			}
			if out[0] != binMagicRes {
				t.Fatalf("response magic 0x%02x", out[0])
			}
			keyLen := int(binary.BigEndian.Uint16(out[2:]))
			extLen := int(out[4])
			bodyLen := int(binary.BigEndian.Uint32(out[8:]))
			if bodyLen < keyLen+extLen {
				t.Fatalf("response bodyLen %d < key %d + ext %d", bodyLen, keyLen, extLen)
			}
			if len(out) < binHeaderLen+bodyLen {
				t.Fatalf("response body truncated: want %d, have %d", bodyLen, len(out)-binHeaderLen)
			}
			out = out[binHeaderLen+bodyLen:]
		}
	})
}
