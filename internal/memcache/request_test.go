package memcache

// The one request path: what execute decides is the same on both protocols
// and on both kinds of backend, and the decoders' buffers stay bounded by
// what is storable whatever a client sends.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// repeatReader yields n copies of b without holding them.
type repeatReader struct {
	b byte
	n int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, io.EOF
	}
	n := min(len(p), r.n)
	for i := range p[:n] {
		p[i] = r.b
	}
	r.n -= n
	return n, nil
}

// serveOnce drives one input through a pooled connState, as a connection
// would, and returns the reply with the state as it goes back to the pool.
func serveOnce(tb testing.TB, input io.Reader) ([]byte, *connState) {
	c := connPool.Get().(*connState)
	defer connPool.Put(c)
	var out bytes.Buffer
	fuzzServer(tb).serveStream(c, input, &out)
	return out.Bytes(), c
}

func checkPooledBuffers(t *testing.T, c *connState) {
	t.Helper()
	if cap(c.line) > maxLineLen {
		t.Errorf("cap(line) = %d goes back to the pool, want <= %d", cap(c.line), maxLineLen)
	}
	if cap(c.data) > 4<<10 {
		t.Errorf("cap(data) = %d goes back to the pool, want <= 4 KiB", cap(c.data))
	}
}

func TestUnterminatedLineIsBounded(t *testing.T) {
	got, c := serveOnce(t, &repeatReader{b: 'a', n: 32 << 20})
	if want := "CLIENT_ERROR line too long\r\n"; string(got) != want {
		t.Fatalf("reply %q, want %q (and the connection closed)", got, want)
	}
	checkPooledBuffers(t, c)

	// The longest line that is served: a multi-key retrieval just under the limit.
	keys := strings.Repeat(" "+strings.Repeat("k", MaxKeyLen), (maxLineLen-len("get\r\n"))/(MaxKeyLen+1))
	got, c = serveOnce(t, strings.NewReader("get"+keys+"\r\n"))
	if string(got) != "END\r\n" {
		t.Fatalf("reply to a %d-byte get: %q, want END", len(keys)+5, got)
	}
	checkPooledBuffers(t, c)
}

func TestOversizeBinaryBodyIsNotBuffered(t *testing.T) {
	key := []byte("oversize-body-key")
	for _, valueLen := range []int{binMaxBody + 1 - 8 - len(key), 1<<20 - 8 - len(key)} {
		input := cat(
			binFrame(binOpSet, 1, 0, setExt(0, 0), key, make([]byte, valueLen)),
			binFrame(binOpGet, 2, 0, nil, key, nil))
		want := cat(
			binErrFrame(binOpSet, binStatusTooLarge, 1),
			binErrFrame(binOpGet, binStatusKeyNotFound, 2)) // the connection is still in sync
		got, c := serveOnce(t, bytes.NewReader(input))
		if !bytes.Equal(got, want) {
			t.Fatalf("%d-byte body:\ngot:  %q\nwant: %q", 8+len(key)+valueLen, got, want)
		}
		checkPooledBuffers(t, c)
	}
	// The largest storable frame is buffered and stored.
	value := bytes.Repeat([]byte("v"), MaxValueLen)
	longKey := bytes.Repeat([]byte("K"), MaxKeyLen)
	got, c := serveOnce(t, bytes.NewReader(binFrame(binOpSet, 3, 0, setExt(0, 0), longKey, value)))
	if code := binary.BigEndian.Uint16(got[6:]); len(got) != binHeaderLen || code != binStatusOK {
		t.Fatalf("maximum-size SET answered %q", got)
	}
	checkPooledBuffers(t, c)
}

// TestComparatorConformance pins the command set of a bare KV backend (what
// the volatile comparators and the benchmark's traced server run on) on both
// protocols: set, get and delete are served, flush_all acknowledges without
// acting, the rest is refused, and read-only still gates the mutations.
func TestComparatorConformance(t *testing.T) {
	noStats := func() Stats { return Stats{} }
	t.Run("text", func(t *testing.T) {
		unsupported := "SERVER_ERROR command not supported by this backend\r\n"
		srv, conn := serveKV(t, NewLockCache(), noStats)
		runTextSteps(t, conn, []protoStep{
			{"set k 3 0 1\r\nv\r\n", "STORED\r\n"},
			{"get k missing\r\n", "VALUE k 3 1\r\nv\r\nEND\r\n"},
			{"add k 0 0 1\r\nx\r\n", unsupported},
			{"replace k 0 0 1\r\nx\r\n", unsupported},
			{"append k 0 0 1\r\nx\r\n", unsupported},
			{"prepend k 0 0 1\r\nx\r\n", unsupported},
			{"cas k 0 0 1 1\r\nx\r\n", unsupported},
			{"incr k 1\r\n", unsupported},
			{"decr k 1\r\n", unsupported},
			{"touch k 10\r\n", unsupported},
			{"gat 10 k k\r\n", unsupported},
			{"flush_all\r\n", "OK\r\n"},
			{"get k\r\n", "VALUE k 3 1\r\nv\r\nEND\r\n"},
			{"delete k\r\n", "DELETED\r\n"},
			{"delete k\r\n", "NOT_FOUND\r\n"},
			{"set k 0 0 1\r\nw\r\n", "STORED\r\n"},
		})
		srv.SetReadOnly(true)
		ro := "SERVER_ERROR replica is read-only\r\n"
		runTextSteps(t, conn, []protoStep{
			{"set k 0 0 1\r\nx\r\n", ro},
			{"delete k\r\n", ro},
			{"flush_all\r\n", ro},
			{"get k\r\n", "VALUE k 0 1\r\nw\r\nEND\r\n"},
		})
	})
	t.Run("binary", func(t *testing.T) {
		key := []byte("k")
		unsupported := func(op uint8, opaque uint32, cas uint64, ext, val []byte) binStep {
			return binStep{binFrame(op, opaque, cas, ext, key, val), binErrFrame(op, binStatusUnknownCmd, opaque)}
		}
		srv, conn := serveKV(t, NewLockCache(), noStats)
		runBinSteps(t, conn, []binStep{
			{binFrame(binOpSet, 1, 0, setExt(3, 0), key, []byte("v")),
				binResFrame(binOpSet, binStatusOK, 1, 0, nil, nil, nil)},
			{binFrame(binOpGet, 2, 0, nil, key, nil),
				binResFrame(binOpGet, binStatusOK, 2, 0, flagsExt(3), nil, []byte("v"))},
			{binFrame(binOpGetK, 3, 0, nil, key, nil),
				binResFrame(binOpGetK, binStatusOK, 3, 0, flagsExt(3), key, []byte("v"))},
			{cat(binFrame(binOpGetQ, 4, 0, nil, []byte("missing"), nil), binFrame(binOpGetQ, 5, 0, nil, key, nil)),
				binResFrame(binOpGetQ, binStatusOK, 5, 0, flagsExt(3), nil, []byte("v"))},
			unsupported(binOpSet, 6, 1, setExt(0, 0), []byte("x")), // SET with a cas is compare-and-swap
			unsupported(binOpAdd, 7, 0, setExt(0, 0), []byte("x")),
			unsupported(binOpReplace, 8, 0, setExt(0, 0), []byte("x")),
			unsupported(binOpAppend, 9, 0, nil, []byte("x")),
			unsupported(binOpPrepend, 10, 0, nil, []byte("x")),
			unsupported(binOpIncr, 11, 0, incrExt(1, 0, 0), nil),
			unsupported(binOpDecr, 12, 0, incrExt(1, 0, 0), nil),
			unsupported(binOpTouch, 13, 0, flagsExt(10), nil),
			unsupported(binOpGAT, 14, 0, flagsExt(10), nil),
			{binFrame(binOpFlush, 15, 0, nil, nil, nil),
				binResFrame(binOpFlush, binStatusOK, 15, 0, nil, nil, nil)},
			{binFrame(binOpDelete, 16, 0, nil, key, nil),
				binResFrame(binOpDelete, binStatusOK, 16, 0, nil, nil, nil)},
			{binFrame(binOpDelete, 17, 0, nil, key, nil),
				binErrFrame(binOpDelete, binStatusKeyNotFound, 17)},
		})
		srv.SetReadOnly(true)
		ro := func(op uint8, opaque uint32) []byte {
			return binResFrame(op, binStatusNotStored, opaque, 0, nil, nil, []byte("replica is read-only"))
		}
		runBinSteps(t, conn, []binStep{
			{binFrame(binOpSet, 18, 0, setExt(0, 0), key, []byte("x")), ro(binOpSet, 18)},
			{binFrame(binOpDelete, 19, 0, nil, key, nil), ro(binOpDelete, 19)},
			{binFrame(binOpFlush, 20, 0, nil, nil, nil), ro(binOpFlush, 20)},
			{binFrame(binOpGet, 21, 0, nil, key, nil), binErrFrame(binOpGet, binStatusKeyNotFound, 21)},
		})
	})
}

// TestProtocolsAgree runs one script of all fifteen commands through a text
// and a binary connection onto two fresh caches: every step ends in the same
// status on both, and the caches end up holding the same items.
func TestProtocolsAgree(t *testing.T) {
	const deadline = 2000000000 // an absolute exptime, so both caches store the same one
	longKey := strings.Repeat("k", MaxKeyLen+1)
	big := strings.Repeat("x", MaxValueLen+1)
	noCreate := uint32(0xffffffff)
	type step struct {
		text     string
		opcode   uint8
		cas      uint64
		ext      []byte
		key, val string
		want     status
	}
	store := func(verb string, opcode uint8, key, val string, want status) step {
		return step{fmt.Sprintf("%s %s 5 0 %d\r\n%s\r\n", verb, key, len(val), val), opcode, 0, setExt(5, 0), key, val, want}
	}
	concat := func(verb string, opcode uint8, key, val string, want status) step {
		s := store(verb, opcode, key, val, want)
		s.ext = nil
		return s
	}
	cas := func(key, val string, token uint64, want status) step {
		s := store("cas", binOpSet, key, val, want)
		s.text = fmt.Sprintf("cas %s 5 0 %d %d\r\n%s\r\n", key, len(val), token, val)
		s.cas = token
		return s
	}
	get := func(verb, key string, want status) step {
		return step{verb + " " + key + "\r\n", binOpGet, 0, nil, key, "", want}
	}
	gat := func(verb, key string, want status) step {
		return step{fmt.Sprintf("%s %d %s\r\n", verb, deadline, key), binOpGAT, 0, flagsExt(deadline), key, "", want}
	}
	arith := func(verb string, opcode uint8, key string, want status) step {
		return step{verb + " " + key + " 5\r\n", opcode, 0, incrExt(5, 0, noCreate), key, "", want}
	}
	script := []step{
		store("set", binOpSet, "k", "v1", statusOK),
		store("add", binOpAdd, "k", "v2", statusNotStored),
		store("add", binOpAdd, "a", "av", statusOK),
		store("replace", binOpReplace, "k", "v3", statusOK),
		store("replace", binOpReplace, "missing", "v", statusNotStored),
		concat("append", binOpAppend, "k", "-end", statusOK),
		concat("prepend", binOpPrepend, "k", "pre-", statusOK),
		concat("append", binOpAppend, "missing", "x", statusNotStored),
		concat("prepend", binOpPrepend, "missing", "x", statusNotStored),
		get("get", "k", statusOK),
		get("gets", "k", statusOK),
		get("get", "missing", statusNotFound),
		cas("k", "stale", 1, statusExists),
		cas("k", "v4", 4, statusOK), // set, replace, append, prepend: the unique is 4
		cas("missing", "v", 1, statusNotFound),
		store("set", binOpSet, "n", "10", statusOK),
		arith("incr", binOpIncr, "n", statusOK),
		arith("decr", binOpDecr, "n", statusOK),
		arith("incr", binOpIncr, "missing", statusNotFound),
		arith("incr", binOpIncr, "k", statusNotNumber),
		{fmt.Sprintf("touch k %d\r\n", deadline), binOpTouch, 0, flagsExt(deadline), "k", "", statusOK},
		{"touch missing 100\r\n", binOpTouch, 0, flagsExt(100), "missing", "", statusNotFound},
		gat("gat", "a", statusOK),
		gat("gats", "a", statusOK),
		gat("gat", "missing", statusNotFound),
		store("set", binOpSet, "big", big, statusTooLarge),
		get("get", longKey, statusBadFormat),
		{"delete a\r\n", binOpDelete, 0, nil, "a", "", statusOK},
		{"delete a\r\n", binOpDelete, 0, nil, "a", "", statusNotFound},
	}
	readOnly := []step{
		store("set", binOpSet, "k", "ro", statusReadOnly),
		{"delete k\r\n", binOpDelete, 0, nil, "k", "", statusReadOnly},
		get("get", "k", statusOK),
	}
	flush := []step{{"flush_all\r\n", binOpFlush, 0, nil, "", "", statusOK}}

	textStatusOf := map[string]status{"END\r\n": statusNotFound}
	for st, line := range textStatus {
		if line != "" {
			textStatusOf[line] = status(st)
		}
	}
	textCache, binCache := newProtoCache(t, "mem"), newProtoCache(t, "mem")
	textSrv, textConn := serveKV(t, textCache, textCache.Stats)
	binSrv, binConn := serveKV(t, binCache, binCache.Stats)
	textReplies, binReplies := bufio.NewReader(textConn), bufio.NewReader(binConn)
	run := func(steps []step) {
		t.Helper()
		for i, s := range steps {
			if _, err := textConn.Write([]byte(s.text)); err != nil {
				t.Fatal(err)
			}
			line, err := textReplies.ReadString('\n')
			if err != nil {
				t.Fatalf("step %d %q: %v", i, s.text, err)
			}
			got, known := textStatusOf[line]
			if strings.HasPrefix(line, "VALUE ") { // then the data block and END
				textReplies.ReadString('\n')
				textReplies.ReadString('\n')
			} else if !known && strings.Contains(line, "ERROR") {
				t.Fatalf("step %d %q: unlisted reply %q", i, s.text, line)
			}
			if got != s.want {
				t.Errorf("step %d %q: text answered %q, want status %d", i, s.text, line, s.want)
			}

			if _, err := binConn.Write(binFrame(s.opcode, uint32(i), s.cas, s.ext, []byte(s.key), []byte(s.val))); err != nil {
				t.Fatal(err)
			}
			var hdr [binHeaderLen]byte
			if _, err := io.ReadFull(binReplies, hdr[:]); err != nil {
				t.Fatalf("step %d %q: %v", i, s.text, err)
			}
			if _, err := binReplies.Discard(int(binary.BigEndian.Uint32(hdr[8:]))); err != nil {
				t.Fatal(err)
			}
			wantCode := binStatus[s.want]
			if s.want == statusNotStored && s.opcode == binOpAdd {
				wantCode = binStatusKeyExists
			}
			if code := binary.BigEndian.Uint16(hdr[6:]); code != wantCode {
				t.Errorf("step %d %q: binary answered %#x (%s), want %#x", i, s.text, code, binStatusMsg(code), wantCode)
			}
		}
	}
	type stored struct {
		value string
		flags uint16
		aux   uint64
	}
	contents := func(m *Cache) map[string]stored {
		items := map[string]stored{}
		m.forEachItem(func(k, v []byte, flags uint16, aux uint64) error {
			items[string(k)] = stored{string(v), flags, aux}
			return nil
		})
		return items
	}
	agree := func(wantItems int) {
		t.Helper()
		viaText, viaBinary := contents(textCache), contents(binCache)
		if len(viaText) != wantItems || !reflect.DeepEqual(viaText, viaBinary) {
			t.Fatalf("want the same %d items\nvia text:   %v\nvia binary: %v", wantItems, viaText, viaBinary)
		}
	}

	run(script)
	textSrv.SetReadOnly(true)
	binSrv.SetReadOnly(true)
	run(readOnly)
	textSrv.SetReadOnly(false)
	binSrv.SetReadOnly(false)
	agree(2) // k and n
	run(flush)
	agree(0)
}
