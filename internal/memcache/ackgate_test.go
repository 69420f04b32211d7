package memcache

// Where the replication wait happens: a connection's mutations do not wait
// one by one; its response bytes wait once, in front of the socket, for the
// highest seq published so far. These tests drive a server with a sink whose
// acknowledgements the test hands out, and pin that no response byte to a
// mutation — or to anything served after it on the connection — is readable
// before the ack that covers it, on both protocols and on every path bytes
// can leave by.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/repl"
)

// heldSink is a ReplSink whose WaitAcked(seq) returns only once the test has
// acknowledged seq; it records every call.
type heldSink struct {
	mu      sync.Mutex
	cond    *sync.Cond
	seq     uint64
	acked   uint64
	waits   []uint64
	entered chan uint64 // one send per WaitAcked call that has to wait, as it starts
}

func newHeldSink() *heldSink {
	s := &heldSink{entered: make(chan uint64, 1024)} // never blocks a test's handful of waits
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *heldSink) publish() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	return s.seq
}

func (s *heldSink) PublishSet(_, _ []byte, _ uint16, _ uint64) uint64 { return s.publish() }
func (s *heldSink) PublishDelete(_ []byte) uint64                     { return s.publish() }

func (s *heldSink) WaitAcked(seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.waits = append(s.waits, seq)
	if s.acked < seq {
		s.entered <- seq
	}
	for s.acked < seq {
		s.cond.Wait()
	}
}

func (s *heldSink) ack(seq uint64) {
	s.mu.Lock()
	s.acked = seq
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *heldSink) calls() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.waits...)
}

// awaitWait returns the seq of the next WaitAcked call that had to wait.
func (s *heldSink) awaitWait(t *testing.T) uint64 {
	t.Helper()
	select {
	case seq := <-s.entered:
		return seq
	case <-time.After(5 * time.Second):
		t.Fatal("no WaitAcked call within 5s")
		return 0
	}
}

func heldServer(t *testing.T) (*Cache, *heldSink, net.Conn) {
	t.Helper()
	m := newProtoCache(t, "mem")
	sink := newHeldSink()
	srv, err := NewServer("127.0.0.1:0", 4, m, m.Stats)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		sink.ack(^uint64(0)) // let a still-blocked handler go
		conn.Close()
		srv.Close()
	})
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	return m, sink, conn
}

// expectSilence fails if any byte is readable from conn during a short
// window. The handler is known to be blocked in WaitAcked when this runs,
// so a byte here is a byte that left before its ack.
func expectSilence(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	var b [64]byte
	if n, _ := conn.Read(b[:]); n > 0 {
		t.Fatalf("%d response bytes left the server before the covering ack: %q", n, b[:n])
	}
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
}

func pipelinedSets(n int, suffix string) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "set k%02d 0 0 2%s\r\nv%d\r\n", i, suffix, i%10)
	}
	return b.String()
}

// checkCoalesced holds the WaitAcked calls made for one pipelined burst of
// publishes ending at seq last to "at most twice, ending on the highest seq"
// (twice because the burst may reach the server in two reads).
func checkCoalesced(t *testing.T, sink *heldSink, last uint64) {
	t.Helper()
	calls := sink.calls()
	if len(calls) == 0 || len(calls) > 2 || calls[len(calls)-1] != last {
		t.Fatalf("WaitAcked calls %v, want at most two and the last for seq %d", calls, last)
	}
}

func TestAckGateTextPipeline(t *testing.T) {
	m, sink, conn := heldServer(t)
	m.SetReplication(sink, nil)

	// 16 sets and a trailing get, one segment.
	if _, err := conn.Write([]byte(pipelinedSets(16, "") + "get k15\r\n")); err != nil {
		t.Fatal(err)
	}
	sink.awaitWait(t)
	expectSilence(t, conn)
	sink.ack(15) // all but the last mutation: still nothing may leave
	expectSilence(t, conn)
	sink.ack(16)
	expectExact(t, conn, []byte(strings.Repeat("STORED\r\n", 16)+"VALUE k15 0 2\r\nv5\r\nEND\r\n"))
	checkCoalesced(t, sink, 16)
}

func TestAckGateAutoFlush(t *testing.T) {
	m, sink, conn := heldServer(t)
	// The trailing get's reply overflows the 16 KiB write buffer, so bytes
	// leave from inside bufio.Writer.Write, not from maybeFlush.
	big := bytes.Repeat([]byte("x"), 1700)
	get, want := "get", strings.Repeat("STORED\r\n", 16)
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("big%02d", i)
		if err := m.Set([]byte(key), big, 0, 0); err != nil {
			t.Fatal(err)
		}
		get += " " + key
		want += fmt.Sprintf("VALUE %s 0 %d\r\n%s\r\n", key, len(big), big)
	}
	m.SetReplication(sink, nil)

	if _, err := conn.Write([]byte(pipelinedSets(16, "") + get + "\r\n")); err != nil {
		t.Fatal(err)
	}
	sink.awaitWait(t)
	expectSilence(t, conn)
	sink.ack(16)
	expectExact(t, conn, []byte(want+"END\r\n"))
	checkCoalesced(t, sink, 16)
}

func TestAckGateBinaryQuiet(t *testing.T) {
	m, sink, conn := heldServer(t)
	m.SetReplication(sink, nil)

	var req []byte
	for i := 0; i < 16; i++ {
		req = append(req, binFrame(binOpSetQ, uint32(i), 0, setExt(0, 0), []byte(fmt.Sprintf("q%02d", i)), []byte("v"))...)
	}
	req = append(req, binFrame(binOpNoop, 99, 0, nil, nil, nil)...)
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	sink.awaitWait(t)
	expectSilence(t, conn)
	sink.ack(16)
	// Quiet successes are silent: the NOOP alone answers, after the ack.
	expectExact(t, conn, binResFrame(binOpNoop, binStatusOK, 99, 0, nil, nil, nil))
	checkCoalesced(t, sink, 16)
}

func TestAckGateNoreplyNeverBlocksReader(t *testing.T) {
	m, sink, conn := heldServer(t)
	m.SetReplication(sink, nil)

	// Nothing to write, so nothing to hold back: every set is served though
	// no ack ever comes.
	if _, err := conn.Write([]byte(pipelinedSets(16, " noreply"))); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "16 noreply sets served without an ack", func() bool { return m.Stats().Sets == 16 })
	if calls := sink.calls(); len(calls) != 0 {
		t.Fatalf("WaitAcked called %v with nothing to write", calls)
	}
	// The first byte that does go out is held for all of them.
	if _, err := conn.Write([]byte("get k00\r\n")); err != nil {
		t.Fatal(err)
	}
	if seq := sink.awaitWait(t); seq != 16 {
		t.Fatalf("reply gated on seq %d, want 16", seq)
	}
	expectSilence(t, conn)
	sink.ack(16)
	expectExact(t, conn, []byte("VALUE k00 0 2\r\nv0\r\nEND\r\n"))
}

func TestDirectSetReturnsAfterAck(t *testing.T) {
	m := newProtoCache(t, "mem")
	sink := newHeldSink()
	m.SetReplication(sink, nil)
	done := make(chan error, 1)
	go func() { done <- m.Set([]byte("k"), []byte("v"), 0, 0) }()
	if seq := sink.awaitWait(t); seq != 1 {
		t.Fatalf("waited on seq %d, want 1", seq)
	}
	select {
	case <-done:
		t.Fatal("Cache.Set returned before its mutation was acknowledged")
	default:
	}
	sink.ack(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestDelayedFlushAllUsesServerHandle: the flush_all timer fires on its own
// goroutine while the connection that armed it keeps mutating. It must run
// on the server's cache handle; on the connection's it would write the
// connection's gate from a second goroutine (run under -race).
func TestDelayedFlushAllUsesServerHandle(t *testing.T) {
	m, sink, conn := heldServer(t)
	sink.ack(^uint64(0)) // a sink that is always caught up
	for i := 0; i < 64; i++ {
		if err := m.Set([]byte(fmt.Sprintf("old%02d", i)), []byte("v"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	m.SetReplication(sink, nil)

	if _, err := conn.Write([]byte("flush_all 1\r\n")); err != nil {
		t.Fatal(err)
	}
	expectExact(t, conn, []byte("OK\r\n"))
	burst := []byte(pipelinedSets(16, ""))
	reply := make([]byte, 16*len("STORED\r\n"))
	for m.Stats().Flushes == 0 {
		if _, err := conn.Write(burst); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, reply); err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, "the delayed flush_all to remove the old items", func() bool {
		_, _, first := m.Get([]byte("old00"))
		_, _, last := m.Get([]byte("old63"))
		return !first && !last
	})
}

// TestAckGateSheds: a follower that stops acknowledging delays a
// connection's responses by the primary's AckTimeout (plus at most one
// heartbeat tick, which is what wakes the waiter), then is shed and the
// responses flow.
func TestAckGateSheds(t *testing.T) {
	m := newProtoCache(t, "mem")
	const ackTimeout, heartbeat = 300 * time.Millisecond, 40 * time.Millisecond
	pr := repl.NewPrimary(m, repl.Options{AckTimeout: ackTimeout, Heartbeat: heartbeat})
	if err := pr.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	m.SetReplication(pr, nil)

	// A follower that enters sync at the stream start and then only ever
	// repeats that ack: alive, so not dropped as a dead peer, but lagging.
	fc, err := net.Dial("tcp", pr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	fw, fr := repl.NewWriter(fc), repl.NewReader(fc)
	fw.WriteRecord(&repl.Record{Type: repl.TypeHello})
	fw.Flush()
	var rec repl.Record
	for rec.Type != repl.TypeSnapEnd {
		if err := fr.ReadRecord(&rec); err != nil {
			t.Fatal(err)
		}
	}
	go io.Copy(io.Discard, fc) // ends when fc closes
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			if fw.WriteRecord(&repl.Record{Type: repl.TypeAck, Seq: 0}) != nil || fw.Flush() != nil {
				return
			}
			select {
			case <-stop:
				return
			case <-time.After(heartbeat):
			}
		}
	}()
	waitCond(t, "lagging follower in sync", func() bool { return pr.Stats().State == "streaming" })

	srv, err := NewServer("127.0.0.1:0", 4, m, m.Stats)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second))

	start := time.Now()
	if _, err := conn.Write([]byte(pipelinedSets(16, ""))); err != nil {
		t.Fatal(err)
	}
	reply := make([]byte, 16*len("STORED\r\n"))
	if _, err := io.ReadFull(conn, reply); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < ackTimeout {
		t.Fatalf("responses left after %v, before the %v ack timeout could shed the follower", d, ackTimeout)
	} else if d > ackTimeout+2*time.Second {
		t.Fatalf("responses took %v: the shed did not engage within a tick of %v", d, ackTimeout)
	}
	if st := pr.Stats(); st.Sheds == 0 {
		t.Fatalf("no shed recorded: %+v", st)
	}
	// Shed: the follower no longer gates this connection.
	start = time.Now()
	if _, err := conn.Write([]byte(pipelinedSets(16, ""))); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, reply); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > ackTimeout {
		t.Fatalf("post-shed responses took %v", d)
	}
}
