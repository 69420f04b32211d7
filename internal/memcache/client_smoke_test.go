package memcache

// Standard-client smoke test. The container image carries no third-party
// modules, so this file embeds a minimal strict client that mirrors the
// wire usage of github.com/bradfitz/gomemcache (the de-facto standard Go
// client): Get is issued as "gets" and keeps the returned cas unique for a
// later CompareAndSwap, storage verbs are formatted identically, and every
// response is parsed byte-strictly — any deviation from the memcached
// protocol the real client depends on fails the test.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"testing"
	"time"
)

// smokeItem mirrors gomemcache's memcache.Item.
type smokeItem struct {
	Key        string
	Value      []byte
	Flags      uint32
	Expiration int32
	casid      uint64
}

// smokeClient is the embedded strict client.
type smokeClient struct {
	t  *testing.T
	rw *bufio.ReadWriter
}

func newSmokeClient(t *testing.T, addr string) *smokeClient {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	return &smokeClient{t: t, rw: bufio.NewReadWriter(bufio.NewReader(conn), bufio.NewWriter(conn))}
}

func (c *smokeClient) line() string {
	line, err := c.rw.ReadString('\n')
	if err != nil {
		c.t.Fatal(err)
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		c.t.Fatalf("line not CRLF-terminated: %q", line)
	}
	return line[:len(line)-2]
}

// store issues a storage command exactly as gomemcache's populateOne does.
func (c *smokeClient) store(verb string, it *smokeItem) string {
	if verb == "cas" {
		fmt.Fprintf(c.rw, "%s %s %d %d %d %d\r\n", verb, it.Key, it.Flags, it.Expiration, len(it.Value), it.casid)
	} else {
		fmt.Fprintf(c.rw, "%s %s %d %d %d\r\n", verb, it.Key, it.Flags, it.Expiration, len(it.Value))
	}
	c.rw.Write(it.Value)
	c.rw.WriteString("\r\n")
	if err := c.rw.Flush(); err != nil {
		c.t.Fatal(err)
	}
	return c.line()
}

// get issues "gets <key>" (gomemcache always requests the cas unique) and
// parses the 5-field VALUE header strictly.
func (c *smokeClient) get(key string) (*smokeItem, bool) {
	fmt.Fprintf(c.rw, "gets %s\r\n", key)
	if err := c.rw.Flush(); err != nil {
		c.t.Fatal(err)
	}
	header := c.line()
	if header == "END" {
		return nil, false
	}
	fields := bytes.Fields([]byte(header))
	// gomemcache's scanGetResponseLine demands exactly:
	// VALUE <key> <flags> <bytes> <casid>
	if len(fields) != 5 || string(fields[0]) != "VALUE" {
		c.t.Fatalf("gets: malformed VALUE line %q (want 5 fields)", header)
	}
	if string(fields[1]) != key {
		c.t.Fatalf("gets: key %q, want %q", fields[1], key)
	}
	flags, err := strconv.ParseUint(string(fields[2]), 10, 32)
	if err != nil {
		c.t.Fatalf("gets: bad flags in %q: %v", header, err)
	}
	size, err := strconv.Atoi(string(fields[3]))
	if err != nil {
		c.t.Fatalf("gets: bad size in %q: %v", header, err)
	}
	casid, err := strconv.ParseUint(string(fields[4]), 10, 64)
	if err != nil {
		c.t.Fatalf("gets: bad cas unique in %q: %v", header, err)
	}
	buf := make([]byte, size+2)
	if _, err := io.ReadFull(c.rw, buf); err != nil {
		c.t.Fatal(err)
	}
	if !bytes.HasSuffix(buf, []byte("\r\n")) {
		c.t.Fatalf("gets: data block not CRLF-terminated")
	}
	if end := c.line(); end != "END" {
		c.t.Fatalf("gets: got %q, want END", end)
	}
	return &smokeItem{Key: key, Value: buf[:size], Flags: uint32(flags), casid: casid}, true
}

func (c *smokeClient) incr(key string, delta uint64) (uint64, string) {
	fmt.Fprintf(c.rw, "incr %s %d\r\n", key, delta)
	if err := c.rw.Flush(); err != nil {
		c.t.Fatal(err)
	}
	resp := c.line()
	if v, err := strconv.ParseUint(resp, 10, 64); err == nil {
		return v, ""
	}
	return 0, resp
}

func (c *smokeClient) delete(key string) string {
	fmt.Fprintf(c.rw, "delete %s\r\n", key)
	if err := c.rw.Flush(); err != nil {
		c.t.Fatal(err)
	}
	return c.line()
}

// TestStandardClientSmoke drives the server through a standard client's
// Set/Get/Add/CAS/Append/Incr/Delete call pattern in text mode — the
// ISSUE's acceptance check that an unmodified off-the-shelf client works.
func TestStandardClientSmoke(t *testing.T) {
	for _, backend := range protoBackends {
		t.Run(backend, func(t *testing.T) {
			m := newProtoCache(t, backend)
			srv, err := NewServer("127.0.0.1:0", 4, m, m.Stats)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			c := newSmokeClient(t, srv.Addr())

			// Set + Get round trip with flags.
			if r := c.store("set", &smokeItem{Key: "color", Value: []byte("crimson"), Flags: 32}); r != "STORED" {
				t.Fatalf("set: %q", r)
			}
			it, ok := c.get("color")
			if !ok || string(it.Value) != "crimson" || it.Flags != 32 {
				t.Fatalf("get: %+v ok=%v", it, ok)
			}
			if it.casid == 0 {
				t.Fatal("get: cas unique is 0 — gets is aliasing get")
			}

			// Add fails on present key, succeeds on absent.
			if r := c.store("add", &smokeItem{Key: "color", Value: []byte("x")}); r != "NOT_STORED" {
				t.Fatalf("add present: %q", r)
			}
			if r := c.store("add", &smokeItem{Key: "shade", Value: []byte("dark")}); r != "STORED" {
				t.Fatalf("add absent: %q", r)
			}

			// CompareAndSwap: stored with the fresh token, EXISTS with a stale
			// one, NOT_FOUND after deletion.
			it.Value = []byte("scarlet")
			if r := c.store("cas", it); r != "STORED" {
				t.Fatalf("cas fresh: %q", r)
			}
			if r := c.store("cas", it); r != "EXISTS" {
				t.Fatalf("cas stale: %q", r)
			}
			it2, _ := c.get("color")
			if string(it2.Value) != "scarlet" || it2.casid <= it.casid {
				t.Fatalf("after cas: %+v (prev cas %d)", it2, it.casid)
			}

			// Append preserves flags.
			if r := c.store("append", &smokeItem{Key: "color", Value: []byte("-red")}); r != "STORED" {
				t.Fatalf("append: %q", r)
			}
			it3, _ := c.get("color")
			if string(it3.Value) != "scarlet-red" || it3.Flags != 32 {
				t.Fatalf("after append: %+v", it3)
			}

			// Increment.
			if r := c.store("set", &smokeItem{Key: "hits", Value: []byte("41")}); r != "STORED" {
				t.Fatalf("set ctr: %q", r)
			}
			if v, e := c.incr("hits", 1); e != "" || v != 42 {
				t.Fatalf("incr: %d %q", v, e)
			}

			// Delete, then CAS on the gone key.
			if r := c.delete("color"); r != "DELETED" {
				t.Fatalf("delete: %q", r)
			}
			if r := c.store("cas", it2); r != "NOT_FOUND" {
				t.Fatalf("cas deleted: %q", r)
			}
			if _, ok := c.get("color"); ok {
				t.Fatal("deleted key still present")
			}
		})
	}
}

// TestGetsRegression pins the satellite fix: gets must return the 5-field
// "VALUE <key> <flags> <bytes> <cas>" header (it previously aliased get and
// returned 4 fields), and the unique must advance on every mutation.
func TestGetsRegression(t *testing.T) {
	conn := newProtoConn(t, "mem")
	rw := bufio.NewReadWriter(bufio.NewReader(conn), bufio.NewWriter(conn))

	send(t, rw, "set g 9 0 3", "abc")
	if got := mustLine(t, rw); got != "STORED" {
		t.Fatalf("set: %q", got)
	}
	send(t, rw, "gets g")
	header := mustLine(t, rw)
	fields := bytes.Fields([]byte(header))
	if len(fields) != 5 {
		t.Fatalf("gets header %q has %d fields, want 5 (VALUE key flags bytes cas)", header, len(fields))
	}
	if string(fields[0]) != "VALUE" || string(fields[1]) != "g" ||
		string(fields[2]) != "9" || string(fields[3]) != "3" {
		t.Fatalf("gets header %q", header)
	}
	cas1, err := strconv.ParseUint(string(fields[4]), 10, 64)
	if err != nil || cas1 == 0 {
		t.Fatalf("gets cas unique %q (err %v) — must be a nonzero integer", fields[4], err)
	}
	mustLine(t, rw) // data
	mustLine(t, rw) // END

	// get (no s) must stay 4-field.
	send(t, rw, "get g")
	if got := mustLine(t, rw); got != "VALUE g 9 3" {
		t.Fatalf("get header %q, want 4-field", got)
	}
	mustLine(t, rw)
	mustLine(t, rw)

	// Every mutation advances the unique.
	send(t, rw, "set g 9 0 3", "def")
	if got := mustLine(t, rw); got != "STORED" {
		t.Fatalf("re-set: %q", got)
	}
	send(t, rw, "gets g")
	header2 := mustLine(t, rw)
	fields2 := bytes.Fields([]byte(header2))
	cas2, _ := strconv.ParseUint(string(fields2[4]), 10, 64)
	if cas2 <= cas1 {
		t.Fatalf("cas unique did not advance: %d then %d", cas1, cas2)
	}
	mustLine(t, rw)
	mustLine(t, rw)
}

func mustLine(t *testing.T, rw *bufio.ReadWriter) string {
	t.Helper()
	line, err := rw.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return string(bytes.TrimRight([]byte(line), "\r\n"))
}
