package memcache

// Cache-level replication tests: a live primary cache streaming to a live
// follower cache through internal/repl, run over both storage backends.
// The assertions are the failover contract: every acknowledged mutation is
// on the follower byte-faithfully (value, flags, expiry, CAS unique — the
// whole aux word), and a promoted follower continues the CAS generation
// chain exactly where the primary left it.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/repl"
)

func fastPrimary(t *testing.T, m *Cache) *repl.Primary {
	t.Helper()
	pr := repl.NewPrimary(m, repl.Options{AckTimeout: 2 * time.Second, Heartbeat: 20 * time.Millisecond})
	if err := pr.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pr.Close() })
	m.SetReplication(pr, func() ReplStats {
		st := pr.Stats()
		return ReplStats{State: st.State, Seq: st.Seq, LagOps: st.LagOps, Reconnects: st.Accepts}
	})
	return pr
}

func fastFollower(t *testing.T, addr string, m *Cache) *repl.Follower {
	t.Helper()
	fo := repl.NewFollower(addr, m, repl.FollowerOptions{
		BackoffMin: 5 * time.Millisecond,
		BackoffMax: 50 * time.Millisecond,
		MetaEvery:  8,
	})
	m.SetReplication(nil, func() ReplStats {
		st := fo.Stats()
		return ReplStats{State: st.State, Seq: st.Seq, LagOps: st.LagOps, Reconnects: st.Reconnects}
	})
	go fo.Run()
	t.Cleanup(fo.Close)
	return fo
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// itemAux fetches an item's raw index entry (value, flags, aux) for
// byte-faithfulness checks.
func itemAux(t *testing.T, m *Cache, key string) ([]byte, uint16, uint64) {
	t.Helper()
	v, meta, aux, ok := m.m.GetItem([]byte(key))
	if !ok {
		t.Fatalf("item %q missing", key)
	}
	return v, meta, aux
}

func TestReplicationEndToEnd(t *testing.T) {
	for _, backend := range protoBackends {
		t.Run(backend, func(t *testing.T) {
			primary := newProtoCache(t, backend)
			pr := fastPrimary(t, primary)
			follower := newProtoCache(t, backend)
			fo := fastFollower(t, pr.Addr(), follower)

			waitCond(t, "follower streaming", func() bool { return fo.Stats().State == "streaming" })

			// The far-future expiry rides in aux[31:0]; flags in meta.
			farFuture := uint32(time.Now().Unix() + 86400)
			if err := primary.Set([]byte("plain"), []byte("hello"), 42, farFuture); err != nil {
				t.Fatal(err)
			}
			if _, err := primary.Add([]byte("ctr"), []byte("10"), 0, 0); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if _, err := primary.Incr([]byte("ctr"), 3); err != nil {
					t.Fatal(err)
				}
			}
			casV, err := primary.SetCAS([]byte("chain"), []byte("v1"), 7, 0)
			if err != nil {
				t.Fatal(err)
			}
			casV, err = primary.CompareAndSwap([]byte("chain"), []byte("v2"), 7, 0, casV)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := primary.Append([]byte("chain"), []byte("+tail"), 0); err != nil {
				t.Fatal(err)
			}
			if err := primary.Set([]byte("gone"), []byte("x"), 0, 0); err != nil {
				t.Fatal(err)
			}
			if !primary.Delete([]byte("gone")) {
				t.Fatal("delete missed")
			}
			if _, ok := primary.Touch([]byte("plain"), farFuture+100); !ok {
				t.Fatal("touch missed")
			}

			// Every mutation above returned after WaitAcked, and the follower
			// was in sync throughout — the acked frontier must already be
			// applied (allow a beat for the coalesced meta/ack bookkeeping).
			waitCond(t, "follower caught up", func() bool {
				return fo.Stats().Seq == pr.Stats().Seq
			})

			// Byte-faithful: value, flags, and the whole aux word (CAS unique
			// + expiry) identical on both sides, for every live key.
			for _, key := range []string{"plain", "ctr", "chain"} {
				pv, pf, pa := itemAux(t, primary, key)
				fv, ff, fa := itemAux(t, follower, key)
				if !bytes.Equal(pv, fv) || pf != ff || pa != fa {
					t.Fatalf("%q diverged: primary (%q,%d,%#x) vs follower (%q,%d,%#x)",
						key, pv, pf, pa, fv, ff, fa)
				}
			}
			if _, _, ok := follower.Get([]byte("gone")); ok {
				t.Fatal("deleted key lingers on the follower")
			}
			if v, _, ok := follower.Get([]byte("ctr")); !ok || string(v) != "25" {
				t.Fatalf("counter on follower = %q, want 25", v)
			}

			// Promote: the follower stops, clears its resume point, and its
			// CAS chain continues the primary's generation sequence.
			_, _, chainAux := itemAux(t, follower, "chain")
			if err := fo.Promote(); err != nil {
				t.Fatal(err)
			}
			if runID, seq := follower.ReplMeta(); runID != 0 || seq != 0 {
				t.Fatalf("promoted follower kept resume point (%d, %d)", runID, seq)
			}
			newCAS, err := follower.SetCAS([]byte("chain"), []byte("v3"), 7, 0)
			if err != nil {
				t.Fatal(err)
			}
			if want := uint64(auxCAS(chainAux)) + 1; newCAS != want {
				t.Fatalf("promoted CAS chain broke: got %d, want %d", newCAS, want)
			}
			_ = casV
		})
	}
}

// TestReplicationResnapshotConverges reconnects a follower that missed
// deletes while away: the re-snapshot must clear them (no lingering keys).
func TestReplicationResnapshotConverges(t *testing.T) {
	primary := newProtoCache(t, "mem")
	// Tiny replay ring: the 64 fill ops below push the offline follower's
	// position out of it, forcing the reconnect down the re-snapshot path.
	pr := repl.NewPrimary(primary, repl.Options{
		RingSize:   16,
		AckTimeout: 2 * time.Second,
		Heartbeat:  20 * time.Millisecond,
	})
	if err := pr.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pr.Close() })
	primary.SetReplication(pr, func() ReplStats {
		st := pr.Stats()
		return ReplStats{State: st.State, Seq: st.Seq, LagOps: st.LagOps, Reconnects: st.Accepts}
	})
	follower := newProtoCache(t, "mem")
	fo := fastFollower(t, pr.Addr(), follower)
	waitCond(t, "follower streaming", func() bool { return fo.Stats().State == "streaming" })

	primary.Set([]byte("stays"), []byte("a"), 0, 0)
	primary.Set([]byte("goes"), []byte("b"), 0, 0)
	waitCond(t, "initial sync", func() bool { return fo.Stats().Seq == pr.Stats().Seq })
	fo.Close()

	// While the follower is away: delete one key and push the stream far
	// past the replay ring so the reconnect becomes a fresh snapshot.
	primary.Delete([]byte("goes"))
	for i := 0; i < 64; i++ {
		primary.Set([]byte(fmt.Sprintf("fill%d", i)), []byte("x"), 0, 0)
	}

	fo2 := fastFollower(t, pr.Addr(), follower)
	waitCond(t, "follower resynced", func() bool {
		return fo2.Stats().State == "streaming" && fo2.Stats().Seq == pr.Stats().Seq
	})
	if _, _, ok := follower.Get([]byte("goes")); ok {
		t.Fatal("key deleted during downtime lingers after re-snapshot")
	}
	if v, _, ok := follower.Get([]byte("stays")); !ok || string(v) != "a" {
		t.Fatalf("surviving key lost in re-snapshot: %q", v)
	}
}

// TestReplStatsConformance pins the exact stats table, on both backends,
// for an idle cache that is not replicating: the contract the failover and
// capacity tooling greps. The pool_bytes_* rows carry live values, so they
// are interpolated from a Stats() snapshot taken before the request (the
// cache is idle in between — the table must match byte-exactly).
func TestReplStatsConformance(t *testing.T) {
	for _, backend := range protoBackends {
		t.Run(backend, func(t *testing.T) {
			m := newProtoCache(t, backend)
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
			st := m.Stats()
			if _, err := conn.Write([]byte("stats\r\n")); err != nil {
				t.Fatal(err)
			}
			want := "STAT cmd_get 0\r\nSTAT cmd_set 0\r\nSTAT cmd_touch 0\r\nSTAT cmd_flush 0\r\n" +
				"STAT get_hits 0\r\nSTAT get_misses 0\r\n" +
				"STAT cas_hits 0\r\nSTAT cas_badval 0\r\nSTAT cas_misses 0\r\n" +
				"STAT evictions 0\r\nSTAT evictions_bytes 0\r\n" +
				"STAT crawler_reclaimed 0\r\nSTAT curr_items 0\r\n" +
				"STAT grow_count 0\r\n" +
				fmt.Sprintf("STAT pool_bytes_total %d\r\nSTAT pool_bytes_used %d\r\n",
					st.PoolBytesTotal, st.PoolBytesUsed) +
				"STAT repl_seq 0\r\nSTAT repl_lag_ops 0\r\nSTAT repl_reconnects 0\r\n" +
				"STAT repl_state none\r\nEND\r\n"
			expectExact(t, conn, []byte(want))
		})
	}
}

// TestCapacityStatsBinary pins the capacity rows on the binary protocol,
// both backends, and requires them to agree with the text table.
func TestCapacityStatsBinary(t *testing.T) {
	for _, backend := range protoBackends {
		t.Run(backend, func(t *testing.T) {
			m := newProtoCache(t, backend)
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
			st := m.Stats()
			if _, err := conn.Write(binFrame(binOpStat, 7, 0, nil, nil, nil)); err != nil {
				t.Fatal(err)
			}
			rows := make(map[string]string)
			for {
				var hdr [binHeaderLen]byte
				if _, err := io.ReadFull(conn, hdr[:]); err != nil {
					t.Fatal(err)
				}
				keyLen := int(binary.BigEndian.Uint16(hdr[2:]))
				bodyLen := int(binary.BigEndian.Uint32(hdr[8:]))
				if bodyLen == 0 {
					break
				}
				body := make([]byte, bodyLen)
				if _, err := io.ReadFull(conn, body); err != nil {
					t.Fatal(err)
				}
				rows[string(body[:keyLen])] = string(body[keyLen:])
			}
			want := map[string]string{
				"evictions_bytes":   "0",
				"crawler_reclaimed": "0",
				"grow_count":        "0",
				"pool_bytes_total":  fmt.Sprint(st.PoolBytesTotal),
				"pool_bytes_used":   fmt.Sprint(st.PoolBytesUsed),
			}
			for k, w := range want {
				if rows[k] != w {
					t.Fatalf("binary stat %s = %q, want %q", k, rows[k], w)
				}
			}
		})
	}
}

// TestReplStatsLive asserts the repl rows of an actively replicating pair:
// primary reports streaming with the published frontier, follower reports
// streaming with the applied seq.
func TestReplStatsLive(t *testing.T) {
	primary := newProtoCache(t, "mem")
	pr := fastPrimary(t, primary)
	follower := newProtoCache(t, "mem")
	fo := fastFollower(t, pr.Addr(), follower)
	waitCond(t, "follower streaming", func() bool { return fo.Stats().State == "streaming" })
	for i := 0; i < 10; i++ {
		primary.Set([]byte(fmt.Sprintf("k%d", i)), []byte("v"), 0, 0)
	}
	waitCond(t, "follower caught up", func() bool { return fo.Stats().Seq == pr.Stats().Seq })

	for _, tc := range []struct {
		name string
		m    *Cache
	}{{"primary", primary}, {"follower", follower}} {
		rows := statsRows(t, tc.m)
		if rows["repl_state"] != "streaming" {
			t.Fatalf("%s repl_state = %q, want streaming", tc.name, rows["repl_state"])
		}
		if rows["repl_seq"] != "10" {
			t.Fatalf("%s repl_seq = %q, want 10", tc.name, rows["repl_seq"])
		}
		if rows["repl_lag_ops"] != "0" {
			t.Fatalf("%s repl_lag_ops = %q, want 0", tc.name, rows["repl_lag_ops"])
		}
	}
}

// statsRows serves one `stats` command against m and parses the table.
func statsRows(t *testing.T, m *Cache) map[string]string {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", 2, m, m.Stats)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write([]byte("stats\r\n")); err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]string)
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		line := strings.TrimRight(sc.Text(), "\r")
		if line == "END" {
			return rows
		}
		f := strings.Fields(line)
		if len(f) == 3 && f[0] == "STAT" {
			rows[f[1]] = f[2]
		}
	}
	t.Fatalf("stats stream ended early: %v", sc.Err())
	return nil
}

// TestReadOnlyServer pins the replica's refusal surface on both protocols:
// reads pass, every mutation is refused in a protocol-shaped way, and
// SetReadOnly(false) (promotion) restores writes.
func TestReadOnlyServer(t *testing.T) {
	m := newProtoCache(t, "mem")
	if err := m.Set([]byte("seeded"), []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", 4, m, m.Stats)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.SetReadOnly(true)

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(30 * time.Second))

	ro := "SERVER_ERROR replica is read-only\r\n"
	steps := []protoStep{
		{"get seeded\r\n", "VALUE seeded 0 1\r\nv\r\nEND\r\n"},
		{"set k 0 0 1\r\nx\r\n", ro},
		{"add k 0 0 1\r\nx\r\n", ro},
		{"cas k 0 0 1 1\r\nx\r\n", ro},
		{"delete seeded\r\n", ro},
		{"incr seeded 1\r\n", ro},
		{"touch seeded 100\r\n", ro},
		{"gat 100 seeded\r\n", ro},
		{"flush_all\r\n", ro},
		{"set k 0 0 1 noreply\r\nx\r\n", ""}, // noreply: refused silently
		{"get k\r\n", "END\r\n"},             // ...and really not stored
		{"get seeded\r\n", "VALUE seeded 0 1\r\nv\r\nEND\r\n"},
	}
	var want strings.Builder
	for _, st := range steps {
		if _, err := conn.Write([]byte(st.send)); err != nil {
			t.Fatal(err)
		}
		want.WriteString(st.want)
	}
	expectExact(t, conn, []byte(want.String()))

	// Binary SET is refused with NOT_STORED and an explanatory body.
	bc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bc.Close() })
	bc.SetDeadline(time.Now().Add(30 * time.Second))
	req := make([]byte, binHeaderLen+8+1+1)
	req[0] = binMagicReq
	req[1] = binOpSet
	req[3] = 1 // key length
	req[4] = 8 // extras length
	req[11] = 10
	copy(req[binHeaderLen+8:], "kx")
	if _, err := bc.Write(req); err != nil {
		t.Fatal(err)
	}
	resp := make([]byte, binHeaderLen+len("replica is read-only"))
	if _, err := io.ReadFull(bc, resp); err != nil {
		t.Fatal(err)
	}
	if status := binary.BigEndian.Uint16(resp[6:]); status != binStatusNotStored {
		t.Fatalf("binary readonly status = %#x, want NOT_STORED", status)
	}
	if got := string(resp[binHeaderLen:]); got != "replica is read-only" {
		t.Fatalf("binary readonly body = %q", got)
	}

	// Promotion flips the gate off.
	srv.SetReadOnly(false)
	conn2, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn2.Close() })
	conn2.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := conn2.Write([]byte("set k 0 0 1\r\nx\r\n")); err != nil {
		t.Fatal(err)
	}
	expectExact(t, conn2, []byte("STORED\r\n"))
}
