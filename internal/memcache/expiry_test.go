package memcache

import (
	"fmt"
	"testing"
	"time"
)

func testCache(t *testing.T) *Cache {
	t.Helper()
	c, err := New(Config{MemoryBytes: 64 << 20, Buckets: 1 << 10, MaxConns: 4})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestExpirySweep: the sweep removes exactly the items whose deadline has
// passed, via the ordered expiry index rather than a full-table walk.
func TestExpirySweep(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		c := newCacheN(t, shards)
		now := time.Now().Unix()

		// Enough overdue items that every shard's index holds some.
		const dead = 100
		for i := 0; i < dead; i++ {
			key := []byte(fmt.Sprintf("dead-%d", i))
			if err := c.Set(key, []byte("x"), 0, uint32(now-int64(i)-1)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ {
			key := []byte(fmt.Sprintf("live-%d", i))
			if err := c.Set(key, []byte("y"), 0, uint32(now+3600)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Set([]byte("forever"), []byte("z"), 0, 0); err != nil {
			t.Fatal(err)
		}

		if n := c.SweepExpired(now); n != dead {
			t.Fatalf("SweepExpired = %d, want %d", n, dead)
		}
		st := c.Stats()
		if st.Expired != dead || st.Items != 6 {
			t.Fatalf("stats after sweep: expired=%d items=%d", st.Expired, st.Items)
		}
		for i := 0; i < dead; i++ {
			if _, _, ok := c.Get([]byte(fmt.Sprintf("dead-%d", i))); ok {
				t.Fatalf("expired item dead-%d still served", i)
			}
		}
		for i := 0; i < 5; i++ {
			if _, _, ok := c.Get([]byte(fmt.Sprintf("live-%d", i))); !ok {
				t.Fatalf("live item live-%d swept", i)
			}
		}
		if _, _, ok := c.Get([]byte("forever")); !ok {
			t.Fatal("no-expiry item swept")
		}
		// A second sweep finds nothing — the index was consumed.
		if n := c.SweepExpired(now); n != 0 {
			t.Fatalf("second SweepExpired = %d, want 0", n)
		}
		if c.exp.Len() != 5 {
			t.Fatalf("expiry index holds %d entries, want 5 (the live deadlines)", c.exp.Len())
		}
	})
}

// TestExpirySweepStaleEntries: rewrites and touches leave no index entry
// that could sweep a live item away.
func TestExpirySweepStaleEntries(t *testing.T) {
	c := testCache(t)
	now := time.Now().Unix()

	// Item indexed at a near deadline, then rewritten with a far one.
	if err := c.Set([]byte("k"), []byte("v1"), 0, uint32(now+1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Set([]byte("k"), []byte("v2"), 0, uint32(now+3600)); err != nil {
		t.Fatal(err)
	}
	// Item touched from near to far.
	if err := c.Set([]byte("k2"), []byte("w1"), 0, uint32(now+1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Touch([]byte("k2"), uint32(now+3600)); !ok {
		t.Fatal("touch failed")
	}
	if n := c.SweepExpired(now + 10); n != 0 {
		t.Fatalf("sweep removed %d items via stale deadlines", n)
	}
	if v, _, ok := c.Get([]byte("k")); !ok || string(v) != "v2" {
		t.Fatalf("rewritten item: %q,%v", v, ok)
	}
	if v, _, ok := c.Get([]byte("k2")); !ok || string(v) != "w1" {
		t.Fatalf("touched item: %q,%v", v, ok)
	}
	// Touch into the past makes the item sweepable.
	if _, ok := c.Touch([]byte("k2"), uint32(now-5)); !ok {
		t.Fatal("touch into past failed")
	}
	if n := c.SweepExpired(now); n != 1 {
		t.Fatalf("sweep after past touch = %d, want 1", n)
	}
}

// TestExpirySweepSurvivesCrash: deadlines are durable — after a crash and
// recovery, the sweep still removes exactly the overdue items.
func TestExpirySweepSurvivesCrash(t *testing.T) {
	cfg := Config{MemoryBytes: 64 << 20, Buckets: 1 << 10, MaxConns: 4}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().Unix()
	for i := 0; i < 8; i++ {
		if err := c.Set([]byte(fmt.Sprintf("dead-%d", i)), []byte("x"), 0, uint32(now-1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Set([]byte("live"), []byte("y"), 0, uint32(now+3600)); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	c.Device().Crash()

	c2, _, err := Recover(c.Device(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := c2.SweepExpired(now); n != 8 {
		t.Fatalf("post-crash sweep = %d, want 8", n)
	}
	if _, _, ok := c2.Get([]byte("live")); !ok {
		t.Fatal("live item lost across crash+sweep")
	}
	if st := c2.Stats(); st.Items != 1 {
		t.Fatalf("items after post-crash sweep = %d", st.Items)
	}
}

// TestSweeperGoroutine: the background sweeper expires items without any
// client touching them.
func TestSweeperGoroutine(t *testing.T) {
	c := testCache(t)
	now := time.Now().Unix()
	if err := c.Set([]byte("soon"), []byte("x"), 0, uint32(now-1)); err != nil {
		t.Fatal(err)
	}
	stop := c.StartSweeper(5 * time.Millisecond)
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if c.Stats().Expired == 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("sweeper never expired the item")
}
