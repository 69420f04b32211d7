package memcache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/nvram"
	"repro/logfree"
)

func newCache(t *testing.T) *Cache {
	t.Helper()
	m, err := New(Config{MemoryBytes: 64 << 20, Buckets: 1024, MaxConns: 8})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// forShards runs f once per pool topology the suite covers: the paper's
// single hash table and a hash-routed pool.
func forShards(t *testing.T, f func(t *testing.T, shards int)) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { f(t, n) })
	}
}

func newCacheN(t *testing.T, shards int) *Cache {
	t.Helper()
	m, err := New(Config{MemoryBytes: 64 << 20, Buckets: 4096, MaxConns: 8, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func TestSetGetDelete(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		m := newCacheN(t, shards)
		if got := m.Pool().Shards(); got != shards {
			t.Fatalf("pool has %d shards, want %d", got, shards)
		}
		// The sole shard's runtime and device are exposed; a wider pool has
		// no single one to expose.
		if sole := shards == 1; (m.Runtime() != nil) != sole || (m.Device() != nil) != sole {
			t.Fatalf("Runtime() = %v, Device() = %v at %d shards", m.Runtime(), m.Device(), shards)
		}
		if err := m.Set([]byte("hello"), []byte("world"), 7, 0); err != nil {
			t.Fatal(err)
		}
		v, fl, ok := m.Get([]byte("hello"))
		if !ok || string(v) != "world" || fl != 7 {
			t.Fatalf("Get = %q,%d,%v", v, fl, ok)
		}
		if _, _, ok := m.Get([]byte("nope")); ok {
			t.Fatal("missing key found")
		}
		if !m.Delete([]byte("hello")) {
			t.Fatal("delete failed")
		}
		if _, _, ok := m.Get([]byte("hello")); ok {
			t.Fatal("deleted key still present")
		}
		if m.Delete([]byte("hello")) {
			t.Fatal("double delete succeeded")
		}
	})
}

func TestOverwrite(t *testing.T) {
	m := newCache(t)
	m.Set([]byte("k"), []byte("v1"), 0, 0)
	m.Set([]byte("k"), []byte("v2-longer"), 1, 0)
	v, fl, ok := m.Get([]byte("k"))
	if !ok || string(v) != "v2-longer" || fl != 1 {
		t.Fatalf("after overwrite: %q,%d,%v", v, fl, ok)
	}
	if st := m.Stats(); st.Items != 1 {
		t.Fatalf("Items = %d, want 1", st.Items)
	}
}

func TestManyKeysAndValues(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		m := newCacheN(t, shards)
		for i := 0; i < 2000; i++ {
			key := []byte(fmt.Sprintf("key-%04d", i))
			val := bytes.Repeat([]byte{byte(i)}, 1+i%500)
			if err := m.Set(key, val, uint16(i), 0); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2000; i++ {
			key := []byte(fmt.Sprintf("key-%04d", i))
			v, fl, ok := m.Get(key)
			if !ok || fl != uint16(i) || !bytes.Equal(v, bytes.Repeat([]byte{byte(i)}, 1+i%500)) {
				t.Fatalf("key %d corrupt: ok=%v fl=%d len=%d", i, ok, fl, len(v))
			}
		}
		if st := m.Stats(); st.Items != 2000 {
			t.Fatalf("Items = %d, want 2000", st.Items)
		}
	})
}

func TestValueTooLarge(t *testing.T) {
	m := newCache(t)
	if err := m.Set([]byte("k"), make([]byte, 4096), 0, 0); err == nil {
		t.Fatal("oversized value accepted")
	}
}

func TestExpiry(t *testing.T) {
	m := newCache(t)
	past := uint32(time.Now().Add(-time.Hour).Unix())
	m.Set([]byte("old"), []byte("v"), 0, past)
	if _, _, ok := m.Get([]byte("old")); ok {
		t.Fatal("expired item served")
	}
}

func TestEvictionUnderMemoryPressure(t *testing.T) {
	m, err := New(Config{MemoryBytes: 4 << 20, Buckets: 256, MaxConns: 2})
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 1024)
	for i := 0; i < 20000; i++ {
		key := []byte(fmt.Sprintf("fill-%06d", i))
		if err := m.Set(key, val, 0, 0); err != nil {
			t.Fatalf("set %d failed despite eviction: %v", i, err)
		}
	}
	if m.Stats().Evictions == 0 {
		t.Fatal("no evictions under memory pressure")
	}
	// Most recent key must be present.
	if _, _, ok := m.Get([]byte("fill-019999")); !ok {
		t.Fatal("most recent key evicted")
	}
}

func TestConcurrentClients(t *testing.T) {
	m := newCache(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := []byte(fmt.Sprintf("w%d-%d", w, i))
				if err := m.Set(key, key, 0, 0); err != nil {
					t.Error(err)
					return
				}
				if v, _, ok := m.Get(key); !ok || !bytes.Equal(v, key) {
					t.Errorf("w%d readback %d failed", w, i)
					return
				}
				if i%3 == 0 {
					m.Delete(key)
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestCrashRecovery(t *testing.T) {
	m := newCache(t)
	for i := 0; i < 1000; i++ {
		key := []byte(fmt.Sprintf("persist-%d", i))
		m.Set(key, []byte(fmt.Sprintf("value-%d", i)), 0, 0)
	}
	for i := 0; i < 1000; i += 4 {
		m.Delete([]byte(fmt.Sprintf("persist-%d", i)))
	}
	m.Flush() // completed operations become durable at the latest here
	m.Device().Crash()

	dev := m.Device()
	m2, stats, err := Recover(dev, Config{MemoryBytes: 64 << 20, MaxConns: 4})
	if err != nil {
		t.Fatal(err)
	}
	_ = stats // after an orderly Flush the APT may legitimately be empty
	// The recovered cache is the same one-shard topology on the same device.
	if m2.Pool().Shards() != 1 || m2.Runtime() == nil || m2.Device() != dev || !m2.Recovered() {
		t.Fatalf("recovered cache: shards=%d runtime=%v device=%p (want %p) recovered=%v",
			m2.Pool().Shards(), m2.Runtime(), m2.Device(), dev, m2.Recovered())
	}
	for i := 0; i < 1000; i++ {
		key := []byte(fmt.Sprintf("persist-%d", i))
		v, _, ok := m2.Get(key)
		want := i%4 != 0
		if ok != want {
			t.Fatalf("key %d after recovery: present=%v want %v", i, ok, want)
		}
		if ok && string(v) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("key %d value corrupt after recovery: %q", i, v)
		}
	}
	if m2.Stats().Items != 750 {
		t.Fatalf("recovered Items = %d, want 750", m2.Stats().Items)
	}
}

func TestRecoveryAfterAbruptCrash(t *testing.T) {
	// Crash without an orderly Flush: with the link cache on, the most
	// recent sets may be legitimately lost (their durability was deferred),
	// but nothing may be corrupted — every surviving key reads back exactly,
	// the early flushed key must survive, and the rebuilt item count must
	// match the live contents.
	m := newCache(t)
	m.Set([]byte("live"), []byte("v"), 0, 0)
	m.Flush()
	for i := 0; i < 100; i++ {
		m.Set([]byte(fmt.Sprintf("burst-%d", i)), []byte(fmt.Sprintf("bv-%d", i)), 0, 0)
	}
	m.Device().Crash()
	m2, _, err := Recover(m.Device(), Config{MemoryBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if v, _, ok := m2.Get([]byte("live")); !ok || string(v) != "v" {
		t.Fatalf("flushed item lost or corrupt: %q,%v", v, ok)
	}
	live := int64(1)
	for i := 0; i < 100; i++ {
		v, _, ok := m2.Get([]byte(fmt.Sprintf("burst-%d", i)))
		if !ok {
			continue // legitimately lost: its durability was still deferred
		}
		live++
		if string(v) != fmt.Sprintf("bv-%d", i) {
			t.Fatalf("burst-%d corrupt after crash: %q", i, v)
		}
	}
	if got := m2.Stats().Items; got != live {
		t.Fatalf("recovered Items = %d, live contents = %d", got, live)
	}
}

func TestCollidingKeysSurviveCrash(t *testing.T) {
	// Two distinct string keys forced onto one index hash (the v1 clamping
	// hazard, made deterministic): set/get/delete round-trips must stay
	// per-key and survive a crash.
	logfree.SetHashForTesting(func([]byte) uint64 { return logfree.MinKey })
	defer logfree.SetHashForTesting(nil)
	m := newCache(t)
	if err := m.Set([]byte("twin-a"), []byte("value-a"), 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Set([]byte("twin-b"), []byte("value-b"), 2, 0); err != nil {
		t.Fatal(err)
	}
	if v, fl, ok := m.Get([]byte("twin-a")); !ok || string(v) != "value-a" || fl != 1 {
		t.Fatalf("twin-a aliased: %q,%d,%v", v, fl, ok)
	}
	if v, fl, ok := m.Get([]byte("twin-b")); !ok || string(v) != "value-b" || fl != 2 {
		t.Fatalf("twin-b aliased: %q,%d,%v", v, fl, ok)
	}
	m.Flush()
	m.Device().Crash()
	m2, _, err := Recover(m.Device(), Config{MemoryBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if v, _, ok := m2.Get([]byte("twin-a")); !ok || string(v) != "value-a" {
		t.Fatalf("twin-a after crash: %q,%v", v, ok)
	}
	if v, _, ok := m2.Get([]byte("twin-b")); !ok || string(v) != "value-b" {
		t.Fatalf("twin-b after crash: %q,%v", v, ok)
	}
	if !m2.Delete([]byte("twin-a")) {
		t.Fatal("delete of colliding key failed")
	}
	if _, _, ok := m2.Get([]byte("twin-b")); !ok {
		t.Fatal("deleting twin-a took twin-b with it")
	}
}

// TestServerProtocol: a text client's sets and gets over a real socket show
// up in the cache's Stats().
func TestServerProtocol(t *testing.T) {
	m := newCache(t)
	srv, err := NewServer("127.0.0.1:0", 4, m, m.Stats)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := newSmokeClient(t, srv.Addr())
	const n = 50
	for i := 0; i < n; i++ {
		it := &smokeItem{Key: fmt.Sprintf("k%d", i), Value: []byte("0123456789abcdef")}
		if resp := c.store("set", it); resp != "STORED" {
			t.Fatalf("set %s: %q", it.Key, resp)
		}
	}
	for i := 0; i < 2*n; i++ { // the upper half are misses
		_, ok := c.get(fmt.Sprintf("k%d", i))
		if ok != (i < n) {
			t.Fatalf("get k%d: found=%v", i, ok)
		}
	}
	st := m.Stats()
	if st.Sets != n || st.Gets != 2*n || st.Hits != n || st.Misses != n {
		t.Fatalf("server stats after %d sets + %d gets: %+v", n, 2*n, st)
	}
}

func TestHashCollisionChains(t *testing.T) {
	// Force two distinct keys onto the same 64-bit hash by construction:
	// not feasible for FNV without search, so instead verify long chains by
	// stuffing the itHNext path directly through the public API with a tiny
	// bucket count (bucket collisions exercise the list; hash collisions
	// exercise chains — simulate the latter by monkey keys below).
	m := newCache(t)
	// These keys all go through the same code paths; verify a couple of
	// hundred keys with identical prefixes and tiny diffs survive rounds of
	// overwrite + delete without cross-talk.
	for round := 0; round < 3; round++ {
		for i := 0; i < 200; i++ {
			key := []byte(fmt.Sprintf("chain-%d", i))
			if err := m.Set(key, []byte(fmt.Sprintf("r%d-%d", round, i)), 0, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("chain-%d", i))
		v, _, ok := m.Get(key)
		if !ok || string(v) != fmt.Sprintf("r2-%d", i) {
			t.Fatalf("key %d: %q,%v", i, v, ok)
		}
	}
}

// TestImageRoundTrip is the cmd/nvbench image lifecycle in miniature: run,
// save image, load image in a "new process", recover, serve.
func TestImageRoundTrip(t *testing.T) {
	dir := t.TempDir()
	img := dir + "/nvmc.img"
	m := newCache(t)
	for i := 0; i < 200; i++ {
		m.Set([]byte(fmt.Sprintf("key-%d", i)), []byte(fmt.Sprintf("val-%d", i)), 0, 0)
	}
	m.Flush()
	if err := m.Device().SaveImage(img); err != nil {
		t.Fatal(err)
	}

	dev, err := nvram.LoadImage(img, nvram.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := Recover(dev, Config{MemoryBytes: 64 << 20, MaxConns: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		v, _, ok := m2.Get([]byte(fmt.Sprintf("key-%d", i)))
		if !ok || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("key %d after image round trip: %q,%v", i, v, ok)
		}
	}
	if m2.Stats().Items != 200 {
		t.Fatalf("Items = %d, want 200", m2.Stats().Items)
	}
}
