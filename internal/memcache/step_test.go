package memcache

// Every key command is one step of its key (logfree's ByteMap.Update): one
// session, one index hash, one stripe lock and one search per command, with a
// deadline or without; and nothing is allocated on the paths a replaced,
// touched, deleted or read key takes.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/logfree"
)

// withinDeadline runs f on its own goroutine and fails the test if it has
// not returned within d: a command waiting for a lock or a session that
// never frees fails here instead of hanging the suite.
func withinDeadline(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not complete within %v: a deadlock", what, d)
	}
}

// TestExpiringCommandsOnOneStripe forces every key onto one index hash, so
// every key shares one stripe: the commands that carry a deadline, and the
// sweep that removes what is due, must still complete — none may take a
// second stripe while it holds its key's.
func TestExpiringCommandsOnOneStripe(t *testing.T) {
	logfree.SetHashForTesting(func([]byte) uint64 { return logfree.MinKey })
	defer logfree.SetHashForTesting(nil)
	forShards(t, func(t *testing.T, shards int) {
		m := newCacheN(t, shards)
		key, exp := []byte("nested"), uint32(time.Now().Unix()+3600)
		withinDeadline(t, 10*time.Second, "Set with an expiry", func() {
			if err := m.Set(key, []byte("v"), 0, exp); err != nil {
				t.Error(err)
			}
		})
		withinDeadline(t, 10*time.Second, "Touch to a new expiry", func() {
			if _, ok := m.Touch(key, exp+60); !ok {
				t.Error("Touch missed")
			}
		})
		withinDeadline(t, 10*time.Second, "Delete of an expiring item", func() {
			if !m.Delete(key) {
				t.Error("Delete missed")
			}
		})
		withinDeadline(t, 10*time.Second, "SweepExpired over an item that expired", func() {
			if err := m.Set(key, []byte("v"), 0, uint32(time.Now().Unix()-1)); err != nil {
				t.Error(err)
			}
			if n := m.SweepExpired(time.Now().Unix()); n != 1 {
				t.Errorf("SweepExpired removed %d items, want 1", n)
			}
		})
	})
}

// TestExpiringSetsOnOneSession runs concurrent expiring Sets, which evict,
// on a shard formatted with one operation context: no command may hold a
// context while it draws another, or it waits forever for one.
func TestExpiringSetsOnOneSession(t *testing.T) {
	cfg := Config{MemoryBytes: 4 << 20, Buckets: 1024}
	cfg.fill()
	rt, err := logfree.New(logfree.WithSize(cfg.MemoryBytes), logfree.WithMaxThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := openCache(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	key := func(i int) []byte { return fmt.Appendf(nil, "one-session-%05d", i) }
	v := bytes.Repeat([]byte("v"), 200)
	for i := 0; m.Stats().Evictions == 0; i++ {
		if err := m.Set(key(i), v, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	exp := uint32(time.Now().Unix() + 3600)
	withinDeadline(t, 30*time.Second, "expiring Sets on one session", func() {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					if err := m.Set(key(w*1000+i%50), v, 0, exp+uint32(i)); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	})
	if n := rt.Sessions(); n != 1 {
		t.Fatalf("the runtime has %d contexts; the test needs exactly one", n)
	}
}

// TestStepStressAccounting mixes every mutation kind, each with an expiry,
// from four goroutines over 64 keys while the MaxBytes valve evicts. Once
// they are done the volatile totals must match a recount of the index.
func TestStepStressAccounting(t *testing.T) {
	const keys, workers = 64, 4
	ops := 4000
	if testing.Short() {
		ops = 1000
	}
	key := func(i int) []byte { return fmt.Appendf(nil, "stress-%02d", i) }
	m, err := New(Config{MemoryBytes: 64 << 20, Buckets: 1024, MaxConns: workers,
		MaxBytes: uint64(keys / 2 * footprint(len(key(0)), 64))})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	exp := uint32(time.Now().Unix() + 3600)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for op := 0; op < ops; op++ {
				k := key(rng.Intn(keys))
				v := strconv.AppendUint(nil, uint64(rng.Intn(1000)), 10)
				v = append(v, bytes.Repeat([]byte{'x'}, rng.Intn(2)*rng.Intn(96))...)
				var err error
				switch rng.Intn(7) {
				case 0:
					err = m.Set(k, v, 0, exp+uint32(rng.Intn(8)))
				case 1:
					_, err = m.Add(k, v, 0, exp)
				case 2:
					if _, _, cas, ok := m.Gets(k); ok {
						_, err = m.CompareAndSwap(k, v, 0, exp, cas)
					}
				case 3:
					_, err = m.Append(k, []byte("1"), 0)
				case 4:
					_, _, err = m.IncrDecrCAS(k, 1, 7, exp, true, false)
				case 5:
					m.Touch(k, exp+uint32(rng.Intn(8)))
				case 6:
					m.Delete(k)
				}
				if err != nil && !errors.Is(err, ErrNotStored) && !errors.Is(err, ErrNotFound) &&
					!errors.Is(err, ErrCASConflict) && !errors.Is(err, ErrNotNumber) && !errors.Is(err, ErrTooLarge) {
					t.Error(err)
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	if m.Stats().Evictions == 0 {
		t.Fatal("the MaxBytes valve never evicted")
	}
	var items, used int64
	for cursor := uint64(0); ; {
		cursor = m.m.Walk(cursor, func(e logfree.Entry) bool {
			items++
			used += footprint(len(e.Key), e.ValueLen)
			return true
		})
		if cursor == 0 {
			break
		}
	}
	if got := m.Stats().Items; got != items {
		t.Errorf("Stats().Items = %d, the index holds %d", got, items)
	}
	if got := m.UsedBytes(); got != used {
		t.Errorf("UsedBytes() = %d, the index holds %d", got, used)
	}
}

// TestOneHashPerKeyCommand counts index-hash calls: each key command of a
// one-shard cache, with a deadline or without, hashes its key exactly once.
func TestOneHashPerKeyCommand(t *testing.T) {
	var calls atomic.Int64
	logfree.SetHashForTesting(func(k []byte) uint64 {
		calls.Add(1)
		return core.DefaultBytesHash(k)
	})
	defer logfree.SetHashForTesting(nil)
	m := newCache(t)
	defer m.Close()
	key, other, v := []byte("hashed"), []byte("hashed-too"), []byte("value")
	if err := m.Set(other, v, 0, 0); err != nil {
		t.Fatal(err)
	}
	exp := uint32(time.Now().Unix() + 3600)
	var cas uint64
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"Set", func() error { return m.Set(key, v, 0, 0) }},
		{"Get", func() error {
			_, _, cas, _ = m.Gets(key)
			return nil
		}},
		{"Add", func() error { _, err := m.Add(key, v, 0, 0); return ignore(err, ErrNotStored) }},
		{"Replace", func() error { _, err := m.Replace(key, v, 0, 0); return err }},
		{"CompareAndSwap", func() error { _, err := m.CompareAndSwap(key, v, 0, 0, cas); return ignore(err, ErrCASConflict) }},
		{"Touch", func() error {
			if _, ok := m.Touch(key, 0); !ok {
				return ErrNotFound
			}
			return nil
		}},
		{"Delete", func() error {
			if !m.Delete(other) {
				return ErrNotFound
			}
			return nil
		}},
		{"Set with a deadline", func() error { return m.Set(key, v, 0, exp) }},
		{"Touch to a new deadline", func() error {
			if _, ok := m.Touch(key, exp+60); !ok {
				return ErrNotFound
			}
			return nil
		}},
		{"Delete of an expiring key", func() error {
			if !m.Delete(key) {
				return ErrNotFound
			}
			return nil
		}},
	} {
		calls.Store(0)
		if err := c.run(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n := calls.Load(); n != 1 {
			t.Errorf("%s hashed its key %d times, want once", c.name, n)
		}
	}
}

// ignore is err unless it is target.
func ignore(err, target error) error {
	if errors.Is(err, target) {
		return nil
	}
	return err
}

// TestSetDeleteAllocs: a Set replacing a key, with a deadline or without, a
// Touch, and a Delete with the re-Set after it, allocate nothing.
func TestSetDeleteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	m := newCache(t)
	defer m.Close()
	key, v := []byte("allocs"), []byte("allocation-free value")
	if err := m.Set(key, v, 0, 0); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(500, func() {
		if err := m.Set(key, v, 0, 0); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Set replacing a key: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(500, func() {
		if !m.Delete(key) {
			t.Fatal("Delete missed")
		}
		if err := m.Set(key, v, 0, 0); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Delete and re-Set: %v allocations, want 0", n)
	}
	exp := uint32(time.Now().Unix() + 3600)
	for _, c := range []struct {
		name string
		run  func(i int) error
	}{
		{"Set replacing a key with a new deadline", func(i int) error { return m.Set(key, v, 0, exp+uint32(i)) }},
		{"Set replacing a key with its deadline", func(int) error { return m.Set(key, v, 0, exp) }},
		{"Touch to a new deadline", func(i int) error {
			if _, ok := m.Touch(key, exp+uint32(i)); !ok {
				return ErrNotFound
			}
			return nil
		}},
	} {
		i := 0
		if n := testing.AllocsPerRun(500, func() {
			i++
			if err := c.run(i); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocations, want 0", c.name, n)
		}
	}
}

// TestWireGetAllocs: a text get served through the connection loop reads
// its value into the connection's buffer, allocating nothing.
func TestWireGetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	srv := fuzzServer(t)
	if err := srv.base().Set([]byte("wire-allocs"), bytes.Repeat([]byte("v"), 100), 0, 0); err != nil {
		t.Fatal(err)
	}
	c := connPool.Get().(*connState)
	defer connPool.Put(c)
	input := []byte("get wire-allocs\r\n")
	r := bytes.NewReader(input)
	if n := testing.AllocsPerRun(500, func() {
		r.Reset(input)
		srv.serveStream(c, r, io.Discard)
	}); n != 0 {
		t.Errorf("a served get: %v allocations, want 0", n)
	}
}
