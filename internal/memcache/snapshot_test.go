package memcache

// Live-snapshot fidelity (PR 9): a restored snapshot must reproduce the
// dumped cache byte-faithfully — values, flags, expirations, counter state
// and the per-item CAS chain — and a snapshot taken under heavy writes must
// be a consistent per-item cut (value and CAS from the SAME mutation).

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"
)

// dumpItems collects the cache's full item state (value, flags, raw aux) for
// byte-exact comparison.
func dumpItems(t *testing.T, m *Cache) map[string][3]string {
	t.Helper()
	out := make(map[string][3]string)
	err := m.forEachItem(func(key, value []byte, flags uint16, aux uint64) error {
		out[string(key)] = [3]string{string(value), fmt.Sprint(flags), fmt.Sprint(aux)}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSnapshotIssuesNoDeviceWrites is why a live snapshot is cheap: the walk
// only reads, so once the cache is flushed a full dump leaves every device
// counter where it was — no write-back, no fence, no sync wait.
func TestSnapshotIssuesNoDeviceWrites(t *testing.T) {
	m := newCache(t)
	defer m.Close()
	const n = 2000
	for i := 0; i < n; i++ {
		if err := m.Set([]byte(fmt.Sprintf("snap-%04d", i)), []byte("0123456789abcdef"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	m.Flush()
	before := m.Device().Stats()
	items, err := m.Snapshot(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if items != n {
		t.Fatalf("Snapshot wrote %d items, want %d", items, n)
	}
	if after := m.Device().Stats(); after != before {
		t.Fatalf("device stats moved across Snapshot: %+v -> %+v", before, after)
	}
}

func TestSnapshotRestoreFidelity(t *testing.T) {
	m := newCache(t)
	defer m.Close()

	future := uint32(time.Now().Add(time.Hour).Unix())
	for i := 0; i < 500; i++ {
		key := []byte(fmt.Sprintf("fid-%04d", i))
		val := bytes.Repeat([]byte{byte(i)}, 1+i%700)
		var exp uint32
		if i%3 == 0 {
			exp = future
		}
		if err := m.Set(key, val, uint16(i), exp); err != nil {
			t.Fatal(err)
		}
	}
	// A mutation chain so restored CAS uniques must carry history, not 1.
	for i := 0; i < 7; i++ {
		if _, err := m.SetCAS([]byte("chain"), []byte(fmt.Sprintf("rev-%d", i)), 9, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Counter state (incr/decr operate on decimal strings + the CAS chain).
	if err := m.Set([]byte("counter"), []byte("40"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Incr([]byte("counter"), 2); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	n, err := m.Snapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 502 {
		t.Fatalf("Snapshot wrote %d items, want 502", n)
	}

	r := newCache(t)
	defer r.Close()
	got, err := r.RestoreSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("restored %d items, snapshot carried %d", got, n)
	}

	want, have := dumpItems(t, m), dumpItems(t, r)
	if len(have) != len(want) {
		t.Fatalf("restored cache has %d items, want %d", len(have), len(want))
	}
	for k, w := range want {
		if have[k] != w {
			t.Fatalf("item %q differs after restore: got %v, want %v", k, have[k], w)
		}
	}
	if r.Stats().Items != m.Stats().Items {
		t.Fatalf("Items = %d, want %d", r.Stats().Items, m.Stats().Items)
	}

	// The restored CAS chain must keep working: a cas with the restored
	// unique succeeds, continuing the primary's generation sequence.
	_, _, aux, ok := r.m.GetItem([]byte("chain"))
	if !ok {
		t.Fatal("chain key missing after restore")
	}
	if got := auxCAS(aux); got != 7 {
		t.Fatalf("restored CAS unique = %d, want 7", got)
	}
	if v, _, ok := r.Get([]byte("counter")); !ok || string(v) != "42" {
		t.Fatalf("restored counter = %q, want 42", v)
	}
	if got, err := r.Incr([]byte("counter"), 1); err != nil || got != 43 {
		t.Fatalf("incr on restored counter = %d, %v", got, err)
	}
}

func TestRestoreRequiresEmptyCache(t *testing.T) {
	m := newCache(t)
	defer m.Close()
	m.Set([]byte("k"), []byte("v"), 0, 0)
	var buf bytes.Buffer
	if _, err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RestoreSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("restore into a non-empty cache accepted")
	}
}

func TestRestoreRejectsTruncated(t *testing.T) {
	m := newCache(t)
	defer m.Close()
	for i := 0; i < 64; i++ {
		m.Set([]byte(fmt.Sprintf("k%02d", i)), []byte("value"), 0, 0)
	}
	var buf bytes.Buffer
	if _, err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r := newCache(t)
	defer r.Close()
	if _, err := r.RestoreSnapshot(bytes.NewReader(buf.Bytes()[:buf.Len()-7])); err == nil {
		t.Fatal("truncated snapshot restored without error")
	}
}

// TestSnapshotDuringWrites streams snapshots while writers hammer a hot key
// set. Each hot item binds its value to its CAS unique (value = BE64 of the
// iteration, CAS = iteration+1, written in one crash-atomic publish), so a
// snapshot that ever pairs a value with another mutation's CAS — a torn cut
// — is caught by arithmetic. Stable keys, untouched during the stream, must
// all appear exactly once.
func TestSnapshotDuringWrites(t *testing.T) {
	m := newCache(t)
	defer m.Close()

	const stable = 400
	for i := 0; i < stable; i++ {
		if err := m.Set([]byte(fmt.Sprintf("stable-%04d", i)), []byte("s"), 1, 0); err != nil {
			t.Fatal(err)
		}
	}

	const writers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := []byte(fmt.Sprintf("hot-%d", w))
			var val [8]byte
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				binary.BigEndian.PutUint64(val[:], i)
				if err := m.Set(key, val[:], 0, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	for round := 0; round < 5; round++ {
		var buf bytes.Buffer
		if _, err := m.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		seenStable := 0
		r := newCache(t)
		n, err := r.RestoreSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round %d: restore of live snapshot: %v", round, err)
		}
		if n < stable {
			t.Fatalf("round %d: snapshot carried %d items, fewer than the %d stable keys", round, n, stable)
		}
		err = r.forEachItem(func(key, value []byte, flags uint16, aux uint64) error {
			switch {
			case bytes.HasPrefix(key, []byte("stable-")):
				seenStable++
			case bytes.HasPrefix(key, []byte("hot-")):
				i := binary.BigEndian.Uint64(value)
				if cas := uint64(auxCAS(aux)); cas != i+1 {
					return fmt.Errorf("torn cut on %q: value from iteration %d, CAS unique %d", key, i, cas)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if seenStable != stable {
			t.Fatalf("round %d: %d stable keys in snapshot, want %d", round, seenStable, stable)
		}
		r.Close()
	}
	close(stop)
	wg.Wait()
}

// stallingWriter accepts one write, then parks every later one until release
// closes; stalled closes when the first writer parks.
type stallingWriter struct {
	buf              bytes.Buffer
	writes           int
	stalled, release chan struct{}
}

func (w *stallingWriter) Write(p []byte) (int, error) {
	if w.writes++; w.writes == 2 {
		close(w.stalled)
	}
	if w.writes >= 2 {
		<-w.release
	}
	return w.buf.Write(p)
}

// TestStalledSnapshotHoldsNothingBack: a snapshot whose consumer stops taking
// bytes must not stop reclamation. While the writer is parked, ten times the
// pool's free space is overwritten in place; every retired extent has to come
// back, so nothing is evicted and no write fails. Released, the snapshot
// completes with every key that was not being overwritten.
func TestStalledSnapshotHoldsNothingBack(t *testing.T) {
	m, err := New(Config{MemoryBytes: 8 << 20, Buckets: 4096, MaxConns: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const kept = 2000 // 110 bytes apiece on the stream: several of the writer's 64 KiB buffers
	for i := 0; i < kept; i++ {
		if err := m.Set(fmt.Appendf(nil, "kept-%04d", i), bytes.Repeat([]byte{byte(i)}, 64), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	w := &stallingWriter{stalled: make(chan struct{}), release: make(chan struct{})}
	type outcome struct {
		items uint64
		err   error
	}
	done := make(chan outcome, 1)
	go func() {
		items, err := m.Snapshot(w)
		done <- outcome{items, err}
	}()
	<-w.stalled

	big := make([]byte, 1024)
	for written := uint64(0); written < 10*m.Pool().FreeBytes(); written += uint64(len(big)) {
		if err := m.Set(fmt.Appendf(nil, "churn-%02d", written/1024%64), big, 0, 0); err != nil {
			t.Fatalf("after %d bytes overwritten beside a stalled snapshot: %v", written, err)
		}
	}
	if ev := m.Stats().Evictions; ev != 0 {
		t.Fatalf("%d items evicted while the snapshot was stalled", ev)
	}

	close(w.release)
	out := <-done
	if out.err != nil || out.items < kept {
		t.Fatalf("released snapshot wrote %d items: %v", out.items, out.err)
	}
	r := newCache(t)
	defer r.Close()
	if _, err := r.RestoreSnapshot(&w.buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < kept; i++ {
		if v, _, ok := r.Get(fmt.Appendf(nil, "kept-%04d", i)); !ok || !bytes.Equal(v, bytes.Repeat([]byte{byte(i)}, 64)) {
			t.Fatalf("kept-%04d came back as %q, %v", i, v, ok)
		}
	}
}
