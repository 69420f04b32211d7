package logfree_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/pmem"
	"repro/logfree"
)

// TestBatchCommitSemantics: Commit equals the ops applied in order
// (including a batch overwriting and deleting its own keys), copies buffered
// bytes, resets on success, and works on both Map kinds.
func TestBatchCommitSemantics(t *testing.T) {
	rt, err := logfree.New(logfree.WithSize(64 << 20))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []logfree.Kind{logfree.KindMap, logfree.KindOrderedMap} {
		t.Run(kind.String(), func(t *testing.T) {
			m, err := rt.OpenOrCreate("batch-"+kind.String(), logfree.Spec{Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			b := m.Batch()
			keyBuf := []byte("k-reused")
			b.Set(keyBuf, []byte("first"))
			keyBuf[2] = 'X' // buffered bytes must have been copied
			b.Set([]byte("a"), []byte("1")).
				Set([]byte("b"), []byte("2")).
				Set([]byte("a"), []byte("1-again")).
				Delete([]byte("b")).
				SetItem([]byte("c"), []byte("3"), 7, 99)
			if b.Len() != 6 {
				t.Fatalf("Len = %d", b.Len())
			}
			if err := b.Commit(); err != nil {
				t.Fatal(err)
			}
			if b.Len() != 0 {
				t.Fatalf("batch not reset after Commit: %d", b.Len())
			}
			for key, want := range map[string]string{
				"k-reused": "first", "a": "1-again", "c": "3",
			} {
				if v, ok := m.Get([]byte(key)); !ok || string(v) != want {
					t.Fatalf("%q = %q,%v want %q", key, v, ok, want)
				}
			}
			if m.Contains([]byte("b")) {
				t.Fatal("in-batch delete lost")
			}
			if m.Len() != 3 {
				t.Fatalf("Len = %d", m.Len())
			}
		})
	}
}

// TestBatchErrors: the taxonomy flows through Commit via errors.Is — size
// cap, bad arguments — all checked before anything applies.
func TestBatchErrors(t *testing.T) {
	rt, err := logfree.New(logfree.WithSize(64 << 20))
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.Map("b", 64)
	if err != nil {
		t.Fatal(err)
	}
	big := m.Batch()
	for i := 0; i <= logfree.MaxBatchOps; i++ {
		big.Set([]byte(fmt.Sprintf("k%05d", i)), nil)
	}
	if err := big.Commit(); !errors.Is(err, logfree.ErrBatchTooLarge) {
		t.Fatalf("oversized batch: %v", err)
	}
	if m.Len() != 0 {
		t.Fatal("oversized batch partially applied")
	}
	if err := m.Batch().Set(nil, []byte("v")).Commit(); !errors.Is(err, logfree.ErrBadKey) {
		t.Fatalf("empty key: %v", err)
	}
	if err := m.Batch().Set([]byte("k"), make([]byte, 4096)).Commit(); !errors.Is(err, logfree.ErrTooLarge) {
		t.Fatalf("oversized value: %v", err)
	}
	if m.Len() != 0 {
		t.Fatal("argument-error batch partially applied")
	}
	if err := m.Batch().Commit(); err != nil {
		t.Fatalf("empty Commit: %v", err)
	}
}

// TestErrFullTaxonomy: exhausting a tiny device surfaces ErrFull (still
// wrapping the allocator's cause) through the public surface, on both the
// single-op and the batch path.
func TestErrFullTaxonomy(t *testing.T) {
	rt, err := logfree.New(logfree.WithSize(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.Map("full", 16)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 1024)
	var setErr error
	for i := 0; i < 4096 && setErr == nil; i++ {
		setErr = m.Set([]byte(fmt.Sprintf("k%05d", i)), val)
	}
	if !errors.Is(setErr, logfree.ErrFull) {
		t.Fatalf("exhaustion error = %v, want ErrFull", setErr)
	}
	if !errors.Is(setErr, pmem.ErrOutOfMemory) {
		t.Fatalf("ErrFull must wrap the core cause: %v", setErr)
	}
	b := m.Batch()
	for i := 0; i < 64; i++ {
		b.Set([]byte(fmt.Sprintf("b%05d", i)), val)
	}
	if err := b.Commit(); !errors.Is(err, logfree.ErrFull) {
		t.Fatalf("batch exhaustion error = %v, want ErrFull", err)
	}
}

// TestErrFullFreshIndexNode: a fresh key whose entry fits but whose index
// node does not surfaces ErrFull from Set, like the batch path. The device is
// filled with same-hash keys (one index node between them) and then with
// small distinct-hash keys (one node each); deleting every other same-hash
// key frees entry slots but no node slot, so the next fresh keys get their
// entries and run out at the node.
func TestErrFullFreshIndexNode(t *testing.T) {
	logfree.SetHashForTesting(func(k []byte) uint64 {
		if k[0] == 'c' {
			return logfree.MinKey
		}
		return core.DefaultBytesHash(k)
	})
	defer logfree.SetHashForTesting(nil)
	rt, err := logfree.New(logfree.WithSize(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.Map("full", 16)
	if err != nil {
		t.Fatal(err)
	}
	fill := func(prefix string, val []byte) int {
		for i := 0; ; i++ {
			if err := m.Set([]byte(fmt.Sprintf("%s%06d", prefix, i)), val); err != nil {
				if !errors.Is(err, logfree.ErrFull) {
					t.Fatalf("filling %s: %v, want ErrFull", prefix, err)
				}
				return i
			}
		}
	}
	same := fill("c", make([]byte, 100))
	fill("d", []byte{1})
	for i := 0; i < same; i += 2 {
		if !m.Delete([]byte(fmt.Sprintf("c%06d", i))) {
			t.Fatalf("c%06d missing", i)
		}
	}
	rt.Reclaim()
	var setErr error
	for i := 0; i < same && setErr == nil; i++ {
		setErr = m.Set([]byte(fmt.Sprintf("e%06d", i)), make([]byte, 100))
	}
	if !errors.Is(setErr, logfree.ErrFull) || !errors.Is(setErr, pmem.ErrOutOfMemory) {
		t.Fatalf("fresh key with no room for its index node: %v, want ErrFull wrapping pmem.ErrOutOfMemory", setErr)
	}
}

// TestBatchKeepsOpsWhenOnePartFails: a commit over two parts where one part
// runs out of space fails with ErrFull and leaves the batch whole — Len is
// what it was, although the other part committed — so that the same batch,
// retried once the small part has grown, re-applies everything and the map
// equals the model.
func TestBatchKeepsOpsWhenOnePartFails(t *testing.T) {
	small, err := logfree.New(logfree.WithSize(1<<20), logfree.WithMaxSize(16<<20))
	if err != nil {
		t.Fatal(err)
	}
	big, err := logfree.New(logfree.WithSize(16 << 20))
	if err != nil {
		t.Fatal(err)
	}
	sm, err := small.Map("b", 64)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := big.Map("b", 64)
	if err != nil {
		t.Fatal(err)
	}
	// Keys ending in an even digit live on the small part.
	m := logfree.JoinMaps(func(key []byte) int { return int(key[len(key)-1] & 1) }, sm, bm)

	model := map[string]string{}
	b := m.Batch()
	val := make([]byte, 1500)
	for i := 0; i < logfree.MaxBatchOps-2; i++ {
		k := fmt.Sprintf("k%05d", i)
		b.Set([]byte(k), val)
		model[k] = string(val)
	}
	b.Set([]byte("k00001"), []byte("rewritten")).Delete([]byte("k00003"))
	model["k00001"] = "rewritten"
	delete(model, "k00003")
	n := b.Len()

	if err := b.Commit(); !errors.Is(err, logfree.ErrFull) {
		t.Fatalf("Commit with one part too small: %v, want ErrFull", err)
	}
	if b.Len() != n {
		t.Fatalf("failed Commit left %d of %d ops buffered", b.Len(), n)
	}
	if got, want := bm.Len(), (logfree.MaxBatchOps-2)/2-1; got != want {
		t.Fatalf("the part with room holds %d keys after the failed Commit, want %d", got, want)
	}
	if err := small.Grow(16 << 20); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatalf("retry after Grow: %v", err)
	}
	if b.Len() != 0 || m.Len() != len(model) {
		t.Fatalf("after the retry: batch Len = %d, map Len = %d, model %d", b.Len(), m.Len(), len(model))
	}
	for k, v := range m.All() {
		if model[string(k)] != string(v) {
			t.Fatalf("%q holds %d bytes, model %d", k, len(v), len(model[string(k)]))
		}
	}
}

// TestBatchFenceBudgetPublic pins the amortization through the public
// surface: the same 64-replace workload costs close to half the sync waits
// batched as it does issued singly (~N+1 vs ~2N write-path waits; device
// totals also include the amortized reclamation fences both sides pay). The
// strict ≤N+2 write-path proof — counting only the operating flusher, with
// reclamation deferred — is the core-level TestFenceBudgetBatch.
func TestBatchFenceBudgetPublic(t *testing.T) {
	const N = 64
	rt, err := logfree.New(logfree.WithSize(64 << 20))
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.Map("budget", 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 64)
	key := func(i int) []byte { return []byte(fmt.Sprintf("steady-%06d", i)) }
	commitBatch := func(round int) {
		b := m.Batch()
		for i := 0; i < N; i++ {
			b.SetItem(key(i), val, uint16(round), 0)
		}
		if err := b.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	commitBatch(0) // warm-up: allocator pages, APT areas, the key set
	rt.Drain()

	rt.Device().ResetStats()
	for i := 0; i < N; i++ {
		if _, err := m.SetItem(key(i), val, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	single := rt.Device().Stats().SyncWaits

	rt.Device().ResetStats()
	commitBatch(2)
	batched := rt.Device().Stats().SyncWaits

	if single < 2*N {
		t.Fatalf("single-op baseline paid only %d sync waits for %d replaces", single, N)
	}
	if limit := N + N/8; batched > uint64(limit) {
		t.Fatalf("batched round cost %d sync waits for %d ops (single-op: %d), limit %d",
			batched, N, single, limit)
	}
}

// TestBatchCrashPrefix: a drained batch survives a crash whole; committing
// and crashing without Drain (link cache off) keeps every committed op —
// batch order is durability order.
func TestBatchCrashPrefix(t *testing.T) {
	rt, err := logfree.New(logfree.WithSize(64 << 20))
	if err != nil {
		t.Fatal(err)
	}
	om, err := rt.OrderedMap("wal")
	if err != nil {
		t.Fatal(err)
	}
	b := om.Batch()
	for i := 0; i < 100; i++ {
		b.SetItem([]byte(fmt.Sprintf("rec-%04d", i)), []byte(fmt.Sprintf("payload-%d", i)), 0, uint64(i))
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	// No Drain: without the link cache every committed op is already
	// durable when Commit returns.
	rt2, err := rt.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	om2, err := rt2.OrderedMap("wal")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	var prev []byte
	for k, it := range om2.ScanItems(nil, nil) {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("post-crash scan out of order: %q then %q", prev, k)
		}
		prev = append(prev[:0], k...)
		if want := fmt.Sprintf("payload-%d", it.Aux); string(it.Value) != want {
			t.Fatalf("%q value = %q want %q", k, it.Value, want)
		}
		n++
	}
	if n != 100 {
		t.Fatalf("recovered %d of 100 committed batch ops", n)
	}
}
