package logfree

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
)

func newRT(t *testing.T, opts ...Option) *Runtime {
	t.Helper()
	rt, err := New(append([]Option{WithSize(64 << 20), WithMaxThreads(8)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestOpenOrCreateAllKinds(t *testing.T) {
	rt := newRT(t)
	var sets []Set
	l, err := rt.List("l")
	if err != nil {
		t.Fatal(err)
	}
	ht, err := rt.HashTable("h", 64)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := rt.SkipList("s")
	if err != nil {
		t.Fatal(err)
	}
	bt, err := rt.BST("b")
	if err != nil {
		t.Fatal(err)
	}
	sets = append(sets, l, ht, sl, bt)
	for i, s := range sets {
		k := uint64(i*100 + 1)
		if !s.Insert(k, k*2) {
			t.Fatalf("set %d: insert failed", i)
		}
		if v, ok := s.Search(k); !ok || v != k*2 {
			t.Fatalf("set %d: Search = %d,%v", i, v, ok)
		}
	}
	// Reopen by name: the same call is open-or-create.
	if _, err := rt.List("l"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.HashTable("h", 64); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.SkipList("s"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.BST("b"); err != nil {
		t.Fatal(err)
	}
	// The reopened veneer sees the same data.
	l2, _ := rt.List("l")
	if v, ok := l2.Search(1); !ok || v != 2 {
		t.Fatalf("reopened list Search = %d,%v", v, ok)
	}
}

func TestOpenWrongKindRejected(t *testing.T) {
	rt := newRT(t)
	if _, err := rt.List("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.BST("x"); !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("wrong-kind open: %v, want ErrKindMismatch", err)
	}
	if _, err := rt.OpenOrCreate("x", Spec{Kind: KindMap}); !errors.Is(err, ErrKindMismatch) {
		t.Fatalf("wrong-kind OpenOrCreate: %v, want ErrKindMismatch", err)
	}
}

func TestLookupAndNames(t *testing.T) {
	rt := newRT(t)
	if _, ok := rt.Lookup("nope"); ok {
		t.Fatal("missing name found")
	}
	rt.List("a")
	rt.Queue("b")
	if k, ok := rt.Lookup("a"); !ok || k != KindList {
		t.Fatalf("Lookup(a) = %v,%v", k, ok)
	}
	if k, ok := rt.Lookup("b"); !ok || k != KindQueue {
		t.Fatalf("Lookup(b) = %v,%v", k, ok)
	}
	if n := len(rt.Names()); n != 2 {
		t.Fatalf("Names = %d entries, want 2", n)
	}
}

func TestCrashRecoverRoundTrip(t *testing.T) {
	rt := newRT(t, WithLinkCache(true))
	ht, _ := rt.HashTable("kv", 128)
	for k := uint64(1); k <= 500; k++ {
		ht.Insert(k, k+7)
	}
	for k := uint64(1); k <= 500; k += 5 {
		ht.Delete(k)
	}
	rt.Drain() // make everything durable before the deliberate crash

	rt2, err := rt.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	if len(rt2.RecoveryReports()) != 1 {
		t.Fatalf("recovery reports = %d, want 1", len(rt2.RecoveryReports()))
	}
	ht2, err := rt2.HashTable("kv", 128)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 500; k++ {
		want := k%5 != 1
		if got := ht2.Contains(k); got != want {
			t.Fatalf("key %d after recovery: %v, want %v", k, got, want)
		}
	}
}

// TestMultiStructureCrashRecovery: one structure of every kind in the kind
// table shares one store and all survive one crash — the combined recovery
// sweep must not mistake one structure's nodes for another's leaks, and a
// kind without a table row cannot be silently skipped by it.
func TestMultiStructureCrashRecovery(t *testing.T) {
	rt := newRT(t, WithLinkCache(true))
	for k := Kind(1); k.String() != "unknown"; k++ {
		if _, ok := kindTable[k]; !ok {
			t.Fatalf("kind %v has no kindTable row", k)
		}
	}
	for kind := range kindTable {
		if _, err := rt.open(kind.String(), kind, 64); err != nil {
			t.Fatalf("create %v: %v", kind, err)
		}
	}
	ht, _ := rt.HashTable("hashtable", 64)
	sl, _ := rt.SkipList("skiplist")
	bt, _ := rt.BST("bst")
	q, _ := rt.Queue("queue")
	m, _ := rt.Map("map", 64)
	for k := uint64(1); k <= 300; k++ {
		ht.Insert(k, k)
		sl.Insert(k+1000, k)
		bt.Insert(k+2000, k)
		q.Enqueue(k)
		m.Set([]byte(fmt.Sprintf("blob-%d", k)), []byte(fmt.Sprintf("v-%d", k)))
	}
	rt.Drain()
	rt2, err := rt.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	reported := map[string]Kind{}
	for _, rep := range rt2.RecoveryReports() {
		reported[rep.Name] = rep.Kind
	}
	if len(reported) != len(kindTable) {
		t.Fatalf("recovery reports = %v, want one per kind", reported)
	}
	for kind := range kindTable {
		if got, ok := reported[kind.String()]; !ok || got != kind {
			t.Fatalf("recovery report for %v = %v,%v", kind, got, ok)
		}
		if _, err := rt2.open(kind.String(), kind, 64); err != nil {
			t.Fatalf("reopen %v: %v", kind, err)
		}
	}
	ht2, _ := rt2.HashTable("hashtable", 64)
	sl2, _ := rt2.SkipList("skiplist")
	bt2, _ := rt2.BST("bst")
	q2, _ := rt2.Queue("queue")
	m2, _ := rt2.Map("map", 64)
	if n := ht2.Len(); n != 300 {
		t.Fatalf("hash table lost entries: %d", n)
	}
	if n := sl2.Len(); n != 300 {
		t.Fatalf("skip list lost entries: %d", n)
	}
	if n := bt2.Len(); n != 300 {
		t.Fatalf("bst lost entries: %d", n)
	}
	if n := q2.Len(); n != 300 {
		t.Fatalf("queue lost entries: %d", n)
	}
	if n := m2.Len(); n != 300 {
		t.Fatalf("byte map lost entries: %d", n)
	}
	for k := uint64(1); k <= 300; k++ {
		if !ht2.Contains(k) || !sl2.Contains(k+1000) || !bt2.Contains(k+2000) {
			t.Fatalf("key %d missing after multi-structure recovery", k)
		}
		if v, ok := m2.Get([]byte(fmt.Sprintf("blob-%d", k))); !ok || string(v) != fmt.Sprintf("v-%d", k) {
			t.Fatalf("blob-%d corrupt after recovery: %q,%v", k, v, ok)
		}
	}
}

// TestDirectoryGrowth: the v1 fixed root-slot directory capped out at ~14
// structures (ErrFull); the durable-hash-table directory must register far
// more and recover every one of them after a crash.
func TestDirectoryGrowth(t *testing.T) {
	rt := newRT(t, WithSize(128<<20), WithLinkCache(true))
	const n = 24 // well past the old 14-entry ceiling
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("structure-%02d", i)
		switch i % 4 {
		case 0:
			s, err := rt.HashTable(name, 64)
			if err != nil {
				t.Fatalf("register %d: %v", i, err)
			}
			s.Insert(uint64(i)+1, uint64(i)*10)
		case 1:
			s, err := rt.SkipList(name)
			if err != nil {
				t.Fatalf("register %d: %v", i, err)
			}
			s.Insert(uint64(i)+1, uint64(i)*10)
		case 2:
			s, err := rt.BST(name)
			if err != nil {
				t.Fatalf("register %d: %v", i, err)
			}
			s.Insert(uint64(i)+1, uint64(i)*10)
		default:
			m, err := rt.Map(name, 64)
			if err != nil {
				t.Fatalf("register %d: %v", i, err)
			}
			m.Set([]byte(name), []byte(fmt.Sprintf("payload-%d", i)))
		}
	}
	rt.Drain()
	rt2, err := rt.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rt2.RecoveryReports()); got != n {
		t.Fatalf("recovered %d structures, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("structure-%02d", i)
		switch i % 4 {
		case 0:
			s, err := rt2.HashTable(name, 64)
			if err != nil {
				t.Fatalf("reopen %d: %v", i, err)
			}
			if v, ok := s.Search(uint64(i) + 1); !ok || v != uint64(i)*10 {
				t.Fatalf("structure %d lost its entry: %d,%v", i, v, ok)
			}
		case 1:
			s, err := rt2.SkipList(name)
			if err != nil {
				t.Fatalf("reopen %d: %v", i, err)
			}
			if v, ok := s.Search(uint64(i) + 1); !ok || v != uint64(i)*10 {
				t.Fatalf("structure %d lost its entry: %d,%v", i, v, ok)
			}
		case 2:
			s, err := rt2.BST(name)
			if err != nil {
				t.Fatalf("reopen %d: %v", i, err)
			}
			if v, ok := s.Search(uint64(i) + 1); !ok || v != uint64(i)*10 {
				t.Fatalf("structure %d lost its entry: %d,%v", i, v, ok)
			}
		default:
			m, err := rt2.Map(name, 64)
			if err != nil {
				t.Fatalf("reopen %d: %v", i, err)
			}
			if v, ok := m.Get([]byte(name)); !ok || string(v) != fmt.Sprintf("payload-%d", i) {
				t.Fatalf("structure %d lost its payload: %q,%v", i, v, ok)
			}
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pool.img")
	rt := newRT(t)
	bt, _ := rt.BST("tree")
	for k := uint64(1); k <= 200; k++ {
		bt.Insert(k, k*3)
	}
	if err := rt.Save(path); err != nil {
		t.Fatal(err)
	}

	rt2, err := Load(path, WithMaxThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	bt2, err := rt2.BST("tree")
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 200; k++ {
		if v, ok := bt2.Search(k); !ok || v != k*3 {
			t.Fatalf("loaded tree Search(%d) = %d,%v", k, v, ok)
		}
	}
}

// TestConcurrentImplicitSessions: goroutines call structure methods with no
// per-thread plumbing at all; the session pool serves them all.
func TestConcurrentImplicitSessions(t *testing.T) {
	rt := newRT(t, WithLinkCache(true))
	sl, _ := rt.SkipList("s")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w)*1000 + 1
			for i := uint64(0); i < 300; i++ {
				sl.Insert(base+i, i)
			}
			for i := uint64(0); i < 300; i += 2 {
				sl.Delete(base + i)
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < 8; w++ {
		base := uint64(w)*1000 + 1
		for i := uint64(0); i < 300; i++ {
			want := i%2 == 1
			if got := sl.Contains(base + i); got != want {
				t.Fatalf("w%d key %d: %v want %v", w, base+i, got, want)
			}
		}
	}
}

// TestSessionPoolGrowsPastMaxThreads: far more goroutines than the formatted
// thread count, on a runtime formatted for ONE thread — the pool must grow
// (durable APT banks) instead of capping or panicking, and the data must
// survive a crash.
func TestSessionPoolGrowsPastMaxThreads(t *testing.T) {
	rt, err := New(WithSize(64<<20), WithMaxThreads(1), WithLinkCache(true))
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.Map("grow", 256)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	var wg sync.WaitGroup
	var gate sync.WaitGroup
	gate.Add(1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gate.Wait() // maximize overlap so the pool must actually grow
			for i := 0; i < 100; i++ {
				k := []byte(fmt.Sprintf("w%02d-%03d", w, i))
				if err := m.Set(k, k); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	gate.Done()
	wg.Wait()
	if t.Failed() {
		return
	}
	rt.Drain()
	rt2, err := rt.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := rt2.Map("grow", 256)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < 100; i++ {
			k := []byte(fmt.Sprintf("w%02d-%03d", w, i))
			if v, ok := m2.Get(k); !ok || string(v) != string(k) {
				t.Fatalf("%s lost across crash: %q,%v", k, v, ok)
			}
		}
	}
}

// TestAttachSeedsRecoveredContexts: the recovery pass registers one core
// context per formatted thread; Attach must hand them all to the session
// pool instead of carving fresh durable APT banks while formatted slots sit
// idle.
func TestAttachSeedsRecoveredContexts(t *testing.T) {
	rt := newRT(t, WithMaxThreads(4))
	m, err := rt.Map("seed", 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	rt.Drain()
	rt2, err := rt.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	if got := rt2.Sessions(); got < 4 {
		t.Fatalf("pool seeded with %d sessions, want the 4 recovered contexts", got)
	}
	seeded := rt2.Sessions()
	m2, err := rt2.Map("seed", 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, ok := m2.Get([]byte("k")); !ok {
			t.Fatal("recovered key missing")
		}
	}
	if got := rt2.Sessions(); got != seeded {
		t.Fatalf("single-flow ops grew the pool from %d to %d sessions", seeded, got)
	}
}

// TestPinnedSession: WithSession views run on the pinned context and skip
// the pool; Close returns the session.
func TestPinnedSession(t *testing.T) {
	rt := newRT(t)
	s, err := rt.Session()
	if err != nil {
		t.Fatal(err)
	}
	m, _ := rt.Map("pin", 64)
	pm := m.WithSession(s)
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("p-%03d", i))
		if err := pm.Set(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if n := pm.Len(); n != 100 {
		t.Fatalf("Len = %d", n)
	}
	s.Reclaim()
	s.Close()
	// The unpinned map still works after the session went back to the pool.
	if _, ok := m.Get([]byte("p-007")); !ok {
		t.Fatal("unpinned read failed")
	}
}

// TestForeignPinnedSession: a session counts as a pin only on the runtime
// that handed it out. Pinned on another runtime's structure it must not lend
// that structure its own runtime's context — the write has to go through the
// owning runtime's device, allocator and epochs — and on a joined map it
// serves its own part while the others draw pooled sessions.
func TestForeignPinnedSession(t *testing.T) {
	a, b := newRT(t), newRT(t)
	s, err := a.Session()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	am, _ := a.Map("pin", 64)
	bm, _ := b.Map("pin", 64)
	bl, _ := b.List("l")
	a.Device().ResetStats()
	b.Device().ResetStats()

	pinned, pinnedList := bm.WithSession(s), bl.WithSession(s)
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("p-%03d", i))
		if err := pinned.Set(k, k); err != nil {
			t.Fatal(err)
		}
		pinnedList.Insert(uint64(i+1), 1)
	}
	if got := a.Device().Stats(); got.Clwbs != 0 || got.Fences != 0 {
		t.Fatalf("writes to b's structures wrote back %d lines and fenced %d times on a's device", got.Clwbs, got.Fences)
	}
	if got := b.Device().Stats(); got.Clwbs == 0 || got.Fences < 200 {
		t.Fatalf("b's device saw %d write-backs and %d fences for 200 writes", got.Clwbs, got.Fences)
	}
	if bm.Len() != 100 || bl.Len() != 100 || am.Len() != 0 {
		t.Fatalf("b's map holds %d, b's list %d, a's map %d", bm.Len(), bl.Len(), am.Len())
	}

	// Joined: keys ending in an even digit live on a, the rest on b.
	j := JoinMaps(func(key []byte) int { return int(key[len(key)-1] & 1) }, am, bm).WithSession(s)
	b.Device().ResetStats()
	for i := 100; i < 200; i++ {
		k := []byte(fmt.Sprintf("p-%03d", i))
		if err := j.Set(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if am.Len() != 50 || bm.Len() != 150 || a.Device().Stats().Fences < 100 || b.Device().Stats().Fences < 100 {
		t.Fatalf("joined pinned view: a holds %d (%d fences), b holds %d (%d fences)",
			am.Len(), a.Device().Stats().Fences, bm.Len(), b.Device().Stats().Fences)
	}
	b2, err := b.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	if bm2, _ := b2.Map("pin", 64); bm2.Len() != 150 {
		t.Fatalf("b recovered %d of its 150 keys", bm2.Len())
	}
}

func TestKindString(t *testing.T) {
	if KindBST.String() != "bst" || KindMap.String() != "map" || Kind(99).String() != "unknown" {
		t.Fatal("Kind.String broken")
	}
}

func TestCrashWithoutDrainKeepsCompletedOps(t *testing.T) {
	// LP mode (no link cache): every returned update is already durable, so
	// a crash without Drain must preserve all of them.
	rt := newRT(t)
	l, _ := rt.List("l")
	for k := uint64(1); k <= 100; k++ {
		l.Insert(k, k)
	}
	rt2, err := rt.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	l2, _ := rt2.List("l")
	for k := uint64(1); k <= 100; k++ {
		if !l2.Contains(k) {
			t.Fatalf("completed insert of %d lost without link cache", k)
		}
	}
}

func TestQueuePublicAPIAndRecovery(t *testing.T) {
	rt := newRT(t, WithLinkCache(true))
	q, err := rt.Queue("jobs")
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= 50; v++ {
		q.Enqueue(v)
	}
	if v, ok := q.Dequeue(); !ok || v != 1 {
		t.Fatalf("Dequeue = %d,%v", v, ok)
	}
	rt.Drain()
	rt2, err := rt.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	q2, err := rt2.Queue("jobs")
	if err != nil {
		t.Fatal(err)
	}
	if got := q2.Len(); got != 49 {
		t.Fatalf("recovered Len = %d, want 49", got)
	}
	for v := uint64(2); v <= 51; v++ {
		got, ok := q2.Dequeue()
		if v <= 50 {
			if !ok || got != v {
				t.Fatalf("Dequeue = %d,%v want %d", got, ok, v)
			}
		} else if ok {
			t.Fatal("queue should be empty")
		}
	}
	if _, ok := q2.Peek(); ok {
		t.Fatal("Peek on empty queue")
	}
}

// TestPropertyCrashRecoverCycles drives random operations against a map
// oracle through the public API, interleaved with full crash/recover
// cycles: after every recovery the structure must equal the oracle exactly
// (single-threaded, so every completed op must persist).
func TestPropertyCrashRecoverCycles(t *testing.T) {
	rt := newRT(t, WithLinkCache(true), WithMaxThreads(2))
	set, err := rt.BST("prop")
	if err != nil {
		t.Fatal(err)
	}
	oracle := make(map[uint64]uint64)
	rng := rand.New(rand.NewSource(2026))
	for cycle := 0; cycle < 8; cycle++ {
		for i := 0; i < 400; i++ {
			k := uint64(rng.Intn(128)) + 1
			v := uint64(cycle*1000 + i)
			switch rng.Intn(3) {
			case 0:
				if set.Insert(k, v) {
					oracle[k] = v
				}
			case 1:
				if _, ok := set.Delete(k); ok {
					delete(oracle, k)
				}
			default:
				got, ok := set.Search(k)
				want, had := oracle[k]
				if ok != had || (ok && got != want) {
					t.Fatalf("cycle %d: Search(%d) = %d,%v oracle %d,%v",
						cycle, k, got, ok, want, had)
				}
			}
		}
		rt.Drain()
		rt2, err := rt.SimulateCrash()
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		rt = rt2
		set, err = rt.BST("prop")
		if err != nil {
			t.Fatal(err)
		}
		// Exact equality with the oracle after recovery.
		count := 0
		for k, v := range set.All() {
			count++
			if want, had := oracle[k]; !had || want != v {
				t.Fatalf("cycle %d: recovered %d=%d diverges from oracle", cycle, k, v)
			}
		}
		if count != len(oracle) {
			t.Fatalf("cycle %d: recovered %d keys, oracle has %d", cycle, count, len(oracle))
		}
	}
}

// TestDirectoryDurableWithoutDrain: structure registration is durable at
// creation, so a crash immediately afterwards must not lose the directory
// entry (even with the link cache holding other state).
func TestDirectoryDurableWithoutDrain(t *testing.T) {
	rt := newRT(t, WithLinkCache(true))
	if _, err := rt.SkipList("early"); err != nil {
		t.Fatal(err)
	}
	rt2, err := rt.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rt2.Lookup("early"); !ok {
		t.Fatal("directory entry lost in crash")
	}
	sl, err := rt2.SkipList("early")
	if err != nil {
		t.Fatalf("directory entry lost in crash: %v", err)
	}
	if !sl.Insert(1, 1) {
		t.Fatal("recovered structure unusable")
	}
}

// TestRuntimeVolatileMode: the Figure 7 configuration through the public
// API — no persistence waits at all on the operation paths.
func TestRuntimeVolatileMode(t *testing.T) {
	rt := newRT(t, WithVolatile(true))
	bt, err := rt.BST("v")
	if err != nil {
		t.Fatal(err)
	}
	rt.Device().ResetStats()
	for k := uint64(1); k <= 500; k++ {
		bt.Insert(k, k)
	}
	if st := rt.Device().Stats(); st.SyncWaits != 0 {
		t.Fatalf("volatile runtime paid %d syncs", st.SyncWaits)
	}
}

func TestStackPublicAPIAndRecovery(t *testing.T) {
	rt := newRT(t, WithLinkCache(true))
	st, err := rt.Stack("undo")
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= 30; v++ {
		st.Push(v)
	}
	st.Pop()
	rt.Drain()
	rt2, err := rt.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	st2, err := rt2.Stack("undo")
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Len(); got != 29 {
		t.Fatalf("recovered Len = %d, want 29", got)
	}
	for v := uint64(29); v >= 1; v-- {
		got, ok := st2.Pop()
		if !ok || got != v {
			t.Fatalf("Pop = %d,%v want %d", got, ok, v)
		}
	}
}

// TestUpsertVeneers: every keyed wrapper supports durable in-place value
// replacement.
func TestUpsertVeneers(t *testing.T) {
	rt := newRT(t)
	l, _ := rt.List("l")
	ht, _ := rt.HashTable("h", 64)
	sl, _ := rt.SkipList("s")
	bt, _ := rt.BST("b")
	for i, s := range []Set{l, ht, sl, bt} {
		if !s.Upsert(7, 1) {
			t.Fatalf("set %d: first Upsert did not insert", i)
		}
		if s.Upsert(7, 2) {
			t.Fatalf("set %d: second Upsert claimed insert", i)
		}
		if v, ok := s.Search(7); !ok || v != 2 {
			t.Fatalf("set %d: after Upsert Search = %d,%v", i, v, ok)
		}
		if _, ok := s.Delete(7); !ok {
			t.Fatalf("set %d: Delete after Upsert failed", i)
		}
		if s.Contains(7) {
			t.Fatalf("set %d: key survived Delete", i)
		}
	}
}

// TestClosedRuntime: operations on a closed runtime fail with ErrClosed
// through errors.Is; a crashed-away runtime is closed too.
func TestClosedRuntime(t *testing.T) {
	rt := newRT(t)
	m, err := rt.Map("c", 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if err := m.Set([]byte("k"), []byte("v2")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Set on closed runtime: %v, want ErrClosed", err)
	}
	if _, err := rt.Map("c2", 64); !errors.Is(err, ErrClosed) {
		t.Fatalf("Map on closed runtime: %v, want ErrClosed", err)
	}
	if _, err := rt.Session(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Session on closed runtime: %v, want ErrClosed", err)
	}

	rt2 := newRT(t)
	m2, _ := rt2.Map("c", 64)
	rt3, err := rt2.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Set([]byte("k"), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Set on crashed-away runtime: %v, want ErrClosed", err)
	}
	m3, _ := rt3.Map("c", 64)
	if err := m3.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
}
