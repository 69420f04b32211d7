package logfree

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestByteMapBasics: what a runtime adds to the byte-map contract
// (TestMapContract): a name is one map however often it is opened, a bucket
// count of 0 takes the default, and the map knows its kind and name.
func TestByteMapBasics(t *testing.T) {
	rt := newRT(t)
	m, err := rt.Map("kv", 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind() != KindMap || m.Name() != "kv" {
		t.Fatalf("Kind/Name = %v/%q", m.Kind(), m.Name())
	}
	if err := m.Set([]byte("hello"), []byte("world")); err != nil {
		t.Fatal(err)
	}
	again, err := rt.Map("kv", 64)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := again.Get([]byte("hello")); !ok || string(v) != "world" {
		t.Fatalf("Get through a second handle = %q,%v", v, ok)
	}
	if !again.Delete([]byte("hello")) || m.Contains([]byte("hello")) || m.Len() != 0 {
		t.Fatal("delete through a second handle not seen by the first")
	}
}

func TestByteMapMetaAux(t *testing.T) {
	rt := newRT(t)
	m, _ := rt.Map("kv", 64)
	created, err := m.SetItem([]byte("k"), []byte("v"), 7, 99)
	if err != nil || !created {
		t.Fatalf("SetItem = %v,%v", created, err)
	}
	v, meta, aux, ok := m.GetItem([]byte("k"))
	if !ok || string(v) != "v" || meta != 7 || aux != 99 {
		t.Fatalf("GetItem = %q,%d,%d,%v", v, meta, aux, ok)
	}
	if !m.SetAux([]byte("k"), 123) {
		t.Fatal("SetAux failed")
	}
	if _, _, aux, _ := m.GetItem([]byte("k")); aux != 123 {
		t.Fatalf("aux after SetAux = %d", aux)
	}
	if m.SetAux([]byte("absent"), 1) {
		t.Fatal("SetAux on missing key succeeded")
	}
	created, err = m.SetItem([]byte("k"), []byte("v2"), 8, 100)
	if err != nil || created {
		t.Fatalf("replacing SetItem = %v,%v", created, err)
	}
	// The Items iterator surfaces meta and aux.
	for k, it := range m.Items() {
		if string(k) != "k" || string(it.Value) != "v2" || it.Meta != 8 || it.Aux != 100 {
			t.Fatalf("Items = %q -> %+v", k, it)
		}
	}
}

func TestByteMapLimits(t *testing.T) {
	rt := newRT(t)
	m, _ := rt.Map("kv", 64)
	if err := m.Set(nil, []byte("v")); !errors.Is(err, ErrBadKey) {
		t.Fatalf("empty key: %v", err)
	}
	if err := m.Set(bytes.Repeat([]byte("k"), 600), []byte("v")); !errors.Is(err, ErrBadKey) {
		t.Fatalf("oversized key: %v", err)
	}
	if err := m.Set([]byte("k"), make([]byte, 4096)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized value: %v", err)
	}
	// The largest storable entry fits exactly.
	if err := m.Set([]byte("k"), make([]byte, 2048-32-1)); err != nil {
		t.Fatalf("max-size value rejected: %v", err)
	}
}

func TestByteMapManyKeysCrashRecover(t *testing.T) {
	rt := newRT(t, WithLinkCache(true))
	m, _ := rt.Map("kv", 128)
	for i := 0; i < 1000; i++ {
		key := []byte(fmt.Sprintf("key-%04d", i))
		val := bytes.Repeat([]byte{byte(i)}, 1+i%300)
		if err := m.Set(key, val); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i += 4 {
		m.Delete([]byte(fmt.Sprintf("key-%04d", i)))
	}
	rt.Drain()
	rt2, err := rt.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := rt2.Map("kv", 128)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		key := []byte(fmt.Sprintf("key-%04d", i))
		v, ok := m2.Get(key)
		want := i%4 != 0
		if ok != want {
			t.Fatalf("key %d after recovery: present=%v want %v", i, ok, want)
		}
		if ok && !bytes.Equal(v, bytes.Repeat([]byte{byte(i)}, 1+i%300)) {
			t.Fatalf("key %d value corrupt after recovery (len %d)", i, len(v))
		}
	}
	if n := m2.Len(); n != 750 {
		t.Fatalf("recovered Len = %d, want 750", n)
	}
}

// TestHashCollisionKeysStayDistinct is the regression test for the v1
// string-key aliasing hazard: the old memcached layer clamped out-of-range
// key hashes onto a single index key, so any two keys whose hashes clamped
// together could alias. The bytes layer must keep same-index-key entries
// distinct — full-key verification plus a durable collision chain — and the
// chain must survive a crash. The hash override forces every key onto ONE
// index key, the worst case.
func TestHashCollisionKeysStayDistinct(t *testing.T) {
	SetHashForTesting(func([]byte) uint64 { return MinKey })
	defer SetHashForTesting(nil)

	rt := newRT(t, WithLinkCache(true))
	m, err := rt.Map("collide", 64)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if err := m.Set([]byte(fmt.Sprintf("alias-%d", i)), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// All keys collide on one index key yet stay individually addressable.
	for i := 0; i < n; i++ {
		v, ok := m.Get([]byte(fmt.Sprintf("alias-%d", i)))
		if !ok || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("colliding key %d aliased: %q,%v", i, v, ok)
		}
	}
	// Overwrites and deletes stay per-key, head, mid-chain and tail alike.
	if err := m.Set([]byte("alias-0"), []byte("rewritten-0")); err != nil {
		t.Fatal(err)
	}
	if err := m.Set([]byte(fmt.Sprintf("alias-%d", n/2)), []byte("rewritten-mid")); err != nil {
		t.Fatal(err)
	}
	if !m.Delete([]byte("alias-1")) {
		t.Fatal("delete of colliding key failed")
	}
	rt.Drain()
	rt2, err := rt.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := rt2.Map("collide", 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("alias-%d", i))
		want := fmt.Sprintf("val-%d", i)
		switch i {
		case 0:
			want = "rewritten-0"
		case n / 2:
			want = "rewritten-mid"
		case 1:
			if m2.Contains(key) {
				t.Fatal("deleted colliding key resurrected after crash")
			}
			continue
		}
		v, ok := m2.Get(key)
		if !ok || string(v) != want {
			t.Fatalf("colliding key %d after crash: %q,%v want %q", i, v, ok, want)
		}
	}
	if n2 := m2.Len(); n2 != n-1 {
		t.Fatalf("recovered Len = %d, want %d", n2, n-1)
	}
}

func TestOpenOrCreateDefaultsToMap(t *testing.T) {
	rt := newRT(t)
	m, err := rt.OpenOrCreate("d", Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind() != KindMap {
		t.Fatalf("default kind = %v", m.Kind())
	}
	if _, ok := m.(*ByteMap); !ok {
		t.Fatalf("default map is %T", m)
	}
}

// TestOpenOrCreateUnkeyedKinds: only the two byte-keyed kinds have a Map
// view; every other kind is refused before anything is registered.
func TestOpenOrCreateUnkeyedKinds(t *testing.T) {
	rt := newRT(t)
	for _, kind := range []Kind{KindList, KindHashTable, KindSkipList, KindBST, KindQueue, KindStack} {
		name := "unkeyed-" + kind.String()
		if _, err := rt.OpenOrCreate(name, Spec{Kind: kind}); !errors.Is(err, ErrNotKeyed) {
			t.Fatalf("%v OpenOrCreate: %v, want ErrNotKeyed", kind, err)
		}
		if k, ok := rt.Lookup(name); ok {
			t.Fatalf("refused %v OpenOrCreate registered %q as %v", kind, name, k)
		}
	}
}

// TestIteratorEarlyBreakAndNesting: range-over-func iterators stop cleanly
// on break, and loop bodies may call operations on the same map (they draw
// their own sessions).
func TestIteratorEarlyBreakAndNesting(t *testing.T) {
	rt := newRT(t)
	om, err := rt.OrderedMap("it")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := om.Set([]byte(fmt.Sprintf("k-%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	for range om.All() {
		n++
		if n == 5 {
			break
		}
	}
	if n != 5 {
		t.Fatalf("early break visited %d", n)
	}
	// Nested point reads from inside an open iteration.
	n = 0
	for k := range om.Scan([]byte("k-05"), []byte("k-10")) {
		if _, ok := om.Get(k); !ok {
			t.Fatalf("nested Get(%q) missed", k)
		}
		n++
	}
	if n != 5 {
		t.Fatalf("window visited %d keys, want 5", n)
	}
}

// walkValue is the value the walk tests bind to key: its length and every
// byte follow from the key, so a torn or misattributed read shows.
func walkValue(key []byte) []byte {
	return bytes.Repeat(key, 1+int(key[len(key)-1]-'0'))
}

// TestWalkContract: from cursor 0 until 0 comes back, a quiescent map shows
// every entry exactly once with its key, metadata, aux word, value length and
// value; a visitor that stops ends its call with the bucket it is in, and the
// cycle resumes behind it.
func TestWalkContract(t *testing.T) {
	rt := newRT(t)
	m, err := rt.Map("walk", 256) // four steps of 64 buckets
	if err != nil {
		t.Fatal(err)
	}
	const n = 600
	for i := 0; i < n; i++ {
		k := fmt.Appendf(nil, "key-%04d", i)
		if _, err := m.SetItem(k, walkValue(k), uint16(i), uint64(i)*3); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	calls := 0
	for cursor := uint64(0); ; {
		calls++
		cursor = m.Walk(cursor, func(e Entry) bool {
			var i int
			fmt.Sscanf(string(e.Key), "key-%d", &i)
			want := walkValue(e.Key)
			if seen[string(e.Key)] || e.Meta != uint16(i) || e.Aux != uint64(i)*3 ||
				e.ValueLen != len(want) || !bytes.Equal(e.Value(), want) {
				t.Errorf("entry %q: meta %d aux %d length %d value %q (seen before: %v)",
					e.Key, e.Meta, e.Aux, e.ValueLen, e.Value(), seen[string(e.Key)])
			}
			seen[string(e.Key)] = true
			return true
		})
		if cursor == 0 {
			break
		}
	}
	if len(seen) != n || calls != 4 {
		t.Fatalf("a cycle of %d calls showed %d of %d keys", calls, len(seen), n)
	}

	// Stopping at every entry still ends the cycle, one bucket per call, and
	// shows one entry of each non-empty bucket.
	stopped := map[string]bool{}
	calls = 0
	for cursor := uint64(0); ; {
		calls++
		cursor = m.Walk(cursor, func(e Entry) bool {
			stopped[string(e.Key)] = true
			return false
		})
		if cursor == 0 {
			break
		}
	}
	if calls > 256 || len(stopped) == 0 || len(stopped) > calls {
		t.Fatalf("stopping visitor: %d calls over 256 buckets showed %d keys", calls, len(stopped))
	}

	// The loop body of Items runs between epoch sections: it may use the map.
	for k := range m.Items() {
		if !m.Contains(k) {
			t.Fatalf("%q yielded but absent", k)
		}
	}
}

// TestWalkUnderChurn: while other keys are inserted and deleted as fast as
// two goroutines can, every cycle shows every key that stays put at least
// once, and whatever it shows — a key deleted a moment ago included — is whole:
// the value that key was stored with.
func TestWalkUnderChurn(t *testing.T) {
	rt := newRT(t)
	m, err := rt.Map("walk", 256)
	if err != nil {
		t.Fatal(err)
	}
	const stable = 400
	for i := 0; i < stable; i++ {
		k := fmt.Appendf(nil, "stable-%04d", i)
		if err := m.Set(k, walkValue(k)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Appendf(nil, "churn-%d-%04d", g, i%300)
				if i/300%2 == 0 {
					if err := m.Set(k, walkValue(k)); err != nil {
						t.Error(err)
						return
					}
				} else {
					m.Delete(k)
				}
			}
		}(g)
	}
	for cycle := 0; cycle < 30; cycle++ {
		seen := 0
		for cursor := uint64(0); ; {
			cursor = m.Walk(cursor, func(e Entry) bool {
				if want := walkValue(e.Key); e.ValueLen != len(want) || !bytes.Equal(e.Value(), want) {
					t.Errorf("cycle %d: %q shown with value %q", cycle, e.Key, e.Value())
				}
				if bytes.HasPrefix(e.Key, []byte("stable-")) {
					seen++
				}
				return true
			})
			if cursor == 0 {
				break
			}
		}
		if seen != stable {
			t.Fatalf("cycle %d showed %d of the %d keys that were there throughout", cycle, seen, stable)
		}
	}
	close(stop)
	wg.Wait()
}
