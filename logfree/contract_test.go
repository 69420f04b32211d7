package logfree_test

import (
	"bytes"
	"errors"
	"fmt"
	"iter"
	"maps"
	"math/rand"
	"testing"

	"repro/logfree"
)

// The byte-map contract, stated once and run over a runtime opened with the
// defaults (one part), a runtime asked for one part by WithShards(1), and a
// runtime of four parts joined by the routing hash. Their maps are the same
// types, so nothing below knows which subject it runs on. The first two take
// one code path; both are kept because they are the two ways a one-part
// runtime is opened (the defaults, and the explicit WithShards(1) that
// memcache and the benchmark's sharded layer row pass), so a change that
// gave the explicit request a path of its own is caught here.

// host is a subject: what opens maps, and how to power-fail and recover it.
type host struct {
	Map        func(name string, buckets int) (*logfree.ByteMap, error)
	OrderedMap func(name string) (*logfree.OrderedByteMap, error)
	crash      func(t *testing.T) host
	parts      int // how many parts the host's maps join
}

func runtimeHost(t *testing.T, rt *logfree.Runtime) host {
	t.Cleanup(func() { rt.Close() })
	return host{rt.Map, rt.OrderedMap, func(t *testing.T) host {
		rt2, err := rt.SimulateCrash()
		if err != nil {
			t.Fatal(err)
		}
		return runtimeHost(t, rt2)
	}, len(rt.Parts())}
}

var subjects = []struct {
	name string
	open func(t *testing.T) host
}{
	{"runtime", func(t *testing.T) host {
		rt, err := logfree.New(logfree.WithSize(32 << 20))
		if err != nil {
			t.Fatal(err)
		}
		return runtimeHost(t, rt)
	}},
	{"pool-1", func(t *testing.T) host { return openHost(t, 1) }},
	{"pool-4", func(t *testing.T) host { return openHost(t, 4) }},
}

func openHost(t *testing.T, shards int) host {
	rt, err := logfree.New(logfree.WithShards(shards), logfree.WithSize(32<<20/uint64(shards)))
	if err != nil {
		t.Fatal(err)
	}
	return runtimeHost(t, rt)
}

// itemMap is what the two map kinds share beyond logfree.Map.
type itemMap interface {
	logfree.Map
	SetItem(key, value []byte, meta uint16, aux uint64) (created bool, err error)
	GetItem(key []byte) (value []byte, meta uint16, aux uint64, ok bool)
	SetAux(key []byte, aux uint64) bool
	Items() iter.Seq2[[]byte, logfree.Item]
}

// bothKinds opens the hash map and the ordered map registered under name.
func bothKinds(t *testing.T, h host, name string) map[string]itemMap {
	bm, err := h.Map(name+"-map", 128)
	if err != nil {
		t.Fatal(err)
	}
	om, err := h.OrderedMap(name + "-ordered")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]itemMap{"map": bm, "ordered": om}
}

func ckey(i int) []byte { return fmt.Appendf(nil, "key-%05d", i) }
func cval(i int) []byte { return fmt.Appendf(nil, "val-%05d", i) }

// wantItems fails unless m holds exactly model, read back three ways: point
// reads, Len, and one pass of Items.
func wantItems(t *testing.T, m itemMap, model map[string]logfree.Item) {
	t.Helper()
	if got := m.Len(); got != len(model) {
		t.Fatalf("Len = %d, want %d", got, len(model))
	}
	for k, want := range model {
		v, meta, aux, ok := m.GetItem([]byte(k))
		if !ok || !bytes.Equal(v, want.Value) || meta != want.Meta || aux != want.Aux {
			t.Fatalf("GetItem(%q) = %q, %d, %d, %v; want %+v", k, v, meta, aux, ok, want)
		}
	}
	seen := map[string]bool{}
	for k, it := range m.Items() {
		want, ok := model[string(k)]
		if !ok || seen[string(k)] || !bytes.Equal(it.Value, want.Value) || it.Meta != want.Meta || it.Aux != want.Aux {
			t.Fatalf("Items yielded %q -> %+v (in model: %v, seen before: %v)", k, it, ok, seen[string(k)])
		}
		seen[string(k)] = true
	}
	if len(seen) != len(model) {
		t.Fatalf("Items yielded %d of %d entries", len(seen), len(model))
	}
}

func TestMapContract(t *testing.T) {
	for _, sub := range subjects {
		t.Run(sub.name, func(t *testing.T) {
			h := sub.open(t)
			for kind, m := range bothKinds(t, h, "c") {
				t.Run("point/"+kind, func(t *testing.T) { contractPoint(t, m) })
				t.Run("meta-aux/"+kind, func(t *testing.T) { contractMetaAux(t, m) })
			}
			t.Run("walk", func(t *testing.T) { contractWalk(t, h) })
			t.Run("step", func(t *testing.T) { contractStep(t, h) })
			t.Run("ordered", func(t *testing.T) { contractOrdered(t, h) })
			t.Run("crash", func(t *testing.T) { contractCrash(t, h) })
		})
	}
}

// contractPoint: Set/Get/Contains/Delete/Len/All through logfree.Map alone.
func contractPoint(t *testing.T, m logfree.Map) {
	const n = 400
	for i := 0; i < n; i++ {
		if err := m.Set(ckey(i), cval(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := m.Get([]byte("nope")); ok || m.Contains([]byte("nope")) {
		t.Fatal("missing key found")
	}
	if err := m.Set(ckey(7), []byte("a longer value, in place of the first")); err != nil {
		t.Fatal(err)
	}
	if v, ok := m.Get(ckey(7)); !ok || string(v) != "a longer value, in place of the first" {
		t.Fatalf("after overwrite: %q, %v", v, ok)
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	for i := 0; i < n; i += 2 {
		if !m.Delete(ckey(i)) {
			t.Fatalf("Delete(%d) = false", i)
		}
	}
	if m.Delete(ckey(0)) {
		t.Fatal("double delete succeeded")
	}
	if m.Contains(ckey(0)) || !m.Contains(ckey(1)) {
		t.Fatal("Contains disagrees with the deletes")
	}
	seen := 0
	for k, v := range m.All() {
		var i int
		fmt.Sscanf(string(k), "key-%d", &i)
		if i%2 == 0 || (i != 7 && !bytes.Equal(v, cval(i))) {
			t.Fatalf("All yielded %q -> %q", k, v)
		}
		seen++
	}
	if seen != n/2 || m.Len() != n/2 {
		t.Fatalf("All yielded %d, Len = %d, want %d", seen, m.Len(), n/2)
	}
	for i := 1; i < n; i += 2 {
		m.Delete(ckey(i))
	}
}

// contractMetaAux: the metadata field and aux word travel with the entry
// through SetItem, GetItem, SetAux and Items.
func contractMetaAux(t *testing.T, m itemMap) {
	model := map[string]logfree.Item{}
	for i := 0; i < 200; i++ {
		created, err := m.SetItem(ckey(i), cval(i), uint16(i), uint64(i)*3)
		if err != nil || !created {
			t.Fatalf("SetItem(%d) = %v, %v", i, created, err)
		}
		model[string(ckey(i))] = logfree.Item{Value: cval(i), Meta: uint16(i), Aux: uint64(i) * 3}
	}
	if created, err := m.SetItem(ckey(3), []byte("v2"), 8, 100); err != nil || created {
		t.Fatalf("replacing SetItem = %v, %v", created, err)
	}
	model[string(ckey(3))] = logfree.Item{Value: []byte("v2"), Meta: 8, Aux: 100}
	if !m.SetAux(ckey(5), 99) {
		t.Fatal("SetAux on a live key returned false")
	}
	model[string(ckey(5))] = logfree.Item{Value: cval(5), Meta: 5, Aux: 99}
	if m.SetAux([]byte("absent"), 1) {
		t.Fatal("SetAux on a missing key succeeded")
	}
	wantItems(t, m, model)
	for k := range model {
		m.Delete([]byte(k))
	}
}

// contractStep: Update reads the key's entry and acts on it, or leaves it, in
// one step, and returns fn's error; AppendItem reads into a caller's buffer.
// The step's slot is the entry's identity, the one AppendItem and Sweep report
// for it: a replace writes a new entry with a slot of its own, SetAux keeps
// the entry and its slot, and entries of different parts never share one.
func contractStep(t *testing.T, h host) {
	m, err := h.Map("c-step", 128)
	if err != nil {
		t.Fatal(err)
	}
	errKept := errors.New("kept")
	step := func(key []byte, fn func(st *logfree.KeyStep) error) {
		t.Helper()
		if err := m.Update(key, fn); err != nil {
			t.Fatalf("Update(%q): %v", key, err)
		}
	}
	appendSlot := func(key []byte) uint64 {
		t.Helper()
		_, _, _, slot, ok := m.AppendItem(nil, key)
		if !ok {
			t.Fatalf("AppendItem(%q) missed", key)
		}
		return slot
	}
	slots := map[string]uint64{} // key → its entry's slot
	owner := map[uint64][]byte{} // slot → the key whose entry it is
	parts := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		step(ckey(i), func(st *logfree.KeyStep) error {
			if st.Found() || st.Aux() != 0 || st.ValueLen() != 0 || st.Slot() != 0 {
				t.Errorf("absent %q: found %v, aux %d, %d bytes, slot %#x", ckey(i), st.Found(), st.Aux(), st.ValueLen(), st.Slot())
			}
			return nil
		})
		var slot uint64
		step(ckey(i), func(st *logfree.KeyStep) error {
			created, err := st.Set(cval(i), uint16(i), uint64(i))
			if !created {
				t.Errorf("Set of absent %q did not create it", ckey(i))
			}
			slot = st.Slot()
			return err
		})
		if got := appendSlot(ckey(i)); got != slot {
			t.Fatalf("%q: the step's Set wrote slot %#x, AppendItem reads %#x", ckey(i), slot, got)
		}
		if other, dup := owner[slot]; dup {
			t.Fatalf("%q and %q share slot %#x", ckey(i), other, slot)
		}
		slots[string(ckey(i))], owner[slot] = slot, ckey(i)
		parts[slot>>logfree.PartShift] = true
	}
	if len(parts) != h.parts {
		t.Fatalf("64 keys landed on %d parts of %d", len(parts), h.parts)
	}
	swept := map[string]uint64{}
	for cursor := uint64(0); ; {
		cursor = m.Sweep(cursor, func(e logfree.SweepEntry) bool {
			if e.Live() {
				swept[string(e.Key)] = e.Slot
			}
			return true
		})
		if cursor == 0 {
			break
		}
	}
	for k, slot := range slots {
		if swept[k] != slot {
			t.Fatalf("%q: slot %#x, its live extent swept with slot %#x", k, slot, swept[k])
		}
	}
	var slot9 uint64
	step(ckey(9), func(st *logfree.KeyStep) error {
		if !st.Found() || st.Meta() != 9 || st.Aux() != 9 || string(st.AppendValue([]byte("<"))) != "<"+string(cval(9)) {
			t.Errorf("present key: found %v, meta %d, aux %d, value %q", st.Found(), st.Meta(), st.Aux(), st.AppendValue(nil))
		}
		slot9 = st.Slot()
		return nil
	})
	v, meta, aux, got, ok := m.AppendItem([]byte(">"), ckey(9))
	if !ok || string(v) != ">"+string(cval(9)) || meta != 9 || aux != 9 || got != slot9 {
		t.Fatalf("AppendItem = %q, %d, %d, slot %#x (step saw %#x), %v", v, meta, aux, got, slot9, ok)
	}
	if v, _, _, slot, ok := m.AppendItem([]byte(">"), []byte("absent")); ok || v != nil || slot != 0 {
		t.Fatalf("AppendItem of an absent key = %q, slot %#x, %v", v, slot, ok)
	}
	step(ckey(1), func(st *logfree.KeyStep) error {
		before := st.Slot()
		created, err := st.Set([]byte("replaced"), 1, 100)
		if created {
			t.Error("replacing Set created")
		}
		if after := st.Slot(); after == before || after == 0 {
			t.Errorf("a replace left the step's slot %#x at %#x", before, after)
		}
		return err
	})
	if got := appendSlot(ckey(1)); got == slots[string(ckey(1))] {
		t.Fatalf("a replaced key still reads slot %#x", got)
	}
	step(ckey(2), func(st *logfree.KeyStep) error {
		before := st.Slot()
		if !st.SetAux(200) {
			t.Error("SetAux on a present key missed")
		}
		if st.Slot() != before {
			t.Errorf("SetAux moved the step's slot %#x to %#x", before, st.Slot())
		}
		return nil
	})
	if got, before := appendSlot(ckey(2)), slots[string(ckey(2))]; got != before {
		t.Fatalf("SetAux moved the key's slot %#x to %#x", before, got)
	}
	step(ckey(3), func(st *logfree.KeyStep) error {
		if !st.Delete() {
			t.Error("Delete of a present key missed")
		}
		return nil
	})
	if err := m.Update(ckey(4), func(st *logfree.KeyStep) error { return errKept }); !errors.Is(err, errKept) {
		t.Fatalf("Update returned %v, want fn's error", err)
	}
	if err := m.Update(nil, func(*logfree.KeyStep) error {
		t.Error("Update ran fn for an empty key")
		return nil
	}); !errors.Is(err, logfree.ErrBadKey) {
		t.Fatalf("Update of an empty key: %v, want ErrBadKey", err)
	}
	model := map[string]logfree.Item{}
	for i := 0; i < 64; i++ {
		model[string(ckey(i))] = logfree.Item{Value: cval(i), Meta: uint16(i), Aux: uint64(i)}
	}
	model[string(ckey(1))] = logfree.Item{Value: []byte("replaced"), Meta: 1, Aux: 100}
	model[string(ckey(2))] = logfree.Item{Value: cval(2), Meta: 2, Aux: 200}
	delete(model, string(ckey(3)))
	wantItems(t, m, model)
}

// contractWalk: from cursor 0 until 0 comes back a quiescent map shows every
// entry exactly once, whole; while other keys churn, every cycle still shows
// every key that stays put.
func contractWalk(t *testing.T, h host) {
	m, err := h.Map("c-walk", 128)
	if err != nil {
		t.Fatal(err)
	}
	const stable = 400
	for i := 0; i < stable; i++ {
		if _, err := m.SetItem(ckey(i), cval(i), uint16(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	cycle := func() (stableSeen, calls int) {
		seen := map[string]bool{}
		for cursor := uint64(0); ; {
			calls++
			cursor = m.Walk(cursor, func(e logfree.Entry) bool {
				var i int
				fmt.Sscanf(string(e.Key), "key-%d", &i)
				if e.ValueLen != len(cval(i)) || !bytes.Equal(e.Value(), cval(i)) {
					t.Errorf("%q shown with value %q", e.Key, e.Value())
				}
				if i < stable {
					if seen[string(e.Key)] || e.Meta != uint16(i) || e.Aux != uint64(i) {
						t.Errorf("%q: meta %d aux %d (seen before: %v)", e.Key, e.Meta, e.Aux, seen[string(e.Key)])
					}
					seen[string(e.Key)] = true
				}
				return true
			})
			if cursor == 0 {
				return len(seen), calls
			}
		}
	}
	if seen, calls := cycle(); seen != stable || calls < 2 {
		t.Fatalf("a quiescent cycle of %d calls showed %d of %d keys", calls, seen, stable)
	}
	if next := m.Walk(1<<63, func(logfree.Entry) bool { return true }); next != 0 {
		t.Fatalf("a cursor past the last part resumed at %#x", next)
	}

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := stable + i%300
			if i/300%2 == 0 {
				if err := m.Set(ckey(k), cval(k)); err != nil {
					t.Error(err)
					return
				}
			} else {
				m.Delete(ckey(k))
			}
		}
	}()
	for c := 0; c < 10; c++ {
		if seen, _ := cycle(); seen != stable {
			t.Fatalf("cycle %d under churn showed %d of %d stable keys", c, seen, stable)
		}
	}
	close(stop)
	<-done
}

func skey(i int) []byte { return fmt.Appendf(nil, "sweep-%05d", i) }

// sweepCycle runs Sweep from cursor 0 until 0 comes back, stopping the step
// after every entry so that each returned cursor tells where the entry was:
// within a part those cursors must grow. It returns how often each key was
// presented with Live true; live reports whether a key counts as the map's.
func sweepCycle(t *testing.T, m *logfree.ByteMap, live func(key []byte) bool) map[string]int {
	t.Helper()
	shown := map[string]int{}
	var prev uint64
	for cursor := uint64(0); ; {
		cursor = m.Sweep(cursor, func(e logfree.SweepEntry) bool {
			if e.Live() {
				if !live(e.Key) {
					t.Errorf("%q reported Live, but it is not an entry of the map", e.Key)
				}
				shown[string(e.Key)]++
			}
			return false
		})
		if cursor == 0 {
			return shown
		}
		if cursor>>logfree.PartShift == prev>>logfree.PartShift && cursor <= prev {
			t.Fatalf("the sweep went back within a part: cursor %#x after %#x", cursor, prev)
		}
		prev = cursor
	}
}

// TestSweepContract: a quiescent cycle of the address-order sweep presents
// every live key once as Live, and nothing else as Live — not a replaced
// version, not another map's entry (the ordered map's entries share the
// extent shape), not a sentinel. Under churn, every key that stays put is
// still Live once a cycle.
func TestSweepContract(t *testing.T) {
	for _, sub := range subjects {
		t.Run(sub.name, func(t *testing.T) { contractSweep(t, sub.open(t)) })
	}
}

func contractSweep(t *testing.T, h host) {
	m, err := h.Map("c-sweep", 128)
	if err != nil {
		t.Fatal(err)
	}
	om, err := h.OrderedMap("c-sweep-ordered")
	if err != nil {
		t.Fatal(err)
	}
	const stable = 500
	model := map[string]bool{}
	for i := 0; i < stable; i++ {
		if err := m.Set(skey(i), cval(i)); err != nil {
			t.Fatal(err)
		}
		if err := om.Set(fmt.Appendf(nil, "ordered-%05d", i), cval(i)); err != nil {
			t.Fatal(err)
		}
		model[string(skey(i))] = true
	}
	for i := 0; i < stable; i += 5 { // leave replaced versions behind
		if err := m.Set(skey(i), []byte("replaced")); err != nil {
			t.Fatal(err)
		}
	}
	live := func(k []byte) bool { return model[string(k)] }
	shown := sweepCycle(t, m, live)
	for k := range model {
		if shown[k] != 1 {
			t.Fatalf("%q was presented Live %d times in a quiescent cycle", k, shown[k])
		}
	}
	if len(shown) != len(model) {
		t.Fatalf("%d keys presented Live, the map holds %d", len(shown), len(model))
	}
	if next := m.Sweep(1<<63, func(logfree.SweepEntry) bool { return true }); next != 0 {
		t.Fatalf("a cursor past the last part resumed at %#x", next)
	}

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := stable + i%300
			if i/300%2 == 0 {
				if err := m.Set(skey(k), cval(k)); err != nil {
					t.Error(err)
					return
				}
			} else {
				m.Delete(skey(k))
			}
		}
	}()
	churned := func(k []byte) bool {
		var i int
		fmt.Sscanf(string(k), "sweep-%d", &i)
		return model[string(k)] || bytes.HasPrefix(k, []byte("sweep-")) && i >= stable
	}
	for c := 0; c < 5; c++ {
		shown := sweepCycle(t, m, churned)
		for k := range model {
			if shown[k] != 1 {
				t.Fatalf("cycle %d under churn presented %q Live %d times", c, k, shown[k])
			}
		}
	}
	close(stop)
	<-done
}

// contractOrdered: Scan, ScanItems, Ascend, Descend, Min and Max order the
// WHOLE map by key bytes, however many parts hold it.
func contractOrdered(t *testing.T, h host) {
	om, err := h.OrderedMap("c-scan")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := om.Min(); ok {
		t.Fatal("Min of an empty map")
	}
	if _, _, ok := om.Max(); ok {
		t.Fatal("Max of an empty map")
	}
	const n = 600
	for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
		if _, err := om.SetItem(ckey(i), cval(i), 0, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var m logfree.OrderedMap = om
	i := 0
	for k, v := range m.All() {
		if !bytes.Equal(k, ckey(i)) || !bytes.Equal(v, cval(i)) {
			t.Fatalf("All[%d] = %q/%q", i, k, v)
		}
		i++
	}
	if i != n {
		t.Fatalf("All yielded %d keys, want %d", i, n)
	}
	lo, hi := 100, 250
	i = lo
	for k := range m.Scan(ckey(lo), ckey(hi)) {
		if !bytes.Equal(k, ckey(i)) {
			t.Fatalf("Scan[%d] = %q", i, k)
		}
		i++
	}
	if i != hi {
		t.Fatalf("Scan stopped at %d, want %d", i, hi)
	}
	i = lo
	for k, it := range om.ScanItems(ckey(lo), ckey(hi)) {
		if !bytes.Equal(k, ckey(i)) || it.Aux != uint64(i) || !bytes.Equal(it.Value, cval(i)) {
			t.Fatalf("ScanItems[%d] = %q %+v", i, k, it)
		}
		i++
	}
	if i != hi {
		t.Fatalf("ScanItems stopped at %d, want %d", i, hi)
	}
	i = n - 1
	for k := range m.Descend() {
		if !bytes.Equal(k, ckey(i)) {
			t.Fatalf("Descend[%d] = %q", i, k)
		}
		i--
	}
	if i != -1 {
		t.Fatalf("Descend yielded %d keys, want %d", n-1-i, n)
	}
	// An early break releases every part's cursor: the map stays usable, and
	// a loop body may operate on the map it ranges over.
	count := 0
	for k := range m.Ascend() {
		if !m.Contains(k) {
			t.Fatalf("%q yielded but absent", k)
		}
		if count++; count == 10 {
			break
		}
	}
	if k, v, ok := m.Min(); !ok || !bytes.Equal(k, ckey(0)) || !bytes.Equal(v, cval(0)) {
		t.Fatalf("Min = %q/%q/%v", k, v, ok)
	}
	if k, v, ok := m.Max(); !ok || !bytes.Equal(k, ckey(n-1)) || !bytes.Equal(v, cval(n-1)) {
		t.Fatalf("Max = %q/%q/%v", k, v, ok)
	}
}

// contractCrash: what was written, rewritten and deleted before a power
// failure (link cache off: acknowledged means durable) is what both map kinds
// hold after recovery.
func contractCrash(t *testing.T, h host) {
	model := map[string]logfree.Item{}
	for _, m := range bothKinds(t, h, "c-crash") {
		for i := 0; i < 500; i++ {
			if _, err := m.SetItem(ckey(i), cval(i), uint16(i), uint64(i)); err != nil {
				t.Fatal(err)
			}
			model[string(ckey(i))] = logfree.Item{Value: cval(i), Meta: uint16(i), Aux: uint64(i)}
		}
		for i := 500; i < 600; i++ {
			if err := m.Set(ckey(i), cval(i)); err != nil {
				t.Fatal(err)
			}
			model[string(ckey(i))] = logfree.Item{Value: cval(i)}
		}
		for i := 0; i < 600; i += 4 {
			m.Delete(ckey(i))
			delete(model, string(ckey(i)))
		}
	}
	h2 := h.crash(t)
	for kind, m := range bothKinds(t, h2, "c-crash") {
		t.Run(kind, func(t *testing.T) { wantItems(t, m, model) })
	}
	om, err := h2.OrderedMap("c-crash-ordered")
	if err != nil {
		t.Fatal(err)
	}
	var prev []byte
	for k := range om.All() {
		if bytes.Compare(prev, k) >= 0 {
			t.Fatalf("post-crash scan out of order: %q then %q", prev, k)
		}
		prev = bytes.Clone(k)
	}
}

// TestOneShardPoolCountsEqualRuntime states "a runtime of one part pays
// nothing for the routing" in counts: the same seeded 10 000 operations
// through the map of a runtime opened with the defaults and through that of a
// runtime asked for WithShards(1) leave the two devices' write-back, fence
// and sync-wait counters equal. The two opens share one code path; the test
// keeps them from parting.
func TestOneShardPoolCountsEqualRuntime(t *testing.T) {
	run := func(m *logfree.ByteMap) map[string]string {
		rng := rand.New(rand.NewSource(23))
		model := map[string]string{}
		for op := 0; op < 10_000; op++ {
			i := rng.Intn(700)
			k, v := ckey(i), bytes.Repeat([]byte{byte(i)}, 1+rng.Intn(200))
			switch r := rng.Intn(20); {
			case r < 8:
				if _, err := m.SetItem(k, v, uint16(op), uint64(op)); err != nil {
					t.Fatal(err)
				}
				model[string(k)] = string(v)
			case r < 13:
				if got, _, _, ok := m.GetItem(k); ok != (model[string(k)] != "") || string(got) != model[string(k)] {
					t.Fatalf("op %d: GetItem(%q) = %q, %v; want %q", op, k, got, ok, model[string(k)])
				}
			case r < 15:
				err := m.Update(k, func(st *logfree.KeyStep) error {
					if st.Found() != (model[string(k)] != "") || st.ValueLen() != len(model[string(k)]) {
						t.Errorf("op %d: Update(%q) found %v, %d bytes; want %q", op, k, st.Found(), st.ValueLen(), model[string(k)])
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			case r < 16:
				m.SetAux(k, uint64(op))
			case r < 19:
				m.Delete(k)
				delete(model, string(k))
			default:
				for j := 0; j < 8; j++ {
					if err := m.Set(ckey(i+j), v); err != nil {
						t.Fatal(err)
					}
					model[string(ckey(i+j))] = string(v)
				}
			}
		}
		return model
	}

	rt, err := logfree.New(logfree.WithSize(32 << 20))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rm, err := rt.Map("counts", 256)
	if err != nil {
		t.Fatal(err)
	}
	p, err := logfree.New(logfree.WithShards(1), logfree.WithSize(32<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	pm, err := p.Map("counts", 256)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := run(rm), run(pm); !maps.Equal(a, b) || rm.Len() != len(a) || pm.Len() != len(b) {
		t.Fatalf("contents differ: runtime %d keys (model %d), one-shard runtime %d keys (model %d)", rm.Len(), len(a), pm.Len(), len(b))
	}
	a, b := rt.Device().Stats(), p.Parts()[0].Device().Stats()
	if a.Clwbs != b.Clwbs || a.Fences != b.Fences || a.SyncWaits != b.SyncWaits || a.Clwbs == 0 {
		t.Fatalf("default runtime's map cost %d clwbs, %d fences, %d sync waits; the one-shard runtime's %d, %d, %d",
			a.Clwbs, a.Fences, a.SyncWaits, b.Clwbs, b.Fences, b.SyncWaits)
	}
}
