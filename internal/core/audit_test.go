package core

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"time"

	"repro/internal/nvram"
	"repro/internal/pmem"
)

// auditHeap runs AuditHeap on c's store against rs and requires exactly
// want entries: after a recovery every allocated entry is a live one.
func auditHeap(t *testing.T, c *Ctx, rs []Recoverer, want int) {
	t.Helper()
	_, n, err := AuditHeap(c, rs)
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("audit saw %d entries, the map holds %d keys", n, want)
	}
}

// auditSlots runs AuditHeap on a store that has just recovered, against r,
// and requires it to have audited at least one allocated slot.
func auditSlots(t *testing.T, s *Store, r Recoverer) {
	t.Helper()
	slots, _, err := AuditHeap(s.MustCtx(0), []Recoverer{r})
	if err != nil {
		t.Fatal(err)
	}
	if slots == 0 {
		t.Fatal("the heap audit saw no allocated slot")
	}
}

// entryOf returns the address of the allocated entry extent holding key,
// found by a walk over the heap's entry-class pages (0 if none).
func entryOf(s *Store, key []byte) Addr { return entryWith(s, key, nil) }

// entryWith is entryOf restricted to extents that also hold value, unless
// value is nil.
func entryWith(s *Store, key, value []byte) Addr {
	for page := pmem.HeapStart; page < s.pool.HeapEnd(); {
		cl, bm, ok, next := s.pool.HeapPage(page)
		for ; ok && cl >= 1 && bm != 0; bm &= bm - 1 {
			e := page + pmem.SlotAlign + Addr(bits.TrailingZeros64(bm))*Addr(cl.Size())
			if _, shaped := entryShape(s, e, cl); shaped && bytes.Equal(bytesEntryKey(s, e), key) &&
				(value == nil || bytes.Equal(bytesEntryValue(s, e), value)) {
				return e
			}
		}
		page = next
	}
	return 0
}

// TestAuditHeapCatchesLeakAndFreeze: the audit names an allocated entry no
// structure claims, and a claimed entry left frozen, by address, page and
// class.
func TestAuditHeapCatchesLeakAndFreeze(t *testing.T) {
	s := newTestStore(t, Options{MaxThreads: 1})
	c := s.MustCtx(0)
	b := newTestBytesMap(t, s, c, 16)
	if _, err := b.Set(c, []byte("live"), []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	rs := []Recoverer{b.Recoverer()}
	auditHeap(t, c, rs, 1)

	e, _ := b.Find(c, []byte("live"))
	w := s.dev.Load(e + nNext)
	s.dev.Store(e+nNext, w|2) // ptrtag.Tag: a replace's freeze
	if _, _, err := AuditHeap(c, rs); err == nil || !bytes.Contains([]byte(err.Error()), []byte("freeze")) {
		t.Fatalf("audit of a frozen entry: %v", err)
	}
	s.dev.Store(e+nNext, w)

	orphan, err := writeBytesEntry(c, bytesHash([]byte("ghost")), []byte("ghost"), []byte("boo"), 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = AuditHeap(c, rs)
	if want := fmt.Sprintf("%#x (page %#x", orphan, pmem.PageOf(orphan)); err == nil || !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("audit of an orphan entry at %#x: %v", orphan, err)
	}
}

// The replace cut test's keys: the victim, the keys that move the
// allocation off its page and its area out of the table, and a key of the
// victim's bucket that sorts after it (in the bucket, and in byte order).
var (
	cutVictim      = []byte("victim")
	cutOld, cutNew = []byte("old"), bytes.Repeat([]byte("new"), 30)
)

func cutFiller(i int) []byte { return []byte(fmt.Sprintf("filler-%03d", i)) }
func cutBig(i int) []byte    { return []byte(fmt.Sprintf("big-%03d", i)) }

// cutBehind is a key of the victim's bucket in a 32-bucket map with a larger
// index hash than the victim's, so it links in after the victim; it also
// sorts after the victim in byte order.
var cutBehind = func() []byte {
	vh := DefaultBytesHash(cutVictim)
	for i := 0; ; i++ {
		k := []byte(fmt.Sprintf("victim-behind-%d", i))
		if h := DefaultBytesHash(k); h > vh && hashMix(h)&31 == hashMix(vh)&31 {
			return k
		}
	}
}()

const (
	cutFillers = 40 // the victim's class: more than a page of them
	cutBigs    = 24 // one-slot pages, more than the table keeps after a trim
)

// victimStore builds a store of threads contexts holding the victim, its
// fillers and big entries, all set through context 0 and drained, so that
// the victim's entry lies in an area no APT holds. It returns the device,
// the store, context 0 and the map.
func victimStore(t *testing.T, shape mcShape, threads int) (*nvram.Device, *Store, *Ctx, mcMap) {
	t.Helper()
	dev := nvram.New(nvram.Config{Size: 4 << 20})
	s, err := NewStore(dev, Options{MaxThreads: threads, AreaShift: 12})
	if err != nil {
		t.Fatal(err)
	}
	c := s.MustCtx(0)
	m, err := shape.build(c)
	if err != nil {
		t.Fatal(err)
	}
	set := func(k, v []byte) {
		if err := m.set(c, k, v); err != nil {
			t.Fatal(err)
		}
	}
	set(cutVictim, cutOld)
	for i := 0; i < cutFillers; i++ {
		set(cutFiller(i), cutOld)
	}
	for i := 0; i < cutBigs; i++ {
		set(cutBig(i), make([]byte, 2000))
	}
	c.ep.FlushAll()
	victim := entryOf(s, cutVictim)
	for _, a := range s.mgr.ActiveAreas() {
		if a == s.mgr.AreaOf(victim) {
			t.Fatalf("setup: the victim's area %#x is still in a table", a)
		}
	}
	return dev, s, c, m
}

// replaceCutCase builds a store whose only victim entry lies in an area no
// APT holds (victimStore), replaces the victim with a value of another
// class, cut after cut stores, crashes with crash and recovers. It reports
// whether the replace completed before the cut.
func replaceCutCase(t *testing.T, shape mcShape, cut int, crash func(*nvram.Device)) (completed bool) {
	t.Helper()
	dev, _, c, m := victimStore(t, shape, 1)
	set := func(k, v []byte) {
		if err := m.set(c, k, v); err != nil {
			t.Fatal(err)
		}
	}

	countdown := cut
	dev.StoreHook = func() {
		if countdown--; countdown == 0 {
			panic(injectedCrash{})
		}
	}
	completed = func() (done bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(injectedCrash); !ok {
					panic(r)
				}
			}
		}()
		set(cutVictim, cutNew)
		return true
	}()
	dev.StoreHook = nil
	crash(dev)

	s2, err := AttachStore(dev)
	if err != nil {
		t.Fatal(err)
	}
	m2, rec := shape.attach(s2)
	RecoverSet(s2, []Recoverer{rec}, 1)
	c2 := s2.MustCtx(0)
	if v, ok := m2.get(c2, cutVictim); !ok || (v != string(cutOld) && v != string(cutNew)) {
		t.Fatalf("the victim reads %q, %v after recovery; want the old or the new value", v, ok)
	}
	if completed {
		if v, _ := m2.get(c2, cutVictim); v != string(cutNew) {
			t.Fatalf("the replace completed, yet the victim reads %q", v)
		}
	}
	auditHeap(t, c2, []Recoverer{rec}, 1+cutFillers+cutBigs)

	// A freeze left on the victim would make this insert spin for good.
	done := make(chan error, 1)
	go func() { done <- m2.set(c2, cutBehind, cutOld) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("an insert behind the victim did not complete")
	}
	if v, ok := m2.get(c2, cutBehind); !ok || v != string(cutOld) {
		t.Fatalf("the key inserted behind the victim reads %q, %v", v, ok)
	}
	return completed
}

// TestReplaceCutAtEveryStore: a replace whose replaced entry lies in an area
// no APT holds, cut at every store it makes, then crashed with no line, some
// lines and every line written back. Recovery must reach the replaced entry
// through the new entry's beReplaced word: the key reads the old or the new
// value, no entry keeps a freeze (an insert behind the victim completes),
// and the heap audit finds every allocated entry live.
func TestReplaceCutAtEveryStore(t *testing.T) {
	crashes := map[string]func(*nvram.Device){
		"none":  func(d *nvram.Device) { d.Crash() },
		"every": func(d *nvram.Device) { d.CrashPartial(rand.New(rand.NewSource(1)), 1) },
	}
	for seed := int64(1); seed <= 6; seed++ {
		crashes[fmt.Sprintf("half/seed=%d", seed)] = func(d *nvram.Device) {
			d.CrashPartial(rand.New(rand.NewSource(seed)), 0.5)
		}
	}
	for name, shape := range map[string]mcShape{"map": mcBytesShape, "ordered": mcOrderedShape} {
		t.Run(name, func(t *testing.T) {
			cuts := 0
			for cut := 1; ; cut++ {
				completed := false
				for crashName, crash := range crashes {
					t.Run(fmt.Sprintf("cut=%d/%s", cut, crashName), func(t *testing.T) {
						completed = replaceCutCase(t, shape, cut, crash)
					})
				}
				if completed || t.Failed() {
					break
				}
				if cuts++; cuts > 200 {
					t.Fatalf("the replace did not complete in %d stores", cuts)
				}
			}
			if cuts < 10 {
				t.Fatalf("the replace made only %d stores before it completed", cuts)
			}
		})
	}
}

// TestReplaceChainAcrossContexts: context A replaces the victim, whose area
// no APT holds, and idles with it in its open generation; context B then
// replaces (or deletes) A's new entry and drains its own generations. The
// new entry still names the victim, the only way recovery reaches it, so B
// must hold the new entry until A frees the victim. A crash at that point
// must leave a heap the audit passes; with B's free not held, the victim
// stays allocated and unclaimed for good. Without a crash, draining A, then
// B, frees both.
func TestReplaceChainAcrossContexts(t *testing.T) {
	for name, shape := range map[string]mcShape{"map": mcBytesShape, "ordered": mcOrderedShape} {
		for _, del := range []bool{false, true} {
			for _, crash := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/delete=%v/crash=%v", name, del, crash), func(t *testing.T) {
					replaceChainCase(t, shape, del, crash)
				})
			}
		}
	}
}

func replaceChainCase(t *testing.T, shape mcShape, del, crash bool) {
	dev, s, a, m := victimStore(t, shape, 2)
	b := s.MustCtx(1)
	victim := entryOf(s, cutVictim)
	if err := m.set(a, cutVictim, cutNew); err != nil {
		t.Fatal(err)
	}
	mid := entryWith(s, cutVictim, cutNew)
	live := 1 + cutFillers + cutBigs
	if del {
		if !m.del(b, cutVictim) {
			t.Fatal("the delete found no victim")
		}
		live--
	} else if err := m.set(b, cutVictim, cutOld); err != nil {
		t.Fatal(err)
	}
	b.ep.FlushAll()

	if crash {
		// The victim is reached through the held entry.
		dev.Crash()
		s2, err := AttachStore(dev)
		if err != nil {
			t.Fatal(err)
		}
		m2, rec := shape.attach(s2)
		RecoverSet(s2, []Recoverer{rec}, 1)
		c2 := s2.MustCtx(0)
		auditHeap(t, c2, []Recoverer{rec}, live)
		// The surviving entry's word names an entry of the crashed run, which
		// recovery settled: replacing it and draining frees it, held or not.
		if err := m2.set(c2, cutVictim, cutNew); err != nil {
			t.Fatal(err)
		}
		c2.ep.FlushAll()
		if n := c2.ep.PendingRetired(); n != 0 {
			t.Fatalf("%d retired entries held after recovery; a word of the crashed run reads as pending", n)
		}
		if del {
			live++ // the set bound the key afresh
		}
		auditHeap(t, c2, []Recoverer{rec}, live)
		return
	}
	if !s.pool.SlotAllocated(mid) || b.ep.Stats().Held == 0 {
		t.Fatalf("B freed A's new entry %#x (held %d) while it named the pending victim %#x",
			mid, b.ep.Stats().Held, victim)
	}
	// A's drain frees the victim and releases the new entry; B's next drain
	// frees it.
	a.ep.FlushAll()
	b.ep.FlushAll()
	if s.pool.SlotAllocated(victim) || s.pool.SlotAllocated(mid) || b.ep.PendingRetired() != 0 {
		t.Fatalf("after both drains: victim allocated %v, new entry allocated %v, B pending %d",
			s.pool.SlotAllocated(victim), s.pool.SlotAllocated(mid), b.ep.PendingRetired())
	}
	_, rec := shape.attach(s)
	auditHeap(t, a, []Recoverer{rec}, live)
}

// TestAuditHeapCatchesClassZeroOrphan: class-0 slots are audited too. A
// list's sentinels and nodes are claimed slots, and a node no list links is
// named by address, page and class.
func TestAuditHeapCatchesClassZeroOrphan(t *testing.T) {
	s := newTestStore(t, Options{MaxThreads: 1})
	c := s.MustCtx(0)
	l, err := NewList(c)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 3; k++ {
		l.Insert(c, k, k)
	}
	rs := []Recoverer{l.Recoverer()}
	if slots, entries, err := AuditHeap(c, rs); err != nil || slots != 5 || entries != 0 {
		t.Fatalf("audit of a 3-node list: %d slots, %d entries, %v; want the 2 sentinels and 3 nodes", slots, entries, err)
	}

	c.ep.Begin()
	orphan, err := c.ep.AllocNode(listClass)
	c.ep.End()
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = AuditHeap(c, rs)
	if want := fmt.Sprintf("%#x (page %#x, class 0)", orphan, pmem.PageOf(orphan)); err == nil || !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("audit of an orphan node at %#x: %v", orphan, err)
	}
}
