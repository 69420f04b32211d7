package nvram

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// storeWordsRef is the word-at-a-time form of StorePrivateBytes: the
// concatenation of parts packed little-endian, one StorePrivate per word.
func storeWordsRef(d *Device, a Addr, parts ...[]byte) {
	cat := bytes.Join(parts, nil)
	for i := 0; i < len(cat); i += WordSize {
		var w [WordSize]byte
		copy(w[:], cat[i:])
		d.StorePrivate(a+Addr(i), binary.LittleEndian.Uint64(w[:]))
	}
}

// loadWordsRef is the word-at-a-time form of LoadBytes: one Load per word
// holding a wanted byte, unpacked little-endian.
func loadWordsRef(d *Device, a Addr, n int) []byte {
	if n == 0 {
		return nil
	}
	var words []byte
	for w := a &^ (WordSize - 1); w < a+Addr(n); w += WordSize {
		words = binary.LittleEndian.AppendUint64(words, d.Load(w))
	}
	skip := a & (WordSize - 1)
	return words[skip : skip+Addr(n)]
}

// TestRangeMatchesWords drives two devices through the same seeded sequence
// of entry-shaped writes, one with StorePrivateBytes and one with a
// StorePrivate per word, and checks after each that they hold the same
// volatile words, persisted words and dirty lines, that the rest of the last
// word is zero, that both called the StoreHook once per word on the same
// device state (so a crash injected at any stop point finds the range
// written up to the same word) and ticked AutoEvictEvery as often (so
// evicted the same lines, in the same state), and that LoadBytes at every
// offset into the range reads what a Load per word reads. Every length from 0 to 300
// bytes is split into its two parts at every point; the lengths of the
// allocator's classes (multiples of 64 up to 2048) at a seeded sample of
// points. The range starts at every word of a line as the cases run.
func TestRangeMatchesWords(t *testing.T) {
	const size = 16 << 10
	rng := rand.New(rand.NewSource(3802))
	rd := New(Config{Size: size, AutoEvictEvery: 7})
	wd := New(Config{Size: size, AutoEvictEvery: 7})
	defer rd.Close()
	defer wd.Close()
	rf, wf := rd.NewFlusher(), wd.NewFlusher()
	// Each hook call digests the volatile and persisted words of the lines
	// around the range [lo, hi), as a crash injected there would find them.
	var lo, hi uint64
	var rHooks, wHooks []uint64
	digest := func(d *Device) uint64 {
		h := uint64(14695981039346656037)
		for _, img := range [][]uint64{d.words, d.pers} {
			for _, w := range img[lo*lineWords : hi*lineWords] {
				h = (h ^ w) * 1099511628211
			}
		}
		return h
	}
	rd.StoreHook = func() { rHooks = append(rHooks, digest(rd)) }
	wd.StoreHook = func() { wHooks = append(wHooks, digest(wd)) }
	src := make([]byte, 2*maxRange)
	rng.Read(src)
	buf := make([]byte, maxRange)

	run := func(n, k int) {
		t.Helper()
		off := (n + k) % lineWords
		a := Addr(LineSize*(1+rng.Intn(size/LineSize-2-maxRange/LineSize)) + off*WordSize)
		x, y := rng.Intn(maxRange), rng.Intn(maxRange)
		p, q := src[x:x+k], src[y:y+n-k]
		words := (n + WordSize - 1) / WordSize
		if words > 0 { // a stale last word, so a missing zero tail shows
			g := rng.Uint64()
			last := a + Addr(words-1)*WordSize
			rd.Store(last, g)
			wd.Store(last, g)
		}
		lo, hi = a/LineSize-1, (a+Addr(n))/LineSize+2
		rHooks, wHooks = rHooks[:0], wHooks[:0]
		rd.StorePrivateBytes(a, p, q)
		storeWordsRef(wd, a, p, q)

		what := func() string { return fmt.Sprintf("%d bytes split at %d from %#x", n, k, a) }
		if len(rHooks) != words || len(wHooks) != words {
			t.Fatalf("%s: StoreHook fired %d times for the range, %d for the words, want %d", what(), len(rHooks), len(wHooks), words)
		}
		for h := range words {
			if rHooks[h] != wHooks[h] {
				t.Fatalf("%s: at StoreHook call %d the devices differ", what(), h)
			}
		}
		if r, w := rd.evictTick.Load(), wd.evictTick.Load(); r != w {
			t.Fatalf("%s: eviction ticks %d for the range, %d for the words", what(), r, w)
		}
		if r, w := rd.statEvicts.Load(), wd.statEvicts.Load(); r != w {
			t.Fatalf("%s: %d evictions for the range, %d for the words", what(), r, w)
		}
		if !slices.Equal(rd.words[lo*lineWords:hi*lineWords], wd.words[lo*lineWords:hi*lineWords]) {
			t.Fatalf("%s: the volatile words differ", what())
		}
		if !slices.Equal(rd.pers[lo*lineWords:hi*lineWords], wd.pers[lo*lineWords:hi*lineWords]) {
			t.Fatalf("%s: the persisted words differ", what())
		}
		if r, w := dirtyFlags(rd, lo, hi), dirtyFlags(wd, lo, hi); !slices.Equal(r, w) {
			t.Fatalf("%s: dirty lines %v for the range, %v for the words", what(), r, w)
		}
		if tail := make([]byte, words*WordSize-n); len(tail) > 0 {
			rd.LoadBytes(a+Addr(n), tail)
			if !bytes.Equal(tail, make([]byte, len(tail))) {
				t.Fatalf("%s: the last word's tail is %x, want zeros", what(), tail)
			}
		}
		cat := append(slices.Clip(p), q...)
		want := loadWordsRef(rd, a, n)
		if !bytes.Equal(want, cat) {
			t.Fatalf("%s: the words hold %x, the parts %x", what(), want, cat)
		}
		for skip := 0; skip < min(WordSize, n+1); skip++ {
			got := buf[:n-skip]
			rd.LoadBytes(a+Addr(skip), got)
			if !bytes.Equal(got, want[skip:]) {
				t.Fatalf("%s: LoadBytes from byte %d read %x, the words hold %x", what(), skip, got, want[skip:])
			}
		}
		rf.CLWBRange(a, uint64(n))
		wf.CLWBRange(a, uint64(n))
		rf.Fence()
		wf.Fence()
	}

	for n := 0; n <= 300; n++ {
		for k := 0; k <= n; k++ {
			run(n, k)
		}
	}
	for n := 320; n <= maxRange; n += 64 {
		run(n, 0)
		run(n, n)
		for range 30 {
			run(n, rng.Intn(n+1))
		}
	}
}

// maxRange is the largest range TestRangeMatchesWords writes: the byte maps'
// largest entry extent.
const maxRange = 2048

// panicOf returns what f panics with ("" when it returns).
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestRangeBounds pins the edges of the range accesses on a device with
// uncommitted headroom: a load may end on the last committed byte, and an
// access that is misaligned, starts at the nil address or leaves the
// committed capacity panics as the first failing word access would, before
// it writes anything.
func TestRangeBounds(t *testing.T) {
	const size = 4096
	d := New(Config{Size: size, MaxSize: 2 * size})
	defer d.Close()
	image := make([]byte, size)
	rand.New(rand.NewSource(3803)).Read(image[WordSize:])
	d.StorePrivateBytes(WordSize, image[WordSize:])

	for n := 1; n <= 80; n++ {
		got := make([]byte, n)
		if msg := panicOf(func() { d.LoadBytes(size-Addr(n), got) }); msg != "" {
			t.Fatalf("a %d-byte load ending on the last committed byte panicked: %s", n, msg)
		}
		if !bytes.Equal(got, image[size-n:]) {
			t.Fatalf("a %d-byte load ending on the last committed byte read %x, want %x", n, got, image[size-n:])
		}
	}

	eight := make([]byte, WordSize)
	for _, c := range []struct {
		name       string
		rang, word func()
	}{
		{"misaligned store",
			func() { d.StorePrivateBytes(64+3, eight) }, func() { d.StorePrivate(64+3, 0) }},
		{"store at nil",
			func() { d.StorePrivateBytes(0, eight) }, func() { d.StorePrivate(0, 0) }},
		{"store across the end",
			func() { d.StorePrivateBytes(size-WordSize, make([]byte, 9)) }, func() { d.StorePrivate(size, 0) }},
		{"store past the end",
			func() { d.StorePrivateBytes(size, eight) }, func() { d.StorePrivate(size, 0) }},
		{"load across the end",
			func() { d.LoadBytes(size-3, eight) }, func() { d.Load(size) }},
		{"load past the end",
			func() { d.LoadBytes(size+5, eight[:1]) }, func() { d.Load(size) }},
		{"load in the nil word",
			func() { d.LoadBytes(3, eight[:2]) }, func() { d.Load(0) }},
	} {
		got, want := panicOf(c.rang), panicOf(c.word)
		if want == "" || got != want {
			t.Errorf("%s: panicked with %q, a word access with %q", c.name, got, want)
		}
	}
	got := make([]byte, size-WordSize)
	d.LoadBytes(WordSize, got)
	if !bytes.Equal(got, image[WordSize:]) {
		t.Fatal("a range access that panicked changed the device")
	}
}
