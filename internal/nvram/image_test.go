package nvram

import (
	"math/rand"
	"os"
	"testing"
	"unsafe"
)

// An image of a huge page or more is mapped on a huge-page boundary and spans
// whole huge pages, so the advice covers every byte of it; a smaller one is
// left unadvised. Either reads as zero.
func TestImagesAreHugeAligned(t *testing.T) {
	if !imagesMapped {
		t.Skip("race-detector and non-unix builds keep the images on the Go heap")
	}
	const words = hugePageSize / WordSize
	for _, n := range []uint64{1, 512, words - 1, words, words + 1, 16 * words} {
		m := newMappings()
		var a hugeAdvice
		img := newImage[uint64](m, n, &a)
		if len(img) != int(n) || img[0] != 0 || img[n-1] != 0 {
			t.Fatalf("image of %d words: len %d, ends %d and %d", n, len(img), img[0], img[n-1])
		}
		img[n-1] = 1
		page := uint64(os.Getpagesize())
		size := (n*WordSize + page - 1) &^ (page - 1)
		if size < hugePageSize {
			if a != (hugeAdvice{}) {
				t.Errorf("image of %d bytes advised: %+v", size, a)
			}
		} else {
			if addr := uintptr(unsafe.Pointer(&img[0])); addr%hugePageSize != 0 {
				t.Errorf("image of %d bytes at %#x: not on a huge-page boundary", size, addr)
			}
			whole := (size + hugePageSize - 1) &^ (hugePageSize - 1)
			if a.err == nil && a.bytes != whole {
				t.Errorf("image of %d bytes: advised %d, want %d", size, a.bytes, whole)
			}
		}
		m.release()
	}
}

// A device whose images are each below a huge page maps them unadvised and
// says so.
func TestSmallDeviceIsNotAdvised(t *testing.T) {
	d := New(Config{Size: 4096})
	defer d.Close()
	if n, err := d.HugePages(); n != 0 || err != nil {
		t.Fatalf("HugePages() of a 4 KiB device = %d, %v; want 0, nil", n, err)
	}
}

// The per-line sweeps stop at the committed capacity: the reserve above it
// holds no lines yet, and a sweep over it costs time — and, where it writes,
// memory — proportional to address space nobody committed.
func TestSweepsStopAtCommittedCapacity(t *testing.T) {
	const size, maxSize = 1 << 20, 1 << 30
	d := New(Config{Size: size, MaxSize: maxSize})
	rng := rand.New(rand.NewSource(1))

	// A flag planted in the reserve stands for "a sweep went there": no
	// committed line owns it, so nothing may count, write back or clear it.
	reserved := uint64(size / LineSize)
	d.dirty[reserved] = 1

	d.Store(WordSize, 1)
	if got := d.DirtyLines(); got != 1 {
		t.Fatalf("DirtyLines = %d, want 1 (the stored line only)", got)
	}
	d.Crash()
	if got := d.DirtyLines(); got != 0 {
		t.Fatalf("DirtyLines after Crash = %d, want 0", got)
	}
	if v := d.Load(WordSize); v != 0 {
		t.Fatalf("unsynced store survived Crash: %d", v)
	}
	d.EvictRandom(rng, 1)
	if got := d.Stats().Evictions; got != 0 {
		t.Fatalf("EvictRandom wrote back %d lines of the reserve", got)
	}
	if d.dirty[reserved] != 1 {
		t.Fatal("Crash cleared a dirty flag in the reserve")
	}
	d.dirty[reserved] = 0

	// The bound is read at call time: lines committed by Grow are swept.
	if err := d.Grow(2 * size); err != nil {
		t.Fatal(err)
	}
	grown := Addr(size + WordSize)
	d.Store(grown, 7)
	d.Crash()
	if v := d.Load(grown); v != 0 {
		t.Fatalf("unsynced store in the grown half survived Crash: %d", v)
	}
	d.Store(grown, 7)
	if got := d.DirtyLines(); got != 1 {
		t.Fatalf("DirtyLines = %d, want 1 (the line in the grown half)", got)
	}
	d.EvictRandom(rng, 1)
	d.Crash()
	if v := d.Load(grown); v != 7 {
		t.Fatalf("store in the grown half evicted before Crash reads %d, want 7", v)
	}
}
