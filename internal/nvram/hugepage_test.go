package nvram

import (
	"math/rand"
	"testing"
)

// The interior handed to the kernel is the widest 2 MiB-aligned range inside
// the slice: never a byte outside it, and nothing when no whole huge page fits.
func TestHugeInterior(t *testing.T) {
	const base = uintptr(0xc000000000) // where Go's heap arenas start on amd64
	for _, n := range []uintptr{0, 4 << 10, 2<<20 - 8, 2 << 20, 4<<20 + 8, 256 << 20} {
		for _, off := range []uintptr{0, 8, 4 << 10, 2<<20 - 8} {
			addr := base + off
			start, length := hugeInterior(addr, n)
			// Whole aligned huge pages in [addr, addr+n), counted one by one.
			var want uintptr
			for p := (addr + hugePageSize - 1) / hugePageSize * hugePageSize; p+hugePageSize <= addr+n; p += hugePageSize {
				want += hugePageSize
			}
			if length != want {
				t.Errorf("hugeInterior(base+%#x, %#x) = %#x bytes, want %#x", off, n, length, want)
			}
			if length == 0 {
				continue
			}
			if start%hugePageSize != 0 || length%hugePageSize != 0 {
				t.Errorf("hugeInterior(base+%#x, %#x) = [%#x, +%#x): not 2 MiB-aligned", off, n, start, length)
			}
			if start < addr || start+length > addr+n {
				t.Errorf("hugeInterior(base+%#x, %#x) = [%#x, +%#x): outside the slice", off, n, start, length)
			}
		}
	}
}

// A device below 4 MiB need not contain an aligned huge page; one that does
// not is left exactly as allocated and says so.
func TestSmallDeviceIsNotAdvised(t *testing.T) {
	d := New(Config{Size: 4096})
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
