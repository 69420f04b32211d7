package nvram

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// isDirty reports whether line's word flags it dirty.
func isDirty(d *Device, line uint64) bool {
	return atomic.LoadUint32(&d.lines[line])&lineDirty != 0
}

// dirtyFlags returns the dirty flags of lines [lo, hi).
func dirtyFlags(d *Device, lo, hi uint64) []bool {
	out := make([]bool, 0, hi-lo)
	for line := lo; line < hi; line++ {
		out = append(out, isDirty(d, line))
	}
	return out
}

// A store made while a write-back holds its line's lock — after the lock
// cleared the dirty flag, before the copy's release — leaves the line dirty:
// the release drops the lock bit alone. Whichever way the copy caught the
// store, the line is written back again, so the store reaches the
// persisted image at the next fence.
func TestStoreDuringWriteBackStaysDirty(t *testing.T) {
	d := newDev(t, 4096)
	defer d.Close()
	f := d.NewFlusher()
	const a = 2 * LineSize
	line := uint64(a / LineSize)
	d.Store(a, 1)

	lw := &d.lines[line]
	lockLine(lw)
	if isDirty(d, line) {
		t.Fatal("taking the write-back lock left the line dirty")
	}
	d.Store(a, 2) // the copy has started: it may or may not see this
	if atomic.LoadUint32(lw)&lineLocked == 0 {
		t.Fatal("a store released the write-back lock")
	}
	unlockLine(lw)
	if !isDirty(d, line) {
		t.Fatal("a store made under the write-back lock is not dirty after the release")
	}
	if atomic.LoadUint32(lw)&lineLocked != 0 {
		t.Fatal("the release left the line locked")
	}

	f.Sync(a)
	if isDirty(d, line) || !d.LinePersisted(a) {
		t.Fatal("the next write-back did not persist the line")
	}
	d.Crash()
	if v := d.Load(a); v != 2 {
		t.Fatalf("after Crash the word reads %d, want 2", v)
	}
}

// Goroutines with flushers of their own store to and fence a small shared
// set of lines, so write-backs of one line overlap each other and the
// stores into it (run under -race: the persisted image is written with plain
// stores, ordered only by the line word's lock). Once they are done, one
// more fence over every line leaves each line's persisted copy equal to its
// volatile one, and no line dirty.
func TestSharedLinesWriteBack(t *testing.T) {
	const lines, goroutines, rounds = 4, 4, 2000
	d := newDev(t, 4096)
	defer d.Close()
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := d.NewFlusher()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := range rounds {
				a := Addr((1+rng.Intn(lines))*LineSize + rng.Intn(lineWords)*WordSize)
				d.Store(a, uint64(g)<<32|uint64(i))
				f.CLWB(a)
				if rng.Intn(3) == 0 {
					f.CLWB(Addr(1+rng.Intn(lines)) * LineSize)
				}
				f.Fence()
			}
		}()
	}
	wg.Wait()

	f := d.NewFlusher()
	f.CLWBRange(LineSize, lines*LineSize)
	f.Fence()
	for l := Addr(1); l <= lines; l++ {
		if !d.LinePersisted(l * LineSize) {
			t.Errorf("line %d: the persisted copy differs from the volatile one", l)
		}
	}
	if n := d.DirtyLines(); n != 0 {
		t.Errorf("DirtyLines() = %d after the final fence, want 0", n)
	}
}
