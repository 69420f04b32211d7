package nvram

import (
	"math/rand"
	"testing"
)

// Crash restores only the dirty lines. Against a word model of both images,
// driven by the same seeded mix of stores, CAS, write-backs, fences, random
// evictions and partial crashes, every line after each crash is persisted
// and holds exactly what the model does — what a full-image restore gives.
func TestCrashMatchesWordModel(t *testing.T) {
	const lines = 64
	const words = lines * lineWords
	d := New(Config{Size: lines * LineSize})
	defer d.Close()
	f := d.NewFlusher()
	rng := rand.New(rand.NewSource(3801))

	// The model: both images, the dirty flags and the flusher's pending set.
	vol := make([]uint64, words)
	pers := make([]uint64, words)
	dirty := make([]bool, lines)
	pending := make(map[uint64]bool)
	store := func(i int, v uint64) {
		vol[i] = v
		dirty[i/lineWords] = true
	}
	writeBack := func(line uint64) {
		copy(pers[line*lineWords:(line+1)*lineWords], vol[line*lineWords:])
		dirty[line] = false
	}
	// EvictRandom draws once per dirty line in address order, so the model
	// replays it exactly from the same seed.
	evict := func(seed int64, p float64) {
		r := rand.New(rand.NewSource(seed))
		for line := range dirty {
			if dirty[line] && r.Float64() < p {
				writeBack(uint64(line))
			}
		}
	}
	check := func(step int) {
		t.Helper()
		for line := uint64(0); line < lines; line++ {
			a := Addr(line*LineSize) | WordSize // line 0 holds the nil address
			if !d.LinePersisted(a) {
				t.Fatalf("step %d: line %d not persisted after Crash", step, line)
			}
		}
		for i := 1; i < words; i++ {
			a := Addr(i * WordSize)
			if got := d.Load(a); got != vol[i] || got != pers[i] || d.PersistedWord(a) != pers[i] {
				t.Fatalf("step %d: word %d reads %d (persisted %d), model %d/%d", step, i, got, d.PersistedWord(a), vol[i], pers[i])
			}
		}
		if n := d.DirtyLines(); n != 0 {
			t.Fatalf("step %d: %d lines still dirty after Crash", step, n)
		}
	}

	crashes := 0
	for step := 0; step < 20000; step++ {
		i := 1 + rng.Intn(words-1)
		a := Addr(i * WordSize)
		switch op := rng.Intn(100); {
		case op < 30:
			v := rng.Uint64()
			d.Store(a, v)
			store(i, v)
		case op < 45:
			v := rng.Uint64()
			d.StorePrivate(a, v)
			store(i, v)
		case op < 55:
			old := vol[i]
			if rng.Intn(4) == 0 {
				old++ // a CAS that fails and dirties nothing
			}
			v := rng.Uint64()
			if d.CAS(a, old, v) != (old == vol[i]) {
				t.Fatalf("step %d: CAS on word %d disagrees with the model", step, i)
			}
			if old == vol[i] {
				store(i, v)
			}
		case op < 75:
			f.CLWB(a)
			pending[uint64(i/lineWords)] = true
		case op < 88:
			f.Fence()
			for line := range pending {
				writeBack(line)
			}
			clear(pending)
		case op < 95:
			seed, p := rng.Int63(), rng.Float64()
			d.EvictRandom(rand.New(rand.NewSource(seed)), p)
			evict(seed, p)
		default:
			seed, p := rng.Int63(), rng.Float64()
			d.CrashPartial(rand.New(rand.NewSource(seed)), p)
			evict(seed, p)
			copy(vol, pers)
			clear(dirty)
			check(step)
			crashes++
		}
		if got := d.Load(a); got != vol[i] {
			t.Fatalf("step %d: word %d reads %d, model %d", step, i, got, vol[i])
		}
	}
	d.Crash()
	copy(vol, pers)
	check(-1)
	if crashes < 100 {
		t.Fatalf("only %d crashes in the mix", crashes)
	}
}
