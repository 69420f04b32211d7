package core

// Model-checked crash torture (ISSUE 2): randomized op sequences applied to
// both a durable byte-key map and an in-memory model, with crashes injected
// at randomized write points inside an operation (the nvram StoreHook
// aborts the op mid-flight by panicking after a chosen number of word
// stores, then the device power-fails with a random subset of dirty lines
// evicted). After each recovery the durable state must match one of the
// model's linearizable frontiers:
//
//   - without the link cache every completed operation is durable when it
//     returns, so every key must hold exactly its model value — except the
//     key of the in-flight operation, which may hold the before or the
//     after state (each operation publishes through one atomic durable
//     point), never anything else;
//   - for the ordered map, a post-recovery scan must additionally visit
//     exactly the live keys in strictly ascending byte order.
//
// The harness runs for both byte-map shapes the public API serves: the
// hash-indexed map (KindMap) and the ordered skiplist-indexed map
// (KindOrderedMap) — and over both persistence backends (the in-process
// MemBackend and the file-backed mmap FileBackend), since the recovery
// guarantees must be substrate-independent.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/nvram"
)

// injectedCrash is the panic payload of the store-count crash trigger.
type injectedCrash struct{}

// mcMap adapts the two byte-key maps to one model-checkable surface.
type mcMap interface {
	set(c *Ctx, key, value []byte) error
	get(c *Ctx, key []byte) (string, bool)
	del(c *Ctx, key []byte) bool
	// pairs returns every live key/value; ordered maps report them in scan
	// order.
	pairs(c *Ctx) [][2]string
	ordered() bool
}

type mcBytes struct{ b *BytesMap }

func (m mcBytes) set(c *Ctx, k, v []byte) error { _, err := m.b.Set(c, k, v, 0, 0); return err }
func (m mcBytes) get(c *Ctx, k []byte) (string, bool) {
	v, ok := m.b.Get(c, k)
	return string(v), ok
}
func (m mcBytes) del(c *Ctx, k []byte) bool { return m.b.Delete(c, k) }
func (m mcBytes) pairs(c *Ctx) [][2]string {
	var out [][2]string
	m.b.Range(c, func(k, v []byte) bool {
		out = append(out, [2]string{string(k), string(v)})
		return true
	})
	return out
}
func (m mcBytes) ordered() bool { return false }

type mcOrdered struct{ o *OrderedBytesMap }

func (m mcOrdered) set(c *Ctx, k, v []byte) error { _, err := m.o.Set(c, k, v, 0, 0); return err }
func (m mcOrdered) get(c *Ctx, k []byte) (string, bool) {
	v, ok := m.o.Get(c, k)
	return string(v), ok
}
func (m mcOrdered) del(c *Ctx, k []byte) bool { return m.o.Delete(c, k) }
func (m mcOrdered) pairs(c *Ctx) [][2]string {
	var out [][2]string
	m.o.Ascend(c, func(k, v []byte) bool {
		out = append(out, [2]string{string(k), string(v)})
		return true
	})
	return out
}
func (m mcOrdered) ordered() bool { return true }

// mcShape builds a fresh structure (persisting its anchors in user root
// slots) or re-attaches it after a crash.
type mcShape struct {
	build  func(c *Ctx) (mcMap, error)
	attach func(s *Store) (mcMap, Recoverer)
}

var mcBytesShape = mcShape{
	build: func(c *Ctx) (mcMap, error) {
		b, err := NewBytesMap(c, 32)
		if err != nil {
			return nil, err
		}
		c.s.SetRoot(c, RootUser+0, b.Buckets())
		c.s.SetRoot(c, RootUser+1, uint64(b.NumBuckets()))
		c.s.SetRoot(c, RootUser+2, b.Tail())
		return mcBytes{b}, nil
	},
	attach: func(s *Store) (mcMap, Recoverer) {
		b := AttachBytesMap(s, s.Root(RootUser+0), int(s.Root(RootUser+1)), s.Root(RootUser+2))
		return mcBytes{b}, b.Recoverer()
	},
}

var mcOrderedShape = mcShape{
	build: func(c *Ctx) (mcMap, error) {
		o, err := NewOrderedBytesMap(c)
		if err != nil {
			return nil, err
		}
		c.s.SetRoot(c, RootUser+0, o.Head())
		c.s.SetRoot(c, RootUser+1, o.Tail())
		return mcOrdered{o}, nil
	},
	attach: func(s *Store) (mcMap, Recoverer) {
		o := AttachOrderedBytesMap(s, s.Root(RootUser+0), s.Root(RootUser+1))
		return mcOrdered{o}, o.Recoverer()
	},
}

// mcUniverse is the key universe: shared prefixes, mixed lengths, and a
// same-bucket bias so collision chains and skiplist neighbours get stressed.
var mcUniverse = []string{
	"k", "k0", "k00", "k01", "k1", "k10", "k100",
	"a", "ab", "abc", "m", "z", "zz",
}

type mcOp struct {
	kind int // 0 = set, 1 = delete, 2 = get, 3 = scan
	key  string
	val  string
}

func randOp(rng *rand.Rand, seq int) mcOp {
	key := mcUniverse[rng.Intn(len(mcUniverse))]
	switch r := rng.Intn(100); {
	case r < 52:
		return mcOp{kind: 0, key: key, val: fmt.Sprintf("%s=%d", key, seq)}
	case r < 80:
		return mcOp{kind: 1, key: key}
	case r < 92:
		return mcOp{kind: 2, key: key}
	default:
		return mcOp{kind: 3}
	}
}

// applyModel applies op to the model (the op's post state).
func applyModel(model map[string]string, op mcOp) {
	switch op.kind {
	case 0:
		model[op.key] = op.val
	case 1:
		delete(model, op.key)
	}
}

// frontiers returns every admissible durable state of op crashed mid-flight
// over the model state before: each op publishes through one atomic durable
// point, so the admissible states are the before and the after state.
func frontiers(before map[string]string, op mcOp) []map[string]string {
	cp := func(m map[string]string) map[string]string {
		out := make(map[string]string, len(m))
		for k, v := range m {
			out[k] = v
		}
		return out
	}
	out := []map[string]string{cp(before)}
	switch op.kind {
	case 0, 1:
		after := cp(before)
		applyModel(after, op)
		out = append(out, after)
	}
	return out
}

// applyDurable applies op to the structure, checking read results against
// the model while no crash is pending.
func applyDurable(t *testing.T, m mcMap, c *Ctx, op mcOp, model map[string]string) {
	t.Helper()
	switch op.kind {
	case 0:
		if err := m.set(c, []byte(op.key), []byte(op.val)); err != nil {
			t.Fatal(err)
		}
	case 1:
		_, want := model[op.key]
		if got := m.del(c, []byte(op.key)); got != want {
			t.Fatalf("delete(%q) = %v, model says %v", op.key, got, want)
		}
	case 2:
		got, ok := m.get(c, []byte(op.key))
		want, wantOK := model[op.key]
		if ok != wantOK || (ok && got != want) {
			t.Fatalf("get(%q) = %q,%v, model %q,%v", op.key, got, ok, want, wantOK)
		}
	case 3:
		if got, want := len(m.pairs(c)), len(model); got != want {
			t.Fatalf("scan saw %d keys, model has %d", got, want)
		}
	}
}

// verifyFrontiers checks the recovered durable state against the
// linearizable frontiers: the state read back must equal one of the
// admissible models exactly.
func verifyFrontiers(t *testing.T, m mcMap, c *Ctx, fronts []map[string]string) {
	t.Helper()
	got := make(map[string]string, len(mcUniverse))
	for _, key := range mcUniverse {
		if v, ok := m.get(c, []byte(key)); ok {
			got[key] = v
		}
	}
	matched := false
	for _, f := range fronts {
		if len(f) != len(got) {
			continue
		}
		eq := true
		for k, v := range f {
			if gv, ok := got[k]; !ok || gv != v {
				eq = false
				break
			}
		}
		if eq {
			matched = true
			break
		}
	}
	if !matched {
		t.Fatalf("state after crash matches no admissible frontier (of %d): %v",
			len(fronts), got)
	}
	// The scan must agree with the point reads — and stay strictly ordered
	// for the ordered map.
	pairs := m.pairs(c)
	seen := make(map[string]string, len(pairs))
	var prev string
	for i, kv := range pairs {
		if m.ordered() && i > 0 && !(prev < kv[0]) {
			t.Fatalf("post-recovery scan out of order: %q then %q", prev, kv[0])
		}
		prev = kv[0]
		if _, dup := seen[kv[0]]; dup {
			t.Fatalf("post-recovery scan visited %q twice", kv[0])
		}
		seen[kv[0]] = kv[1]
	}
	for _, key := range mcUniverse {
		got, ok := m.get(c, []byte(key))
		sv, sok := seen[key]
		if ok != sok || (ok && got != sv) {
			t.Fatalf("scan/get disagree on %q: scan %q,%v get %q,%v", key, sv, sok, got, ok)
		}
		delete(seen, key)
	}
	if len(seen) != 0 {
		t.Fatalf("scan saw keys outside the universe: %v", seen)
	}
}

// mcBackends builds one fresh device per persistence backend. Every torture
// seed runs on each: crash frontiers, recovery sweeps and scan order must
// hold identically whether the persisted image is process memory or an
// mmap'd file.
func mcBackends() map[string]func(t *testing.T) *nvram.Device {
	return map[string]func(t *testing.T) *nvram.Device{
		"mem": func(t *testing.T) *nvram.Device {
			return nvram.New(nvram.Config{Size: 16 << 20})
		},
		"file": func(t *testing.T) *nvram.Device {
			d, _, err := nvram.OpenFileDevice(
				filepath.Join(t.TempDir(), "mc.pmem"), nvram.Config{Size: 16 << 20})
			if err != nil {
				t.Fatal(err)
			}
			// Release the mapping and descriptor when the subtest ends: the
			// nightly lane runs hundreds of these in one process.
			t.Cleanup(func() { d.Close() })
			return d
		},
		// The async-syncer modes and the DAX backend must be invisible to
		// crash frontiers and recovery sweeps: the persisted image is still
		// written synchronously at each fence, the modes only change what a
		// MACHINE crash could take (which StoreHook tortures do not model).
		"file-strict": func(t *testing.T) *nvram.Device {
			d, _, err := nvram.OpenFileDevice(
				filepath.Join(t.TempDir(), "mc.pmem"), nvram.Config{Size: 16 << 20})
			if err != nil {
				t.Fatal(err)
			}
			d.Backend().(*nvram.FileBackend).SetSyncPolicy(nvram.SyncPolicy{Mode: nvram.SyncStrict})
			t.Cleanup(func() { d.Close() })
			return d
		},
		"file-buffered": func(t *testing.T) *nvram.Device {
			d, _, err := nvram.OpenFileDevice(
				filepath.Join(t.TempDir(), "mc.pmem"), nvram.Config{Size: 16 << 20})
			if err != nil {
				t.Fatal(err)
			}
			d.Backend().(*nvram.FileBackend).SetSyncPolicy(
				nvram.SyncPolicy{Mode: nvram.SyncBuffered, MaxStaleness: time.Millisecond})
			t.Cleanup(func() { d.Close() })
			return d
		},
		"dax": func(t *testing.T) *nvram.Device {
			d, _, err := nvram.OpenDAXDevice(
				filepath.Join(t.TempDir(), "mc.pmem"), nvram.Config{Size: 16 << 20})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			return d
		},
	}
}

// runModelCheckBackends fans one (shape, seed) torture out over every
// persistence backend.
func runModelCheckBackends(t *testing.T, shape mcShape, seed int64) {
	for name, mk := range mcBackends() {
		t.Run(name, func(t *testing.T) {
			runModelCheck(t, shape, seed, mk(t))
		})
	}
}

func runModelCheck(t *testing.T, shape mcShape, seed int64, dev *nvram.Device) {
	rng := rand.New(rand.NewSource(seed))
	s, err := NewStore(dev, Options{MaxThreads: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := s.MustCtx(0)
	m, err := shape.build(c)
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[string]string)
	seq := 0

	rounds := 4
	for round := 0; round < rounds; round++ {
		nops := 20 + rng.Intn(40)
		crashAt := rng.Intn(nops)
		for i := 0; i < crashAt; i++ {
			op := randOp(rng, seq)
			seq++
			applyDurable(t, m, c, op, model)
			applyModel(model, op)
		}

		// The armed op: crash after a random number of word stores.
		op := randOp(rng, seq)
		seq++
		fronts := frontiers(model, op)

		countdown := 1 + rng.Intn(80)
		dev.StoreHook = func() {
			countdown--
			if countdown == 0 {
				panic(injectedCrash{})
			}
		}
		crashed := func() (crashed bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(injectedCrash); !ok {
						panic(r)
					}
					crashed = true
				}
			}()
			applyDurable(t, m, c, op, model)
			return false
		}()
		dev.StoreHook = nil
		if !crashed {
			// The op completed before the trigger fired: it is durable, so
			// the frontier collapses to the fully applied state.
			applyModel(model, op)
			fronts = fronts[len(fronts)-1:]
		}

		// Power failure with an adversarial partial eviction, reboot,
		// recovery.
		dev.CrashPartial(rng, []float64{0, 0.5, 1}[rng.Intn(3)])
		s2, err := AttachStore(dev)
		if err != nil {
			t.Fatal(err)
		}
		m2, rec := shape.attach(s2)
		RecoverSet(s2, []Recoverer{rec}, 2)
		c2 := s2.MustCtx(0)
		verifyFrontiers(t, m2, c2, fronts)

		// Adopt the durable outcome of the in-flight op and keep going on
		// the recovered store.
		model = make(map[string]string)
		for _, kv := range m2.pairs(c2) {
			model[kv[0]] = kv[1]
		}
		s, c, m = s2, c2, m2
	}

	// The recovered structure must still serve a full write/read cycle.
	for _, key := range mcUniverse {
		if err := m.set(c, []byte(key), []byte("final:"+key)); err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range mcUniverse {
		if v, ok := m.get(c, []byte(key)); !ok || v != "final:"+key {
			t.Fatalf("final readback of %q: %q,%v", key, v, ok)
		}
	}
}

func modelCheckSeeds() int {
	if testing.Short() {
		return 3
	}
	return 10
}

func TestModelCheckMap(t *testing.T) {
	for seed := 0; seed < modelCheckSeeds(); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runModelCheckBackends(t, mcBytesShape, int64(seed)*7919+1)
		})
	}
}

func TestModelCheckOrderedMap(t *testing.T) {
	for seed := 0; seed < modelCheckSeeds(); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runModelCheckBackends(t, mcOrderedShape, int64(seed)*104729+2)
		})
	}
}

// TestModelCheckSameHash re-runs a few torture seeds with every key forced
// onto one index hash, so crash points land inside collision-chain and
// same-hash skiplist machinery.
func TestModelCheckSameHash(t *testing.T) {
	SetBytesHashForTesting(func([]byte) uint64 { return MinKey + 3 })
	defer SetBytesHashForTesting(nil)
	seeds := 2
	if testing.Short() {
		seeds = 1
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("map/seed=%d", seed), func(t *testing.T) {
			runModelCheckBackends(t, mcBytesShape, int64(seed)*31+5)
		})
		t.Run(fmt.Sprintf("ordered/seed=%d", seed), func(t *testing.T) {
			runModelCheckBackends(t, mcOrderedShape, int64(seed)*37+6)
		})
	}
}
