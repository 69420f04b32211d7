package memcache

// The item lifecycle across commands: every storing command sits behind the
// pressure valves and the one validation, and a seeded differential run of
// every command, eviction, the sweep, flush_all and the follower's applies
// keeps the index, the volatile metadata and the replication stream equal to
// a plain map.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/logfree"
)

// storingCommand is one way an item's bytes enter the cache. seed, when set,
// makes key exist first (small) for the commands that need it; store adds
// about len(val) logical bytes under key.
type storingCommand struct {
	name  string
	seed  func(m *Cache, key []byte) error
	store func(m *Cache, key, val []byte) error
}

func seedSmall(m *Cache, key []byte) error { return m.Set(key, []byte("1"), 0, 0) }

var storingCommands = []storingCommand{
	{"set", nil, func(m *Cache, k, v []byte) error { return m.Set(k, v, 0, 0) }},
	{"add", nil, func(m *Cache, k, v []byte) error { _, err := m.Add(k, v, 0, 0); return err }},
	{"replace", seedSmall, func(m *Cache, k, v []byte) error { _, err := m.Replace(k, v, 0, 0); return err }},
	{"cas", seedSmall, func(m *Cache, k, v []byte) error {
		_, _, cas, _ := m.Gets(k)
		_, err := m.CompareAndSwap(k, v, 0, 0, cas)
		return err
	}},
	{"append", seedSmall, func(m *Cache, k, v []byte) error { _, err := m.Append(k, v, 0); return err }},
	{"prepend", seedSmall, func(m *Cache, k, v []byte) error { _, err := m.Prepend(k, v, 0); return err }},
	// incr/decr store at most 20 digits; what they add on create is the key.
	{"incr-create", nil, func(m *Cache, k, _ []byte) error { _, _, err := m.IncrDecrCAS(k, 1, 7, 0, true, false); return err }},
	{"decr-create", nil, func(m *Cache, k, _ []byte) error { _, _, err := m.IncrDecrCAS(k, 1, 7, 0, true, true); return err }},
	{"incr", seedSmall, func(m *Cache, k, _ []byte) error { _, err := m.Incr(k, 1<<62); return err }},
	{"ApplySet", nil, func(m *Cache, k, v []byte) error { return m.ApplySet(k, v, 0, packAux(1, 0)) }},
}

// evictedFirst reports the errors a storing command answers when the valves
// evicted its seeded key before it ran: preconditions, not failures.
func evictedFirst(err error) bool {
	return errors.Is(err, ErrNotStored) || errors.Is(err, ErrNotFound) || errors.Is(err, ErrCASConflict)
}

// TestEveryStoringCommandRunsThePressureValves: whichever command carries
// the bytes in, the logical MaxBytes budget holds, and a full pool evicts
// instead of answering "device full".
func TestEveryStoringCommandRunsThePressureValves(t *testing.T) {
	val := bytes.Repeat([]byte("v"), 1024)
	// A long key, so that the commands that cannot carry a value (incr/decr)
	// still add a few hundred bytes per store.
	key := func(i int) []byte { return []byte(fmt.Sprintf("%0200d", i)) }
	run := func(t *testing.T, m *Cache, c storingCommand, stores int) {
		// Seeded up front, so that no seed's own valve makes the room the
		// store under test should have made.
		for i := 0; i < stores && c.seed != nil; i++ {
			if err := c.seed(m, key(i)); err != nil {
				t.Fatalf("seed %d: %v", i, err)
			}
		}
		for i := 0; i < stores; i++ {
			if err := c.store(m, key(i), val); err != nil && !evictedFirst(err) {
				t.Fatalf("store %d: %v", i, err)
			}
			if max := int64(m.cfg.MaxBytes); max > 0 && m.UsedBytes() > max {
				t.Fatalf("after store %d: UsedBytes %d > MaxBytes %d", i, m.UsedBytes(), max)
			}
		}
		if m.Stats().Evictions == 0 {
			t.Fatalf("%d stores evicted nothing (UsedBytes %d)", stores, m.UsedBytes())
		}
	}
	for _, c := range storingCommands {
		t.Run(c.name+"/MaxBytes", func(t *testing.T) {
			m, err := New(Config{MemoryBytes: 64 << 20, MaxBytes: 64 << 10, Buckets: 1024, MaxConns: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			run(t, m, c, 500)
		})
		t.Run(c.name+"/FullPool", func(t *testing.T) {
			m, err := New(Config{MemoryBytes: 4 << 20, Buckets: 1024, MaxConns: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			// incr/decr items are one 256-byte extent each (a 200-byte key):
			// 20000 of them overfill the 4 MiB pool.
			run(t, m, c, 20000)
		})
	}
}

// TestTouchRunsThePressureValve: touch stores no value, only the item's new
// aux word in place, yet it runs the pressure valves like any other command;
// on a full pool the touch of a live item still succeeds.
func TestTouchRunsThePressureValve(t *testing.T) {
	m, err := New(Config{MemoryBytes: 4 << 20, Buckets: 1024, MaxConns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const n = 40000
	key := func(i int) []byte { return []byte(fmt.Sprintf("touch-%06d", i)) }
	for i := 0; i < n; i++ {
		if err := m.Set(key(i), []byte("v"), 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	deadline := uint32(time.Now().Unix()) + 3600
	touched := 0
	for i := 0; i < n; i++ {
		if _, _, live := m.Get(key(i)); !live {
			continue // evicted
		}
		if _, ok := m.Touch(key(i), deadline+uint32(i)); !ok {
			t.Fatalf("touch of live item %d failed after %d touches", i, touched)
		}
		touched++
	}
	if touched == 0 {
		t.Fatal("nothing left to touch")
	}
}

// TestEveryCommandValidatesKeyAndSize: the one validation in the driver
// covers every command, so no path stores a key Set would reject, and an
// oversize value is ErrTooLarge whichever command computed it.
func TestEveryCommandValidatesKeyAndSize(t *testing.T) {
	m := newCache(t)
	defer m.Close()
	long := bytes.Repeat([]byte("k"), MaxKeyLen+1)
	for _, c := range storingCommands {
		if c.seed != nil {
			continue // these need the key to exist, which is the point
		}
		for _, key := range [][]byte{long, nil} {
			if err := c.store(m, key, []byte("v")); err == nil {
				t.Errorf("%s stored a %d-byte key", c.name, len(key))
			}
		}
	}
	if n := m.Stats().Items; n != 0 {
		t.Fatalf("%d items stored under invalid keys", n)
	}

	key := []byte("k")
	if err := m.Set(key, []byte("small"), 0, 0); err != nil {
		t.Fatal(err)
	}
	huge := make([]byte, logfree.MaxMapEntrySize)
	nearly := make([]byte, logfree.MaxMapEntrySize-logfree.MapEntryOverhead-len(key)-2)
	_, _, cas, _ := m.Gets(key)
	for name, store := range map[string]func() error{
		"set":      func() error { return m.Set(key, huge, 0, 0) },
		"add":      func() error { _, err := m.Add([]byte("fresh"), huge, 0, 0); return err },
		"replace":  func() error { _, err := m.Replace(key, huge, 0, 0); return err },
		"cas":      func() error { _, err := m.CompareAndSwap(key, huge, 0, 0, cas); return err },
		"append":   func() error { _, err := m.Append(key, nearly, 0); return err }, // 5 + nearly: 3 over
		"prepend":  func() error { _, err := m.Prepend(key, nearly, 0); return err },
		"ApplySet": func() error { return m.ApplySet(key, huge, 0, 0) },
	} {
		if err := store(); !errors.Is(err, ErrTooLarge) {
			t.Errorf("%s of an oversize value: %v, want ErrTooLarge", name, err)
		}
	}
	if v, _, _ := m.Get(key); string(v) != "small" {
		t.Fatalf("rejected stores changed the item: %q", v)
	}
}

// recordingSink keeps the replication stream as a list of records.
type recordingSink struct{ log []replRecord }

type replRecord struct {
	del        bool
	key, value []byte
	flags      uint16
	aux        uint64
}

func (s *recordingSink) PublishSet(key, value []byte, flags uint16, aux uint64) uint64 {
	s.log = append(s.log, replRecord{key: bytes.Clone(key), value: bytes.Clone(value), flags: flags, aux: aux})
	return uint64(len(s.log))
}

func (s *recordingSink) PublishDelete(key []byte) uint64 {
	s.log = append(s.log, replRecord{del: true, key: bytes.Clone(key)})
	return uint64(len(s.log))
}

func (s *recordingSink) WaitAcked(uint64) {}

// modelItem is an item as a plain map holds it. Items past their deadline
// stay in the model until something removes them, as they stay in the index:
// they read as absent, but the CAS sequence continues from them.
type modelItem struct {
	value  string
	flags  uint16
	cas    uint32
	expiry uint32
}

func TestLifecycleInvariants(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { lifecycleRun(t, seed, 1500) })
	}
}

func lifecycleRun(t *testing.T, seed int64, steps int) {
	cfg := Config{MemoryBytes: 64 << 20, Buckets: 1024, MaxConns: 4}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	follower := newCache(t)
	defer follower.Close()
	sink := &recordingSink{}
	m.SetReplication(sink, nil)
	replayed := 0

	rng := rand.New(rand.NewSource(seed))
	model := map[string]modelItem{}
	now := uint32(time.Now().Unix())
	live := func(it modelItem, ok bool) bool { return ok && (it.expiry == 0 || it.expiry > now) }
	// Deadlines are never, an hour ahead (a few distinct ones, so rewrites
	// change them) or already past.
	pickExpiry := func() uint32 {
		switch rng.Intn(5) {
		case 0:
			return now - 10 - uint32(rng.Intn(3))
		case 1, 2:
			return now + 3600 + uint32(rng.Intn(3))
		}
		return 0
	}
	pickValue := func() []byte {
		if rng.Intn(2) == 0 {
			return []byte(strconv.Itoa(rng.Intn(1000)))
		}
		return bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, 1+rng.Intn(40))
	}
	put := func(key string, old modelItem, value []byte, flags uint16, expiry uint32) {
		model[key] = modelItem{string(value), flags, nextCAS(old.cas), expiry}
	}

	check := func(step int, what string) {
		t.Helper()
		want := make(map[string][3]string, len(model))
		var used int64
		for k, it := range model {
			want[k] = [3]string{it.value, fmt.Sprint(it.flags), fmt.Sprint(packAux(it.cas, it.expiry))}
			used += entrySize([]byte(k), []byte(it.value))
		}
		if got := dumpItems(t, m); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s): cache holds %v, model %v", step, what, got, want)
		}
		walked := 0
		for cursor := uint64(0); ; {
			cursor = m.m.Walk(cursor, func(e logfree.Entry) bool {
				if !isReplMeta(e.Key) {
					walked++
				}
				return true
			})
			if cursor == 0 {
				break
			}
		}
		if items := m.Stats().Items; items != int64(len(model)) || walked != len(model) {
			t.Fatalf("step %d (%s): Items %d, a full walk visits %d keys, model %d", step, what, items, walked, len(model))
		}
		if got := m.UsedBytes(); got != used {
			t.Fatalf("step %d (%s): UsedBytes %d, sum of entry sizes %d", step, what, got, used)
		}
		for ; replayed < len(sink.log); replayed++ {
			r := sink.log[replayed]
			if r.del {
				err = follower.ApplyDelete(r.key)
			} else {
				err = follower.ApplySet(r.key, r.value, r.flags, r.aux)
			}
			if err != nil {
				t.Fatalf("step %d (%s): replaying record %d: %v", step, what, replayed, err)
			}
		}
		if got := dumpItems(t, follower); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s): replayed stream holds %v, primary %v", step, what, got, want)
		}
	}

	for step := 0; step < steps; step++ {
		if step == steps/2 {
			// Everything completed so far survives a crash; only recency resets.
			m.Flush()
			dev := m.Device()
			dev.Crash()
			if m, _, err = Recover(dev, cfg); err != nil {
				t.Fatal(err)
			}
			m.SetReplication(sink, nil)
			check(step, "recover")
		}
		name := fmt.Sprintf("key-%02d", rng.Intn(24))
		key := []byte(name)
		cur, present := model[name]
		alive := live(cur, present)
		value, flags, expiry := pickValue(), uint16(rng.Intn(1<<16)), pickExpiry()
		// A CAS token: usually the item's, sometimes stale.
		token := uint64(cur.cas)
		if rng.Intn(4) == 0 {
			token++
		}
		var what string
		switch op := rng.Intn(20); op {
		case 0, 1:
			what = "get"
			v, f, ok := m.Get(key)
			if ok != alive || ok && (string(v) != cur.value || f != cur.flags) {
				t.Fatalf("step %d: Get(%s) = %q,%d,%v; model %+v live=%v", step, name, v, f, ok, cur, alive)
			}
		case 2:
			what = "gets"
			v, f, cas, ok := m.Gets(key)
			if ok != alive || ok && (string(v) != cur.value || f != cur.flags || cas != uint64(cur.cas)) {
				t.Fatalf("step %d: Gets(%s) = %q,%d,%d,%v; model %+v live=%v", step, name, v, f, cas, ok, cur, alive)
			}
		case 3, 4:
			what = "set"
			cas, err := m.SetCAS(key, value, flags, expiry)
			put(name, cur, value, flags, expiry)
			if err != nil || cas != uint64(model[name].cas) {
				t.Fatalf("step %d: SetCAS(%s) = %d, %v; model %+v", step, name, cas, err, model[name])
			}
		case 5:
			what = "add"
			_, err := m.Add(key, value, flags, expiry)
			if !alive {
				put(name, cur, value, flags, expiry)
			}
			if (err == nil) == alive || err != nil && !errors.Is(err, ErrNotStored) {
				t.Fatalf("step %d: Add(%s) on live=%v: %v", step, name, alive, err)
			}
		case 6:
			what = "replace"
			_, err := m.Replace(key, value, flags, expiry)
			if alive {
				put(name, cur, value, flags, expiry)
			}
			if (err == nil) != alive || err != nil && !errors.Is(err, ErrNotStored) {
				t.Fatalf("step %d: Replace(%s) on live=%v: %v", step, name, alive, err)
			}
		case 7:
			what = "cas"
			_, err := m.CompareAndSwap(key, value, flags, expiry, token)
			want := matchCAS(item{aux: packAux(cur.cas, 0)}, alive, token)
			if want == nil {
				put(name, cur, value, flags, expiry)
			}
			if !errors.Is(err, want) {
				t.Fatalf("step %d: CompareAndSwap(%s, %d) = %v, want %v", step, name, token, err, want)
			}
		case 8, 9:
			what = "append/prepend"
			if rng.Intn(2) == 0 {
				token = 0
			}
			front := op == 9
			var err error
			if front {
				_, err = m.Prepend(key, value, token)
			} else {
				_, err = m.Append(key, value, token)
			}
			var want error
			switch {
			case !alive:
				want = ErrNotStored
			case token != 0 && token != uint64(cur.cas):
				want = ErrCASConflict
			case front:
				put(name, cur, []byte(string(value)+cur.value), cur.flags, cur.expiry)
			default:
				put(name, cur, []byte(cur.value+string(value)), cur.flags, cur.expiry)
			}
			if !errors.Is(err, want) {
				t.Fatalf("step %d: concat(%s, front=%v, %d) = %v, want %v", step, name, front, token, err, want)
			}
		case 10, 11, 12:
			what = "incr/decr"
			delta, initial := uint64(rng.Intn(500)), uint64(rng.Intn(100))
			create, down := op == 12, rng.Intn(2) == 0
			var got uint64
			var err error
			switch {
			case create:
				got, _, err = m.IncrDecrCAS(key, delta, initial, expiry, true, down)
			case down:
				got, err = m.Decr(key, delta)
			default:
				got, err = m.Incr(key, delta)
			}
			old, numErr := strconv.ParseUint(cur.value, 10, 64)
			var want error
			n := initial
			switch {
			case !alive && !create:
				want = ErrNotFound
			case !alive:
				put(name, cur, []byte(strconv.FormatUint(n, 10)), 0, expiry)
			case numErr != nil:
				want = ErrNotNumber
			default:
				if n = old + delta; down {
					n = old - min(delta, old)
				}
				put(name, cur, []byte(strconv.FormatUint(n, 10)), cur.flags, cur.expiry)
			}
			if !errors.Is(err, want) || err == nil && got != n {
				t.Fatalf("step %d: incr/decr(%s, create=%v, down=%v) = %d, %v; want %d, %v", step, name, create, down, got, err, n, want)
			}
		case 13:
			what = "touch"
			cas, ok := m.Touch(key, expiry)
			if alive {
				put(name, cur, []byte(cur.value), cur.flags, expiry)
			}
			if ok != alive || ok && cas != uint64(model[name].cas) {
				t.Fatalf("step %d: Touch(%s) = %d, %v on live=%v", step, name, cas, ok, alive)
			}
		case 14:
			what = "gat"
			v, f, cas, ok := m.GetAndTouch(key, expiry)
			if alive {
				put(name, cur, []byte(cur.value), cur.flags, expiry)
			}
			if ok != alive || ok && (string(v) != cur.value || f != cur.flags || cas != uint64(model[name].cas)) {
				t.Fatalf("step %d: GetAndTouch(%s) = %q,%d,%d,%v on live=%v", step, name, v, f, cas, ok, alive)
			}
		case 15:
			what = "delete"
			// Delete removes whatever the key holds, past its deadline or not.
			if ok := m.Delete(key); ok != present {
				t.Fatalf("step %d: Delete(%s) = %v, present=%v", step, name, ok, present)
			}
			delete(model, name)
		case 16:
			what = "delete-cas"
			if token == 0 {
				token = 1
			}
			err := m.DeleteCAS(key, token)
			want := matchCAS(item{aux: packAux(cur.cas, 0)}, alive, token)
			if want == nil {
				delete(model, name)
			}
			if !errors.Is(err, want) {
				t.Fatalf("step %d: DeleteCAS(%s, %d) = %v, want %v", step, name, token, err, want)
			}
		case 17:
			what = "apply"
			// A follower's applies publish nothing; mirror them to the replay
			// by hand so the second cache stays comparable.
			if rng.Intn(2) == 0 {
				aux := packAux(uint32(1+rng.Intn(1000)), expiry)
				if err := m.ApplySet(key, value, flags, aux); err != nil {
					t.Fatal(err)
				}
				sink.PublishSet(key, value, flags, aux)
				model[name] = modelItem{string(value), flags, auxCAS(aux), expiry}
			} else {
				if err := m.ApplyDelete(key); err != nil {
					t.Fatal(err)
				}
				sink.PublishDelete(key)
				delete(model, name)
			}
		case 18:
			switch rng.Intn(8) {
			case 0:
				what = "flush_all"
				if n := m.FlushAll(); n != len(model) {
					t.Fatalf("step %d: FlushAll removed %d of %d", step, n, len(model))
				}
				clear(model)
			default:
				what = "sweep"
				due := 0
				for k, it := range model {
					if it.expiry != 0 && it.expiry <= now {
						delete(model, k)
						due++
					}
				}
				if n := m.SweepExpired(int64(now)); n != due {
					t.Fatalf("step %d: SweepExpired removed %d, %d were due", step, n, due)
				}
			}
		case 19:
			what = "evict"
			if ok := m.evictOne(); ok != (len(model) > 0) {
				t.Fatalf("step %d: evictOne = %v with %d items", step, ok, len(model))
			}
			// Which key went is the hand's choice: exactly one, and the model
			// follows.
			left, before := dumpItems(t, m), len(model)
			for k := range model {
				if _, ok := left[k]; !ok {
					delete(model, k)
				}
			}
			if before > 0 && len(model) != before-1 {
				t.Fatalf("step %d: evictOne took %d items", step, before-len(model))
			}
		}
		check(step, what)
	}
	m.Close()
}
