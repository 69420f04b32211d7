package core

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/epoch"
)

// A linearizability checker for set histories. Operations on different keys
// commute under set semantics, so the full history projects onto per-key
// sub-histories that are checked independently: for each key there must
// exist a total order of its operations that (a) respects real time — if
// op A's response precedes op B's invocation, A orders before B — and (b)
// is legal for a set register (Insert returns true iff absent, Delete
// returns (value, true) iff present, Search returns the current binding).
//
// The search is Wing & Gong style DFS, but exploits that ops are mostly
// sequential per key: candidates at each step are limited to the pending
// operations invoked before the earliest pending response, memoized on
// (set of operations taken, abstract state).

type histEvent struct {
	op       uint8 // 0 insert, 1 delete, 2 search
	val      uint64
	ok       bool
	retV     uint64
	invoke   uint64
	response uint64
}

const (
	opInsert = 0
	opDelete = 1
	opSearch = 2
)

// linearizable reports whether the per-key history can be linearized.
func linearizable(events []histEvent) bool {
	sort.Slice(events, func(i, j int) bool { return events[i].invoke < events[j].invoke })
	n := len(events)
	taken := make([]bool, n)
	type state struct {
		present bool
		value   uint64
	}
	// The memo is keyed on the whole taken set (as a bitset's bytes) plus
	// the state: a DFS node's future depends on every op still pending,
	// however far past the oldest one it lies.
	type memoKey struct {
		taken string
		state state
	}
	memo := make(map[memoKey]bool)
	takenBits := make([]byte, (n+7)/8)

	var dfs func(cur state, done int) bool
	dfs = func(cur state, done int) bool {
		if done == n {
			return true
		}
		base := 0
		for base < n && taken[base] {
			base++
		}
		mk := memoKey{string(takenBits), cur}
		if seen, ok := memo[mk]; ok {
			return seen
		}
		// minResp over untaken ops bounds which ops may linearize next.
		minResp := ^uint64(0)
		for i := base; i < n; i++ {
			if !taken[i] && events[i].response < minResp {
				minResp = events[i].response
			}
		}
		result := false
		for i := base; i < n && !result; i++ {
			if taken[i] || events[i].invoke > minResp {
				continue // i cannot precede the op that responded first
			}
			e := &events[i]
			var next state
			legal := false
			switch e.op {
			case opInsert:
				if e.ok && !cur.present {
					legal, next = true, state{true, e.val}
				} else if !e.ok && cur.present {
					legal, next = true, cur
				}
			case opDelete:
				if e.ok && cur.present && e.retV == cur.value {
					legal, next = true, state{}
				} else if !e.ok && !cur.present {
					legal, next = true, cur
				}
			case opSearch:
				if e.ok && cur.present && e.retV == cur.value {
					legal, next = true, cur
				} else if !e.ok && !cur.present {
					legal, next = true, cur
				}
			}
			if !legal {
				continue
			}
			taken[i] = true
			takenBits[i/8] ^= 1 << (i % 8)
			result = dfs(next, done+1)
			taken[i] = false
			takenBits[i/8] ^= 1 << (i % 8)
		}
		memo[mk] = result
		return result
	}
	return dfs(state{}, 0)
}

// TestLinearizabilityCheckerSelfTest validates the checker on hand-built
// histories before trusting it on real ones.
func TestLinearizabilityCheckerSelfTest(t *testing.T) {
	// Sequential legal history.
	ok := linearizable([]histEvent{
		{op: opInsert, val: 5, ok: true, invoke: 1, response: 2},
		{op: opSearch, retV: 5, ok: true, invoke: 3, response: 4},
		{op: opDelete, retV: 5, ok: true, invoke: 5, response: 6},
		{op: opSearch, ok: false, invoke: 7, response: 8},
	})
	if !ok {
		t.Fatal("legal sequential history rejected")
	}
	// Illegal: search sees a value never inserted.
	ok = linearizable([]histEvent{
		{op: opInsert, val: 5, ok: true, invoke: 1, response: 2},
		{op: opSearch, retV: 6, ok: true, invoke: 3, response: 4},
	})
	if ok {
		t.Fatal("illegal history accepted (phantom value)")
	}
	// Illegal: delete succeeded before any insert completed... but they
	// overlap, so it IS linearizable (delete after insert).
	ok = linearizable([]histEvent{
		{op: opInsert, val: 5, ok: true, invoke: 1, response: 10},
		{op: opDelete, retV: 5, ok: true, invoke: 2, response: 9},
	})
	if !ok {
		t.Fatal("overlapping insert/delete wrongly rejected")
	}
	// Illegal: delete strictly precedes the only insert in real time.
	ok = linearizable([]histEvent{
		{op: opDelete, retV: 5, ok: true, invoke: 1, response: 2},
		{op: opInsert, val: 5, ok: true, invoke: 3, response: 4},
	})
	if ok {
		t.Fatal("real-time violation accepted")
	}
	// Illegal: two successful inserts with no delete between.
	ok = linearizable([]histEvent{
		{op: opInsert, val: 1, ok: true, invoke: 1, response: 2},
		{op: opInsert, val: 2, ok: true, invoke: 3, response: 4},
	})
	if ok {
		t.Fatal("double successful insert accepted")
	}
	// Legal, but only if an op more than 64 positions past the oldest
	// pending one is taken first: a long delete spans 63 searches and two
	// overlapping inserts, x and then y. Taking x first is a dead end (y
	// must follow it and precede r, which needs the key absent); taking y
	// first linearizes as y, delete, r, x, r2. Both choices reach the same
	// state with the same 63 searches taken and differ only in an op past
	// that window, so a memo blind to it replays x's dead end for y.
	long := []histEvent{{op: opDelete, retV: 5, ok: true, invoke: 0, response: 1000}}
	for k := uint64(1); k <= 63; k++ {
		long = append(long, histEvent{op: opSearch, invoke: 2 * k, response: 2*k + 1})
	}
	long = append(long,
		histEvent{op: opInsert, val: 5, ok: true, invoke: 200, response: 400},  // x
		histEvent{op: opInsert, val: 5, ok: true, invoke: 201, response: 202},  // y
		histEvent{op: opSearch, invoke: 203, response: 204},                    // r
		histEvent{op: opSearch, retV: 5, ok: true, invoke: 401, response: 402}, // r2
	)
	if !linearizable(long) {
		t.Fatal("history needing an op past the 64-op window rejected")
	}
}

// runLinearizabilityStress hammers one structure with fully concurrent
// same-key operations while recording the complete timed history, then
// checks every per-key projection.
func runLinearizabilityStress(t *testing.T, s *Store, st set, workers, opsPer, keySpace int) {
	t.Helper()
	// Same-key contention is where a double retire would come from, so the
	// tracker is on for the run, as in runContendedStress. (It is also the
	// condition the LC flake of ROADMAP 1e has been counted under.)
	defer epoch.EnableRetireDebug()()
	var clock atomic.Uint64
	type timed struct {
		key uint64
		ev  histEvent
	}
	hists := make([][]timed, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := s.MustCtx(w)
			rng := rand.New(rand.NewSource(int64(w)*17 + 3))
			local := make([]timed, 0, opsPer)
			for i := 0; i < opsPer; i++ {
				k := uint64(rng.Intn(keySpace)) + 1
				v := uint64(w)<<32 | uint64(i)
				e := histEvent{invoke: clock.Add(1)}
				switch rng.Intn(4) {
				case 0, 1:
					e.op = opInsert
					e.val = v
					e.ok = st.Insert(c, k, v)
				case 2:
					e.op = opDelete
					e.retV, e.ok = st.Delete(c, k)
				default:
					e.op = opSearch
					e.retV, e.ok = st.Search(c, k)
				}
				e.response = clock.Add(1)
				local = append(local, timed{k, e})
			}
			hists[w] = local
		}(w)
	}
	wg.Wait()

	perKey := make(map[uint64][]histEvent)
	for _, h := range hists {
		for _, te := range h {
			perKey[te.key] = append(perKey[te.key], te.ev)
		}
	}
	for k, evs := range perKey {
		if !linearizable(evs) {
			t.Fatalf("history for key %d is not linearizable (%d ops)", k, len(evs))
		}
	}
}

// TestLinearizabilityAllStructures verifies fully-concurrent same-key
// histories for every durable structure, in both persistence modes.
func TestLinearizabilityAllStructures(t *testing.T) {
	for _, lc := range []bool{false, true} {
		name := map[bool]string{false: "LP", true: "LC"}[lc]
		t.Run(name, func(t *testing.T) {
			s := newTestStore(t, Options{LinkCache: lc})
			c := s.MustCtx(0)

			l, _ := NewList(c)
			runLinearizabilityStress(t, s, l, 4, 600, 8)

			h, _ := NewHashTable(c, 8)
			runLinearizabilityStress(t, s, h, 4, 600, 8)

			sl, _ := NewSkipList(c)
			runLinearizabilityStress(t, s, sl, 4, 600, 8)

			bt, _ := NewBST(c)
			runLinearizabilityStress(t, s, bt, 4, 600, 8)
		})
	}
}
