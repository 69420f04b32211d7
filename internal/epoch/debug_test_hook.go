package epoch

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Debug instrumentation (enabled via EnableRetireDebug in tests): tracks
// every queued retirement across all contexts of a manager and panics with
// context on a duplicate, which would otherwise surface later as an
// inscrutable double free.
// unlinkRec is a compact unlink record (no allocation on the hot path).
type unlinkRec struct {
	edge     Addr
	old, new uint64
	site     uint8 // 1 helper, 2 deleter
	used     bool
}

var (
	retireDebugMu  sync.Mutex
	retireDebugOn  atomic.Bool
	retireDebugSet map[*Manager]map[Addr]int
	retireDebugTr  map[Addr][2]unlinkRec
)

// EnableRetireDebug turns on global double-retire tracking (tests only) and
// returns what turns it off again. The tracker keeps every manager it sees
// reachable, devices and all, so a test holds it on for its own run only.
func EnableRetireDebug() (disable func()) {
	set := func(on bool) {
		retireDebugMu.Lock()
		retireDebugOn.Store(on)
		retireDebugSet = make(map[*Manager]map[Addr]int)
		retireDebugTr = make(map[Addr][2]unlinkRec)
		retireDebugMu.Unlock()
	}
	set(true)
	return func() { set(false) }
}

func debugRetire(m *Manager, tid int, a Addr) {
	if !retireDebugOn.Load() {
		return
	}
	retireDebugMu.Lock()
	defer retireDebugMu.Unlock()
	s := retireDebugSet[m]
	if s == nil {
		s = make(map[Addr]int)
		retireDebugSet[m] = s
	}
	if prev, dup := s[a]; dup {
		panic(fmt.Sprintf("epoch: DOUBLE RETIRE of %#x by tid %d (first by tid %d)\nUNLINK RECORDS: %+v\n",
			a, tid, prev, retireDebugTr[a]))
	}
	s[a] = tid
}

// DebugNoteUnlink records the edge through which a node was unlinked, kept
// as a short per-address history for double-retire forensics.
func DebugNoteUnlink(a Addr, edge Addr, oldW, newW uint64, site uint8) {
	if !retireDebugOn.Load() {
		return
	}
	retireDebugMu.Lock()
	recs := retireDebugTr[a]
	r := unlinkRec{edge: edge, old: oldW, new: newW, site: site, used: true}
	if !recs[0].used {
		recs[0] = r
	} else {
		recs[1] = r
	}
	retireDebugTr[a] = recs
	retireDebugMu.Unlock()
}

// DebugCheckAlloc panics if a freshly allocated address is still queued for
// reclamation — the allocator must never hand out a retired-pending slot.
func DebugCheckAlloc(m *Manager, a Addr) {
	if !retireDebugOn.Load() {
		return
	}
	retireDebugMu.Lock()
	defer retireDebugMu.Unlock()
	if tid, bad := retireDebugSet[m][a]; bad {
		panic(fmt.Sprintf("epoch: ALLOCATED RETIRED-PENDING slot %#x (retired by tid %d, recs %+v)",
			a, tid, retireDebugTr[a]))
	}
}

func debugFree(m *Manager, a Addr) {
	if !retireDebugOn.Load() {
		return
	}
	retireDebugMu.Lock()
	delete(retireDebugSet[m], a)
	delete(retireDebugTr, a)
	retireDebugMu.Unlock()
}
