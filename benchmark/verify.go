package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/memcache"
	"repro/logfree"
)

// verification is the outcome of the checks made once the load has stopped.
type verification struct {
	checked uint64
	failed  uint64
	first   string // the first violation, for the log
}

func (v *verification) fail(format string, args ...any) {
	v.failed++
	if v.first == "" {
		v.first = fmt.Sprintf(format, args...)
	}
}

// recovery is one Crash() -> memcache.Recover cycle.
type recovery struct {
	total  time.Duration // memcache.Recover, wall
	attach time.Duration // the logfree recovery sweep inside it
	stats  logfree.RecoveryStats
}

// crashAndRecover power-fails the cache's device and reopens it. The old
// Cache value is abandoned (closing it would drain into the crashed
// device); the recovered one takes its place in the sut.
func (s *sut) crashAndRecover() (recovery, error) {
	dev := s.cache.Device()
	dev.Crash()
	t0 := time.Now()
	rc, rs, err := memcache.Recover(dev, s.cfg)
	if err != nil {
		return recovery{}, fmt.Errorf("memcache.Recover: %w", err)
	}
	s.cache = rc
	return recovery{total: time.Since(t0), attach: rs.Duration, stats: rs}, nil
}

// verify runs with every client stopped. On wire_repl it first requires the
// follower to hold exactly what the primary holds. Then, on every workload:
// make deferred durability work durable (link cache on leaves the last
// links volatile by design), crash the device, recover, and read every key
// back against its owner's last acknowledged operation.
func (s *sut) verify() (verification, recovery, error) {
	var v verification
	e := s.e
	if s.fol != nil {
		if err := s.drained(); err != nil {
			v.fail("%v", err)
		}
		for i := 0; i < e.keys; i++ {
			key := e.slab.key(uint32(i))
			pv, _, pok := s.cache.Get(key)
			fv, _, fok := s.folCache.Get(key)
			v.checked++
			if pok != fok || !bytes.Equal(pv, fv) {
				v.fail("key %d: follower differs from primary (present %v/%v)", i, fok, pok)
			}
		}
		if p, f := s.cache.Stats().Items, s.folCache.Stats().Items; p != f {
			v.fail("follower holds %d items, primary %d", f, p)
		}
	}
	// Nothing may publish into a closed primary after this point.
	if s.srv != nil {
		s.srv.Close()
		s.srv = nil
	}
	if s.fol != nil {
		s.fol.Close()
		s.fol = nil
		s.cache.SetReplication(nil, nil)
		s.prim.Close()
		s.prim = nil
	}

	if e.w.linkCache {
		s.cache.Flush()
	}
	items := s.cache.Stats().Items
	rec, err := s.crashAndRecover()
	if err != nil {
		return v, rec, err
	}
	for i := 0; i < e.keys; i++ {
		val, _, ok := s.cache.Get(e.slab.key(uint32(i)))
		v.checked++
		if verdict := e.or.judge(val, ok, uint32(i), e.state[i], e.w.capped); verdict != valueOK {
			v.fail("key %d after recovery: %s", i, verdictNames[verdict])
		}
	}
	if got := s.cache.Stats().Items; got != items {
		v.fail("recovered %d items, %d before the crash", got, items)
	}
	return v, rec, nil
}
