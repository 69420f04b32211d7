package memcache

import (
	"errors"
	"strconv"
)

// The client commands. The retrievals read the index lock-free; every
// mutation is one command run by the mutation driver (lifecycle.go), so each
// method here is only its precondition and its counters. Every mutation bumps
// the item's CAS sequence; the CAS unique and the value travel in one durable
// entry publish, so they are mutually consistent across any crash.

// ErrNotStored reports a failed add/replace/append/prepend precondition.
var ErrNotStored = errors.New("memcache: precondition failed")

// ErrNotNumber reports incr/decr on a non-numeric value.
var ErrNotNumber = errors.New("memcache: value is not a number")

// Get returns the value and flags bound to key.
func (m *Cache) Get(key []byte) (value []byte, flags uint16, ok bool) {
	value, flags, _, ok = m.Gets(key)
	return value, flags, ok
}

// Gets is Get returning the item's CAS unique as well (text "gets", binary
// GET): the token a later cas must present. Items last written by a pre-CAS
// image report 0 until their first mutation.
func (m *Cache) Gets(key []byte) (value []byte, flags uint16, cas uint64, ok bool) {
	m.stats.gets.Add(1)
	v, meta, aux, found := m.m.GetItem(key)
	if !found || !unexpired(aux) {
		m.stats.misses.Add(1)
		return nil, 0, 0, false
	}
	m.markUsed(fnv1aStripe(key))
	m.stats.hits.Add(1)
	return v, meta, uint64(auxCAS(aux)), true
}

// put is set, add, replace and cas: value, flags and expiry become key's item
// when allowed passes the key's current one.
func (m *Cache) put(key, value []byte, flags uint16, expiry uint32, allowed func(cur item, live bool) error) (uint64, error) {
	it, err := m.mutate(command{key: key, room: entrySize(key, value)},
		func(cur item, live bool) (item, verdict, error) {
			if err := allowed(cur, live); err != nil {
				return item{}, keep, err
			}
			return item{value: value, flags: flags, aux: packAux(0, expiry)}, store, nil
		})
	if err == nil {
		m.stats.sets.Add(1)
	}
	return it.cas(), err
}

// matchCAS is the compare half of the cas commands: ErrNotFound when the key
// is absent (NOT_FOUND), ErrCASConflict when the token is stale (EXISTS).
func matchCAS(cur item, live bool, cas uint64) error {
	switch {
	case !live:
		return ErrNotFound
	case cur.cas() != cas:
		return ErrCASConflict
	}
	return nil
}

// countCAS files the outcome of a command that presented a CAS token.
func (m *Cache) countCAS(err error) {
	switch {
	case err == nil:
		m.stats.casHits.Add(1)
	case errors.Is(err, ErrNotFound):
		m.stats.casMisses.Add(1)
	case errors.Is(err, ErrCASConflict):
		m.stats.casBadval.Add(1)
	}
}

// Set binds key to value, durably, evicting unused items under memory pressure.
func (m *Cache) Set(key, value []byte, flags uint16, expiry uint32) error {
	_, err := m.SetCAS(key, value, flags, expiry)
	return err
}

// SetCAS is Set returning the item's new CAS unique (the wire protocols
// report it in gets/binary responses).
func (m *Cache) SetCAS(key, value []byte, flags uint16, expiry uint32) (uint64, error) {
	return m.put(key, value, flags, expiry, func(item, bool) error { return nil })
}

// Add stores key only if it is absent (memcached "add"). Returns the new
// CAS unique.
func (m *Cache) Add(key, value []byte, flags uint16, expiry uint32) (uint64, error) {
	return m.put(key, value, flags, expiry, func(_ item, live bool) error {
		if live {
			return ErrNotStored
		}
		return nil
	})
}

// Replace stores key only if it is present (memcached "replace").
func (m *Cache) Replace(key, value []byte, flags uint16, expiry uint32) (uint64, error) {
	return m.put(key, value, flags, expiry, func(_ item, live bool) error {
		if !live {
			return ErrNotStored
		}
		return nil
	})
}

// CompareAndSwap stores key only if its current CAS unique equals cas
// (memcached "cas"). ErrNotFound when the key is absent (NOT_FOUND),
// ErrCASConflict when the token is stale (EXISTS).
func (m *Cache) CompareAndSwap(key, value []byte, flags uint16, expiry uint32, cas uint64) (uint64, error) {
	newCAS, err := m.put(key, value, flags, expiry, func(cur item, live bool) error {
		return matchCAS(cur, live, cas)
	})
	m.countCAS(err)
	return newCAS, err
}

// Append concatenates data after an existing item's value (memcached
// "append"); the item's flags and expiry are preserved, per the spec. With
// cas != 0 the append additionally requires a matching CAS token (the
// binary protocol's APPEND-with-cas).
func (m *Cache) Append(key, data []byte, cas uint64) (uint64, error) {
	return m.concat(key, data, cas, false)
}

// Prepend concatenates data before an existing item's value.
func (m *Cache) Prepend(key, data []byte, cas uint64) (uint64, error) {
	return m.concat(key, data, cas, true)
}

func (m *Cache) concat(key, data []byte, cas uint64, front bool) (uint64, error) {
	it, err := m.mutate(command{key: key, room: entrySize(key, data), readsValue: true},
		func(cur item, live bool) (item, verdict, error) {
			if !live {
				return item{}, keep, ErrNotStored
			}
			if cas != 0 && cur.cas() != cas {
				return item{}, keep, ErrCASConflict
			}
			head, tail := cur.value, data
			if front {
				head, tail = data, cur.value
			}
			joined := append(append(make([]byte, 0, len(head)+len(tail)), head...), tail...)
			return item{value: joined, flags: cur.flags, aux: cur.aux}, store, nil
		})
	switch {
	case err == nil:
		m.stats.sets.Add(1)
	case errors.Is(err, ErrCASConflict):
		m.stats.casBadval.Add(1)
	}
	return it.cas(), err
}

// Incr adds delta to a decimal value, returning the new value (memcached
// "incr"; the mutation is durable via the item replacement).
func (m *Cache) Incr(key []byte, delta uint64) (uint64, error) {
	v, _, err := m.IncrDecrCAS(key, delta, 0, 0, false, false)
	return v, err
}

// Decr subtracts delta (floored at zero, as memcached specifies).
func (m *Cache) Decr(key []byte, delta uint64) (uint64, error) {
	v, _, err := m.IncrDecrCAS(key, delta, 0, 0, false, true)
	return v, err
}

// maxCounterLen is the longest value incr/decr can write: a uint64 in decimal.
const maxCounterLen = 20

// IncrDecrCAS is the full arithmetic primitive behind text incr/decr and
// the binary INCREMENT/DECREMENT ops: with create set, an absent key is
// seeded with initial (and expiry) instead of returning ErrNotFound — the
// binary protocol's initial-value semantics. Returns the new value and the
// item's new CAS unique.
func (m *Cache) IncrDecrCAS(key []byte, delta, initial uint64, expiry uint32, create, down bool) (uint64, uint64, error) {
	var n uint64
	var seeded bool
	it, err := m.mutate(command{key: key, room: entrySize(key, nil) + maxCounterLen, readsValue: true},
		func(cur item, live bool) (item, verdict, error) {
			if seeded = !live; seeded {
				if !create {
					return item{}, keep, ErrNotFound
				}
				n = initial
				return item{value: strconv.AppendUint(nil, n, 10), aux: packAux(0, expiry)}, store, nil
			}
			old, err := strconv.ParseUint(string(cur.value), 10, 64)
			if err != nil {
				return item{}, keep, ErrNotNumber
			}
			if down {
				n = old - min(delta, old)
			} else {
				n = old + delta
			}
			return item{value: strconv.AppendUint(nil, n, 10), flags: cur.flags, aux: cur.aux}, store, nil
		})
	if err != nil {
		return 0, 0, err
	}
	if seeded {
		m.stats.sets.Add(1)
	}
	return n, it.cas(), nil
}

// touchItem gives key's item a new expiry without rewriting its value; the
// item's CAS sequence is bumped with it.
func (m *Cache) touchItem(key []byte, expiry uint32) (item, error) {
	it, err := m.mutate(command{key: key, readsValue: true},
		func(_ item, live bool) (item, verdict, error) {
			if !live {
				return item{}, keep, ErrNotFound
			}
			return item{aux: packAux(0, expiry)}, retouch, nil
		})
	if err == nil {
		m.stats.touches.Add(1)
	}
	return it, err
}

// Touch updates an item's expiry without rewriting its value; the new CAS
// unique is returned for the binary TOUCH response.
func (m *Cache) Touch(key []byte, expiry uint32) (uint64, bool) {
	it, err := m.touchItem(key, expiry)
	return it.cas(), err == nil
}

// GetAndTouch returns the item and updates its expiry in one operation
// (text "gat"/"gats", binary GAT/GATQ). The returned CAS unique is the
// post-touch one.
func (m *Cache) GetAndTouch(key []byte, expiry uint32) (value []byte, flags uint16, cas uint64, ok bool) {
	m.stats.gets.Add(1)
	it, err := m.touchItem(key, expiry)
	if err != nil {
		m.stats.misses.Add(1)
		return nil, 0, 0, false
	}
	m.stats.hits.Add(1)
	return it.value, it.flags, it.cas(), true
}

// Delete removes key durably.
func (m *Cache) Delete(key []byte) bool { return m.DeleteCAS(key, 0) == nil }

// DeleteCAS deletes key only when its stored CAS unique matches cas (the
// binary protocol's DELETE-with-cas). cas 0 deletes unconditionally.
func (m *Cache) DeleteCAS(key []byte, cas uint64) error {
	m.stats.deletes.Add(1)
	_, err := m.mutate(command{key: key, room: noRoom},
		func(cur item, live bool) (item, verdict, error) {
			if cas != 0 {
				if err := matchCAS(cur, live, cas); err != nil {
					return item{}, keep, err
				}
			}
			return item{}, remove, nil
		})
	if cas != 0 {
		m.countCAS(err)
	}
	return err
}
