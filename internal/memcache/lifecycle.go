package memcache

import (
	"errors"

	"repro/logfree"
)

// The item lifecycle; see the package comment.

// item is one cache item as the index holds it.
type item struct {
	value []byte
	flags uint16
	aux   uint64 // CAS unique and expiry; see packAux
}

// cas is the item's CAS unique as the wire protocols present it.
func (it item) cas() uint64 { return uint64(auxCAS(it.aux)) }

// verdict is what a command's decide step asks the driver to do with its key.
type verdict uint8

const (
	keep    verdict = iota // leave the key as it is; decide's error says why
	store                  // next becomes the key's item
	retouch                // only next's expiry lands: the aux word is rewritten, the value stays
	remove                 // the key leaves the cache
)

// command is one mutation as the driver runs it.
type command struct {
	key []byte
	// room is the most logical bytes the command can add, which the pressure
	// valves make room for before it runs; noRoom if it can only remove.
	room int64
	// readsValue makes the live read fetch cur.value and cur.flags as well.
	readsValue bool
	// replica marks a follower applying its primary's record: next.aux lands
	// verbatim (the primary already bumped the CAS) and nothing is published.
	replica bool
}

const noRoom = -1

// decideFunc holds a command's precondition and computes its outcome from
// the key's current item, under the key's stripe lock. live is false for an
// absent key and for one past its deadline. Of next.aux only the expiry half
// is read (the driver bumps the CAS) unless the command is a replica's. It
// may run more than once, so it must not count anything.
type decideFunc func(cur item, live bool) (next item, v verdict, err error)

var errBadKey = errors.New("memcache: bad key length")

// mutate is the one mutation driver: key and size validation, the pressure
// valves, then decide and the store or remove step under the key's stripe
// lock — retried through grow-then-evict while the device is full — and last
// the replication wait. Valves, evictions and the wait all run with no stripe
// lock held. It returns the item as stored.
func (m *Cache) mutate(c command, decide decideFunc) (item, error) {
	if len(c.key) == 0 || len(c.key) > MaxKeyLen {
		return item{}, errBadKey
	}
	if c.room > logfree.MaxMapEntrySize {
		return item{}, ErrTooLarge
	}
	if c.room != noRoom {
		m.ensureHeadroom(c.room)
	}
	for try := 0; ; try++ {
		it, seq, err := m.attempt(c, decide)
		if errors.Is(err, logfree.ErrFull) && try <= 64 && (m.tryGrow() || m.evictOne()) {
			m.reclaim()
			continue
		}
		m.waitRepl(seq)
		return it, err
	}
}

// attempt runs c once under its key's stripe lock. seq is what it published,
// for the caller to wait on after the unlock.
func (m *Cache) attempt(c command, decide decideFunc) (it item, seq uint64, err error) {
	h := fnv1aStripe(c.key)
	mu := m.stripe(h)
	mu.Lock()
	defer mu.Unlock()
	var cur item
	var vlen int
	var present bool
	if c.readsValue {
		cur.value, cur.flags, cur.aux, present = m.m.GetItem(c.key)
		vlen = len(cur.value)
	} else {
		cur.aux, vlen, present = m.m.GetAux(c.key)
	}
	var held int64 // the logical bytes the key holds now
	if present {
		held = footprint(len(c.key), vlen)
	}
	next, v, err := decide(cur, present && unexpired(cur.aux))
	switch v {
	case keep:
		return item{}, 0, err
	case remove:
		seq, ok := m.removeLocked(c.key, cur.aux, held, !c.replica)
		if !ok {
			err = ErrNotFound
		}
		return item{}, seq, err
	case retouch:
		next.value, next.flags = cur.value, cur.flags
	}
	if !c.replica {
		// New items and items from pre-CAS images start the sequence at 1.
		next.aux = packAux(nextCAS(auxCAS(cur.aux)), auxExpiry(next.aux))
	}
	if entrySize(c.key, next.value) > logfree.MaxMapEntrySize {
		return item{}, 0, ErrTooLarge
	}
	seq, err = m.storeLocked(c.key, h, cur.aux, held, next, v == retouch, !c.replica)
	return next, seq, err
}

// storeLocked is the one store step, run under the key's stripe lock (h is
// the key's stripe hash): it writes it over whatever the key holds (oldAux and
// held logical bytes, both 0 if nothing) and keeps the expiry index, the
// reference bit, the used-bytes total and the item count in step. auxOnly
// rewrites just the aux word of an existing entry (one atomic durable word,
// so a new CAS and a new deadline land together). Returns the replication seq
// of the publication, 0 without one.
func (m *Cache) storeLocked(key []byte, h, oldAux uint64, held int64, it item, auxOnly, publish bool) (seq uint64, err error) {
	// Index the new deadline *before* the item write: a crash in between
	// leaves only a stale index entry, which the sweep double-checks and
	// discards; the reverse order could leave an expiring item the sweep
	// never visits. Indexed unconditionally (idempotent) so items from
	// pre-index images are adopted on their first rewrite or touch even when
	// the deadline is unchanged.
	expiry := auxExpiry(it.aux)
	if expiry != 0 {
		if err := m.exp.Set(expKey(uint64(expiry), key), nil); err != nil {
			return 0, err
		}
	}
	created := false
	if auxOnly {
		if !m.m.SetAux(key, it.aux) {
			return 0, ErrNotFound
		}
	} else if created, err = m.m.SetItem(key, it.value, it.flags, it.aux); err != nil {
		return 0, err
	}
	if publish {
		// After the durable write, under the stripe lock: the stream's
		// per-key order is exactly the store's. The stream has no aux-only
		// record, so a retouch replicates the whole item.
		seq = m.publishSet(key, it.value, it.flags, it.aux)
	}
	m.unindex(key, auxExpiry(oldAux), expiry)
	m.markUsed(h)
	m.usedBytes.Add(entrySize(key, it.value) - held)
	if created {
		m.growRef(m.stats.items.Add(1))
	}
	return seq, nil
}

// unindex takes key's old deadline out of the expiry index, unless it had
// none or the item's current one is the same.
func (m *Cache) unindex(key []byte, old, current uint32) {
	if old != 0 && old != current {
		m.exp.Delete(expKey(uint64(old), key))
	}
}

// removeLocked is the one remove step, run under the key's stripe lock: the
// item (whose aux word and held logical bytes the caller read under that
// lock) leaves the index, the expiry index and the totals. ok is false when
// the key held nothing.
func (m *Cache) removeLocked(key []byte, aux uint64, held int64, publish bool) (seq uint64, ok bool) {
	if !m.m.Delete(key) {
		return 0, false
	}
	if publish {
		seq = m.publishDelete(key)
	}
	m.unindex(key, auxExpiry(aux), 0)
	m.usedBytes.Add(-held)
	m.stats.items.Add(-1)
	return seq, true
}

// removeKey runs the remove step on whatever key holds, for the removals no
// client waits on: evictions, flush_all and a follower's deletes. A non-nil
// match must accept the item's aux word, read under the stripe lock, or
// nothing is removed: the CAS half changes on every mutation, so an eviction
// that matches the aux word it found removes exactly the version it found.
func (m *Cache) removeKey(key []byte, match func(aux uint64) bool, publish bool) (seq uint64, freed int64, ok bool) {
	mu := m.stripe(fnv1aStripe(key))
	mu.Lock()
	defer mu.Unlock()
	aux, vlen, ok := m.m.GetAux(key)
	if !ok || match != nil && !match(aux) {
		return 0, 0, false
	}
	freed = footprint(len(key), vlen)
	seq, ok = m.removeLocked(key, aux, freed, publish)
	return seq, freed, ok
}

// forEachItem is the one index walk: every client item (the replication meta
// slot is skipped), verbatim. The walk is logfree's lock-free iteration — no
// key locks held, concurrent mutations may or may not be seen — and emit runs
// between its epoch sections, never inside one: a consumer that stalls (a
// slow disk under a snapshot, a follower's socket under a resync) does not
// hold reclamation back.
func (m *Cache) forEachItem(emit func(key, value []byte, flags uint16, aux uint64) error) error {
	for k, it := range m.m.Items() {
		if isReplMeta(k) {
			continue
		}
		if err := emit(k, it.Value, it.Meta, it.Aux); err != nil {
			return err
		}
	}
	return nil
}

// clear removes every item the walk finds, one remove step each, and returns
// how many it removed with the last replication seq it published.
func (m *Cache) clear(publish bool) (removed int, last uint64) {
	var keys [][]byte
	m.forEachItem(func(k, _ []byte, _ uint16, _ uint64) error {
		keys = append(keys, append([]byte(nil), k...))
		return nil
	})
	for _, k := range keys {
		seq, _, ok := m.removeKey(k, nil, publish)
		if ok {
			removed++
		}
		if seq != 0 {
			last = seq
		}
	}
	m.reclaim()
	return removed, last
}
