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
// the key's current item, inside the key's step. live is false for an
// absent key and for one past its deadline. Of next.aux only the expiry half
// is read (the driver bumps the CAS) unless the command is a replica's. It
// may run more than once, so it must not count anything.
type decideFunc func(cur item, live bool) (next item, v verdict, err error)

var errBadKey = errors.New("memcache: bad key length")

// mutate is the one mutation driver: key and size validation, the pressure
// valves, then decide and the store or remove step under the key's lock
// (logfree's KeyLock: one hash, one stripe lock, and one step — one session,
// one search — unless a new deadline must be indexed first) — retried
// through grow-then-evict while the device is full — and last the
// replication wait. Valves, evictions and the wait all run with no key lock
// held. It returns the item as stored.
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

// errIndexFirst ends a store's first step unwritten: its new deadline goes
// into the expiry index before a second step writes the item.
var errIndexFirst = errors.New("memcache: index the deadline first")

// attempt runs c once under its key's lock. Its first step reads the key and
// decides, and writes unless the write is a store with a deadline: that
// deadline goes into the expiry index first, outside any step, and a second
// step writes (the lock keeps what the first one read). The replication
// record, the old deadline's removal and the totals follow, still under the
// lock. seq is what it published, for the caller to wait on once the lock is
// released.
func (m *Cache) attempt(c command, decide decideFunc) (it item, seq uint64, err error) {
	k, err := m.m.Lock(c.key)
	if err != nil {
		return item{}, 0, err
	}
	defer k.Unlock()
	var (
		cur     item
		held    int64 // the logical bytes the key holds now
		v       verdict
		created bool
		indexed uint32 // the deadline this attempt put in the expiry index
	)
	write := func(st *logfree.KeyStep) (err error) {
		switch v {
		case remove:
			if !st.Delete() {
				return ErrNotFound
			}
		case retouch:
			// One atomic durable word: the new CAS and deadline land together.
			if !st.SetAux(it.aux) {
				return ErrNotFound
			}
		default:
			created, err = st.Set(it.value, it.flags, it.aux)
		}
		return err
	}
	err = k.Update(func(st *logfree.KeyStep) error {
		cur = item{aux: st.Aux()}
		if c.readsValue {
			cur.value, cur.flags = st.AppendValue(nil), st.Meta()
		}
		if st.Found() {
			held = footprint(len(c.key), st.ValueLen())
		}
		var err error
		it, v, err = decide(cur, st.Found() && unexpired(cur.aux))
		switch v {
		case keep:
			return err
		case remove:
			return write(st)
		case retouch:
			it.value, it.flags = cur.value, cur.flags
		}
		if !c.replica {
			// New items and items from pre-CAS images start the sequence at 1.
			it.aux = packAux(nextCAS(auxCAS(cur.aux)), auxExpiry(it.aux))
		}
		if entrySize(c.key, it.value) > logfree.MaxMapEntrySize {
			return ErrTooLarge
		}
		if auxExpiry(it.aux) != 0 {
			return errIndexFirst
		}
		return write(st)
	})
	if errors.Is(err, errIndexFirst) {
		// Index the new deadline *before* the item write: a crash in between
		// leaves only a stale index entry, which the sweep double-checks and
		// discards; the reverse order could leave an expiring item the sweep
		// never visits. Indexed unconditionally (idempotent) so items from
		// pre-index images are adopted on their first rewrite or touch even
		// when the deadline is unchanged.
		indexed = auxExpiry(it.aux)
		if err = m.exp.Set(expKey(uint64(indexed), c.key), nil); err == nil {
			err = k.Update(write)
		}
	}
	switch {
	case err != nil || v == keep:
		// Nothing was written, so a deadline indexed for the write is stale
		// unless the item has it already.
		m.unindex(c.key, indexed, auxExpiry(cur.aux))
		return item{}, 0, err
	case v == remove:
		return item{}, m.removed(c.key, cur.aux, held, !c.replica), nil
	}
	return it, m.stored(c.key, k.Hash(), cur.aux, held, it, created, !c.replica), nil
}

// stored is the store step's trail, run under the key's lock (hash is the
// key's index hash) once it is written over whatever the key held (oldAux and
// held logical bytes, both 0 if nothing): the replication record, the old
// deadline out of the expiry index, the reference bit, the used-bytes total
// and the item count. Returns the replication seq of the publication, 0
// without one.
func (m *Cache) stored(key []byte, hash, oldAux uint64, held int64, it item, created, publish bool) (seq uint64) {
	if publish {
		// After the durable write, under the key's lock: the stream's per-key
		// order is exactly the store's. The stream has no aux-only record, so
		// a retouch replicates the whole item.
		seq = m.publishSet(key, it.value, it.flags, it.aux)
	}
	m.unindex(key, auxExpiry(oldAux), auxExpiry(it.aux))
	m.markUsed(hash)
	m.usedBytes.Add(entrySize(key, it.value) - held)
	if created {
		m.growRef(m.stats.items.Add(1))
	}
	return seq
}

// unindex takes key's old deadline out of the expiry index, unless it had
// none or the item's current one is the same.
func (m *Cache) unindex(key []byte, old, current uint32) {
	if old != 0 && old != current {
		m.exp.Delete(expKey(uint64(old), key))
	}
}

// removed is the remove step's trail, run under the key's lock once the item
// (whose aux word and held logical bytes its step read) left the index: the
// replication record, its deadline out of the expiry index and the totals.
// Returns the replication seq of the publication, 0 without one.
func (m *Cache) removed(key []byte, aux uint64, held int64, publish bool) (seq uint64) {
	if publish {
		seq = m.publishDelete(key)
	}
	m.unindex(key, auxExpiry(aux), 0)
	m.usedBytes.Add(-held)
	m.stats.items.Add(-1)
	return seq
}

// removeKey runs the remove step on whatever key holds, for the removals no
// client waits on: evictions, flush_all and a follower's deletes. A non-nil
// match must accept the item's aux word, read in the key's step, or nothing
// is removed: the CAS half changes on every mutation, so an eviction that
// matches the aux word it found removes exactly the version it found.
func (m *Cache) removeKey(key []byte, match func(aux uint64) bool, publish bool) (seq uint64, freed int64, ok bool) {
	// Lock's own error (a key the map rejects) means nothing was removed.
	k, err := m.m.Lock(key)
	if err != nil {
		return 0, 0, false
	}
	defer k.Unlock()
	return m.removeLocked(k, key, match, publish)
}

// removeLocked is removeKey with key's lock k already held.
func (m *Cache) removeLocked(k logfree.KeyLock, key []byte, match func(aux uint64) bool, publish bool) (seq uint64, freed int64, ok bool) {
	var aux uint64
	// Update's own error (a closed runtime) means nothing was removed.
	_ = k.Update(func(st *logfree.KeyStep) error {
		if aux = st.Aux(); st.Found() && (match == nil || match(aux)) {
			freed = footprint(len(key), st.ValueLen())
			ok = st.Delete()
		}
		return nil
	})
	if !ok {
		return 0, 0, false
	}
	return m.removed(key, aux, freed, publish), freed, true
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
