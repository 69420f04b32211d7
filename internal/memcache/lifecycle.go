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
// may run more than once, so it must not count anything, and it runs inside
// the key's step, so it must operate on no structure.
type decideFunc func(cur item, live bool) (next item, v verdict, err error)

var errBadKey = errors.New("memcache: bad key length")

// mutate is the one mutation driver: key and size validation, the pressure
// valves, then decide and the store or remove step as one step of the key
// (logfree's ByteMap.Update: one session, one hash, one stripe lock, one
// search) — retried through grow-then-evict while the device is full — and
// last the replication wait. Valves, evictions and the wait all run outside
// the step, with no key lock held. It returns the item as stored.
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

// attempt runs c once as one step of its key: the step reads the key,
// decides and writes, and the write's trail follows inside the step, under
// the key's lock. seq is what the trail published, for the caller to wait on
// once the step has returned.
func (m *Cache) attempt(c command, decide decideFunc) (it item, seq uint64, err error) {
	var v verdict
	err = m.m.Update(c.key, func(st *logfree.KeyStep) (err error) {
		var sink ReplSink
		if !c.replica {
			sink = m.sink()
		}
		cur := item{aux: st.Aux()}
		if c.readsValue {
			cur.value, cur.flags = st.AppendValue(nil), st.Meta()
		}
		var held int64 // the logical bytes the key holds now
		if st.Found() {
			held = footprint(len(c.key), st.ValueLen())
		}
		switch it, v, err = decide(cur, st.Found() && unexpired(cur.aux)); v {
		case keep:
			return err
		case remove:
			if !st.Delete() {
				return ErrNotFound
			}
			seq = m.removed(sink, c.key, held)
			return nil
		}
		if !c.replica {
			// New items and items from pre-CAS images start the sequence at 1.
			it.aux = packAux(nextCAS(auxCAS(cur.aux)), auxExpiry(it.aux))
		}
		size, created := held, false
		if v == retouch {
			// The stream has no aux-only record, so a published retouch
			// carries the whole item.
			if sink != nil && !c.readsValue {
				cur.value, cur.flags = st.AppendValue(nil), st.Meta()
			}
			it.value, it.flags = cur.value, cur.flags
			// One atomic durable word: the new CAS and deadline land together.
			if !st.SetAux(it.aux) {
				return ErrNotFound
			}
		} else {
			if size = entrySize(c.key, it.value); size > logfree.MaxMapEntrySize {
				return ErrTooLarge
			}
			if created, err = st.Set(it.value, it.flags, it.aux); err != nil {
				return err
			}
		}
		seq = m.stored(sink, c.key, st.Slot(), it, size-held, created)
		return nil
	})
	if err != nil || v == keep || v == remove {
		return item{}, seq, err
	}
	return it, seq, nil
}

// stored is the store step's trail, run inside the step once it has written
// it (slot is the stored entry's slot, grew the logical bytes the write
// added): the replication record, the reference bit, the used-bytes total and
// the item count. Publishing inside the step makes the stream's per-key order
// exactly the store's. Returns the replication seq of the publication, 0
// without one.
func (m *Cache) stored(sink ReplSink, key []byte, slot uint64, it item, grew int64, created bool) (seq uint64) {
	if sink != nil {
		seq = sink.PublishSet(key, it.value, it.flags, it.aux)
	}
	m.markUsed(slot)
	m.usedBytes.Add(grew)
	if created {
		m.stats.items.Add(1)
	}
	return seq
}

// removed is the remove step's trail, run inside the step once the item
// (held logical bytes) left the index: the replication record and the
// totals. Returns the replication seq of the publication, 0 without one.
func (m *Cache) removed(sink ReplSink, key []byte, held int64) (seq uint64) {
	if sink != nil {
		seq = sink.PublishDelete(key)
	}
	m.usedBytes.Add(-held)
	m.stats.items.Add(-1)
	return seq
}

// removeKey runs the remove step on whatever key holds, for the removals no
// client waits on: evictions, the expiry sweep, flush_all and a follower's
// deletes. A non-nil match must accept the item's aux word, read in the
// key's step, or nothing is removed: the CAS half changes on every mutation,
// so a removal that matches the aux word it found removes exactly the version
// it found.
func (m *Cache) removeKey(key []byte, match func(aux uint64) bool, publish bool) (seq uint64, freed int64, ok bool) {
	// Update's own error (a key the map rejects, a closed runtime) means
	// nothing was removed.
	_ = m.m.Update(key, func(st *logfree.KeyStep) error {
		if !st.Found() || match != nil && !match(st.Aux()) {
			return nil
		}
		held := footprint(len(key), st.ValueLen())
		if ok = st.Delete(); ok {
			var sink ReplSink
			if publish {
				sink = m.sink()
			}
			seq, freed = m.removed(sink, key, held), held
		}
		return nil
	})
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

// clear removes every item, one crawler revolution whose pick takes every
// live item, and returns how many it removed with the last replication seq
// it published.
func (m *Cache) clear(publish bool) (removed int, last uint64) {
	removed, last = m.revolve(func(logfree.SweepEntry) bool { return true }, publish)
	m.reclaim()
	return removed, last
}
