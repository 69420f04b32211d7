package memcache

// Live point-in-time snapshots (PR 9): an RDB-style dump of the cache taken
// WHILE serving traffic, in internal/capacity's versioned framed format.
// The walk is logfree's epoch-protected lock-free iteration — no
// stop-the-world, no key locks held — so the image is a weakly consistent
// cut: every item that existed before Snapshot began and was not mutated
// during it appears exactly once, verbatim (value, flags, and the raw aux
// word carrying CAS unique + expiry). Items travel byte-faithfully, so a
// restore reproduces the CAS chain, not just the values.

import (
	"fmt"
	"io"

	"repro/internal/capacity"
)

// Snapshot streams a point-in-time image of the cache onto w and returns
// the number of items written. Safe to run concurrently with serving
// traffic; see the package comment above for the consistency contract.
// Snapshot does not close w.
func (m *Cache) Snapshot(w io.Writer) (items uint64, err error) {
	sw, err := capacity.NewSnapshotWriter(w)
	if err != nil {
		return 0, err
	}
	if err := m.forEachItem(sw.Item); err != nil {
		return sw.Count(), err
	}
	return sw.Count(), sw.Close()
}

// RestoreSnapshot loads a snapshot stream into this cache, which must be
// empty (restore is a bootstrap, not a merge). Items land through the same
// verbatim-aux path replication uses, so flags, expirations and the CAS
// chain come back exactly as dumped. Returns the number of items restored;
// a truncated or corrupt stream errors without silently passing for
// complete.
func (m *Cache) RestoreSnapshot(r io.Reader) (items uint64, err error) {
	if n := m.stats.items.Load(); n != 0 {
		return 0, fmt.Errorf("memcache: snapshot restore requires an empty cache (%d items present)", n)
	}
	sr, err := capacity.NewSnapshotReader(r)
	if err != nil {
		return 0, err
	}
	for {
		key, value, flags, aux, err := sr.Next()
		if err == io.EOF {
			return sr.Count(), nil
		}
		if err != nil {
			return sr.Count(), err
		}
		if err := m.ApplySet(key, value, flags, aux); err != nil {
			return sr.Count(), err
		}
	}
}
