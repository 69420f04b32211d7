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
	"errors"
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

// ErrItemsSkipped is returned by RestoreSnapshot, wrapped with a count, when
// the stream held items too large for this build's entries. A build with a
// smaller entry header could store them: an item whose key and value
// together take 2009 to 2016 bytes fit a 32-byte header and do not fit the
// 40-byte one. Every other item of the stream is restored.
var ErrItemsSkipped = errors.New("memcache: snapshot items too large for this build were skipped")

// RestoreSnapshot loads a snapshot stream into this cache, which must be
// empty (restore is a bootstrap, not a merge). Items land through the same
// verbatim-aux path replication uses, so flags, expirations and the CAS
// chain come back exactly as dumped. Returns the number of items restored;
// a truncated or corrupt stream errors without silently passing for
// complete. An item too large for this build is skipped and the rest
// restored; the skips are then reported as ErrItemsSkipped.
func (m *Cache) RestoreSnapshot(r io.Reader) (items uint64, err error) {
	if n := m.stats.items.Load(); n != 0 {
		return 0, fmt.Errorf("memcache: snapshot restore requires an empty cache (%d items present)", n)
	}
	sr, err := capacity.NewSnapshotReader(r)
	if err != nil {
		return 0, err
	}
	var skipped uint64
	for {
		key, value, flags, aux, err := sr.Next()
		if err == io.EOF {
			if skipped > 0 {
				return sr.Count() - skipped, fmt.Errorf("%w: %d of %d", ErrItemsSkipped, skipped, sr.Count())
			}
			return sr.Count(), nil
		}
		if err != nil {
			return sr.Count() - skipped, err
		}
		if err := m.ApplySet(key, value, flags, aux); errors.Is(err, ErrTooLarge) {
			skipped++
		} else if err != nil {
			return sr.Count() - skipped, err
		}
	}
}
