package memcache

import (
	"errors"

	"repro/internal/nvram"
	"repro/logfree"
)

// Recover reopens a crashed NV-Memcached instance (§6.5) through the public
// logfree API: Attach recovers the durable directory and the item map in
// one combined sweep of the active slabs, freeing memory that is "marked as
// allocated but not yet or no longer reachable from the hash table". The
// item and byte totals are recounted from one walk over entry headers; the
// reference bits start clear (recency is reset).
//
// This is the operation Figure 11 times against the volatile alternative's
// warm-up: recovering even a large instance takes milliseconds, while
// re-populating a cold volatile cache takes orders of magnitude longer.
func Recover(dev *nvram.Device, cfg Config) (*Cache, logfree.RecoveryStats, error) {
	cfg.fill()
	rt, err := logfree.Attach(dev)
	if err != nil {
		return nil, logfree.RecoveryStats{}, err
	}
	if _, ok := rt.Lookup(cacheMapName); !ok {
		return nil, logfree.RecoveryStats{}, errors.New("memcache: device holds no cache descriptor")
	}
	m, err := Adopt(rt, cfg)
	if err != nil {
		return nil, logfree.RecoveryStats{}, err
	}
	return m, rt.RecoveryStats(), nil
}

// Adopt builds a cache on an already-open runtime, taking ownership of it:
// how a cache runs on a runtime New would not open (the volatile
// memcached-clht model of Figure 11), and how Recover reopens one.
func Adopt(rt *logfree.Runtime, cfg Config) (*Cache, error) {
	cfg.fill()
	return openCache(rt, cfg)
}
