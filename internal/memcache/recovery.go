package memcache

import (
	"errors"
	"time"

	"repro/internal/nvram"
	"repro/logfree"
	"repro/logfree/sharded"
)

// Recover reopens a crashed NV-Memcached instance (§6.5) through the public
// logfree API: Attach recovers the durable directory and the item map in
// one combined sweep of the active slabs, freeing memory that is "marked as
// allocated but not yet or no longer reachable from the hash table". The
// LRU list is rebuilt (order reset) from one index walk.
//
// This is the operation Figure 11 times against the volatile alternative's
// warm-up: recovering even a large instance takes milliseconds, while
// re-populating a cold volatile cache takes orders of magnitude longer.
func Recover(dev *nvram.Device, cfg Config) (*Cache, logfree.RecoveryStats, error) {
	cfg.fill()
	rt, err := logfree.Attach(dev, logfree.WithMaxThreads(cfg.MaxConns+1))
	if err != nil {
		return nil, logfree.RecoveryStats{}, err
	}
	if _, ok := rt.Lookup(cacheMapName); !ok {
		return nil, logfree.RecoveryStats{}, errors.New("memcache: device holds no cache descriptor")
	}
	m, err := adoptCache(rt, cfg)
	if err != nil {
		return nil, logfree.RecoveryStats{}, err
	}
	return m, rt.RecoveryStats(), nil
}

// adoptCache builds a cache on one already-open runtime: a 1-shard pool.
func adoptCache(rt *logfree.Runtime, cfg Config) (*Cache, error) {
	pool, err := sharded.Adopt(rt)
	if err != nil {
		return nil, err
	}
	return openCache(pool, cfg)
}

// WarmUp populates a cache with n sequential keys (the Figure 11 warm-up
// phase for the volatile comparators) and returns how long it took.
func WarmUp(h interface {
	Set(key, value []byte, flags uint16, expiry uint32) error
}, n int, valueLen int) (time.Duration, error) {
	val := make([]byte, valueLen)
	for i := range val {
		val[i] = byte(i)
	}
	start := time.Now()
	var kb [16]byte
	for i := 0; i < n; i++ {
		k := formatKey(kb[:0], uint64(i))
		if err := h.Set(k, val, 0, 0); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// formatKey renders a compact decimal key (no fmt allocation in hot loops).
func formatKey(dst []byte, n uint64) []byte {
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	return append(dst, buf[i:]...)
}
