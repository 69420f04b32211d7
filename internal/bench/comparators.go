package bench

import (
	"sync"
	"time"

	"repro/internal/memcache"
	"repro/logfree"
)

// This file provides the two volatile comparators of Figure 11:
//
//   - lockCache models stock Memcached: a mutex-protected hash table (the
//     paper: "Memcached uses a lock-protected sequential hash table").
//   - newCLHTCache models memcached-clht: the same lock-free hash table
//     algorithm as NV-Memcached, run in volatile mode (no write-backs), so
//     the only difference from NV-Memcached is durability.
//
// Both lose everything on restart: their "recovery" is re-populating the
// cache, which Figure 11 shows takes orders of magnitude longer than
// NV-Memcached's actual recovery.

// lockCache is the mutex-protected volatile baseline ("memcached").
type lockCache struct {
	mu sync.RWMutex
	m  map[string]lockItem
}

var _ memcache.KV = (*lockCache)(nil)

type lockItem struct {
	value  []byte
	flags  uint16
	expiry uint32
}

// newLockCache creates the stock-memcached model.
func newLockCache() *lockCache {
	return &lockCache{m: make(map[string]lockItem)}
}

// Set implements memcache.KV.
func (c *lockCache) Set(key, value []byte, flags uint16, expiry uint32) error {
	v := make([]byte, len(value))
	copy(v, value)
	c.mu.Lock()
	c.m[string(key)] = lockItem{v, flags, expiry}
	c.mu.Unlock()
	return nil
}

// Get implements memcache.KV.
func (c *lockCache) Get(key []byte) ([]byte, uint16, bool) {
	c.mu.RLock()
	it, ok := c.m[string(key)]
	c.mu.RUnlock()
	if !ok {
		return nil, 0, false
	}
	if it.expiry != 0 && int64(it.expiry) <= time.Now().Unix() {
		return nil, 0, false
	}
	return it.value, it.flags, true
}

// Delete implements memcache.KV.
func (c *lockCache) Delete(key []byte) bool {
	c.mu.Lock()
	_, ok := c.m[string(key)]
	delete(c.m, string(key))
	c.mu.Unlock()
	return ok
}

// newCLHTCache creates the memcached-clht model: a Cache on a volatile
// runtime — the same concurrent hash table as NV-Memcached with durability
// stripped. Sized like an NV-Memcached instance, defaults included, but
// with zero write latency.
func newCLHTCache(cfg memcache.Config) (*memcache.Cache, error) {
	cfg = cfg.WithDefaults()
	rt, err := logfree.New(
		logfree.WithSize(cfg.MemoryBytes), // no write latency
		logfree.WithMaxThreads(cfg.MaxConns+1),
		logfree.WithVolatile(true))
	if err != nil {
		return nil, err
	}
	return memcache.Adopt(rt, cfg)
}
