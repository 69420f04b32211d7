package memcache

import (
	"sync"
	"time"

	"repro/logfree"
)

// This file provides the two volatile comparators of Figure 11:
//
//   - LockCache models stock Memcached: a mutex-protected hash table (the
//     paper: "Memcached uses a lock-protected sequential hash table").
//   - NewCLHTCache models memcached-clht: the same lock-free hash table
//     algorithm as NV-Memcached, run in volatile mode (no write-backs), so
//     the only difference from NV-Memcached is durability.
//
// Both lose everything on restart: their "recovery" is re-populating the
// cache, which Figure 11 shows takes orders of magnitude longer than
// NV-Memcached's actual recovery.

// KV is the operation set shared by NV-Memcached and the volatile
// comparators, so benchmarks drive all three identically. Implementations
// are safe for concurrent use from any goroutine.
type KV interface {
	Set(key, value []byte, flags uint16, expiry uint32) error
	Get(key []byte) (value []byte, flags uint16, ok bool)
	Delete(key []byte) bool
}

var _ KV = (*Cache)(nil)

// LockCache is the mutex-protected volatile baseline ("memcached").
type LockCache struct {
	mu sync.RWMutex
	m  map[string]lockItem
}

type lockItem struct {
	value  []byte
	flags  uint16
	expiry uint32
}

// NewLockCache creates the stock-memcached model.
func NewLockCache() *LockCache {
	return &LockCache{m: make(map[string]lockItem)}
}

// Set implements KV.
func (c *LockCache) Set(key, value []byte, flags uint16, expiry uint32) error {
	v := make([]byte, len(value))
	copy(v, value)
	c.mu.Lock()
	c.m[string(key)] = lockItem{v, flags, expiry}
	c.mu.Unlock()
	return nil
}

// Get implements KV.
func (c *LockCache) Get(key []byte) ([]byte, uint16, bool) {
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

// Delete implements KV.
func (c *LockCache) Delete(key []byte) bool {
	c.mu.Lock()
	_, ok := c.m[string(key)]
	delete(c.m, string(key))
	c.mu.Unlock()
	return ok
}

// NewCLHTCache creates the memcached-clht model: a Cache on a volatile
// runtime — the same concurrent hash table as NV-Memcached with durability
// stripped. Sized like an NV-Memcached instance but with zero write latency.
func NewCLHTCache(cfg Config) (*Cache, error) {
	cfg.fill()
	rt, err := logfree.New(
		logfree.WithSize(cfg.MemoryBytes), // no write latency
		logfree.WithMaxThreads(cfg.MaxConns+1),
		logfree.WithVolatile(true))
	if err != nil {
		return nil, err
	}
	return adoptCache(rt, cfg)
}
