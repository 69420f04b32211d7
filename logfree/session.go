package logfree

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// This file implements implicit sessions, the threading model. Structure
// methods take no per-thread handle: each operation takes one of the
// runtime's operation contexts from its pool and returns it when done, so any
// number of goroutines can call any method of any structure concurrently.
// The contexts are the store's fixed set, one per formatted thread, each with
// its own durable active page table (§5.4). When every context is out, a
// caller waits until one comes back.
//
// The pool keeps each context in a slot of its own with an idle flag, and
// remembers per core (per P, through a sync.Pool) the slot released there
// last. An operation takes that slot if it is still idle, else the lowest
// idle one, so on a core that runs operations back to back the same context
// comes back, its page tables and epoch state still in that core's cache.
// A hint that a GC drops costs nothing: the context stays idle in its slot.

// slot is one context's place in the pool. Each is a cache line of its own:
// its flag is written by whoever takes or returns its context, and a shared
// line would bounce between cores that use different contexts.
type slot struct {
	c    *core.Ctx
	idle atomic.Bool
	_    [64 - 12]byte
}

// ctxPool is the set of idle operation contexts.
type ctxPool struct {
	slots []slot       // the fixed set, indexed by tid
	hint  sync.Pool    // *slot released last on this P
	wait  atomic.Int32 // callers parked in park
	mu    sync.Mutex   // guards shut and the wake-ups
	wake  sync.Cond
	shut  bool
}

// newCtxPool makes every context of store idle. With no hint the lowest idle
// slot is taken, so a single goroutine's operations all run on tid 0's
// context, the one that formatted or recovered the directory.
func newCtxPool(store *core.Store) *ctxPool {
	p := &ctxPool{slots: make([]slot, store.Options().MaxThreads)}
	store.ForEachCtx(func(c *core.Ctx) {
		p.slots[c.Tid()].c = c
		p.slots[c.Tid()].idle.Store(true)
	})
	p.wake.L = &p.mu
	return p
}

// out reports how many contexts are taken.
func (p *ctxPool) out() int {
	n := 0
	for i := range p.slots {
		if !p.slots[i].idle.Load() {
			n++
		}
	}
	return n
}

// pop takes the context released last on this P if it is idle, else the
// lowest idle one, or returns nil when none is idle.
func (p *ctxPool) pop() *core.Ctx {
	if s, _ := p.hint.Get().(*slot); s != nil && s.idle.CompareAndSwap(true, false) {
		return s.c
	}
	for i := range p.slots {
		if s := &p.slots[i]; s.idle.Load() && s.idle.CompareAndSwap(true, false) {
			return s.c
		}
	}
	return nil
}

// push returns a context to the pool and wakes a parked caller, if any.
func (p *ctxPool) push(c *core.Ctx) {
	s := &p.slots[c.Tid()]
	s.idle.Store(true)
	p.hint.Put(s)
	// A caller parks after counting itself in wait and finding no slot idle,
	// both under mu; it sees this flag, or this load sees it.
	if p.wait.Load() != 0 {
		p.mu.Lock()
		p.wake.Signal()
		p.mu.Unlock()
	}
}

// park waits for an idle context, or for close.
func (p *ctxPool) park() (*core.Ctx, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.wait.Add(1)
	defer p.wait.Add(-1)
	for {
		if p.shut {
			return nil, ErrClosed
		}
		if c := p.pop(); c != nil {
			return c, nil
		}
		p.wake.Wait()
	}
}

// close fails every parked caller, and every later one that would park,
// with ErrClosed.
func (p *ctxPool) close() {
	p.mu.Lock()
	p.shut = true
	p.wake.Broadcast()
	p.mu.Unlock()
}

// acquireErr takes an operation context from the pool, waiting while all are
// out, and fails with ErrClosed on a closed runtime.
func (r *Runtime) acquireErr() (*core.Ctx, error) {
	if r.closed.Load() {
		return nil, ErrClosed
	}
	if c := r.pool.pop(); c != nil {
		return c, nil
	}
	return r.pool.park()
}

// acquire is acquireErr for methods without an error result: it panics with
// an ErrClosed-wrapping error on a closed runtime.
func (r *Runtime) acquire() *core.Ctx {
	c, err := r.acquireErr()
	if err != nil {
		panic(fmt.Errorf("logfree: acquiring operation context: %w", err))
	}
	return c
}

// release returns a context taken by acquire or acquireErr.
func (r *Runtime) release(c *core.Ctx) { r.pool.push(c) }

// Sessions reports the runtime's number of operation contexts: the thread
// count its store was formatted with, and so the most operations that run at
// once. On a runtime of more than one part it is part 0's; each part has
// contexts of its own.
func (r *Runtime) Sessions() int { return len(r.parts[0].pool.slots) }
