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
// The pool is a Treiber stack over that set with a version-counted head, so
// pops are ABA-safe without allocation: acquire and release are one CAS each
// on the uncontended path.

// Head word layout: the top context's tid+1 (0: the stack is empty), the
// number of contexts out, and a version bumped by every pop and push. A store
// has at most core.MaxThreadsLimit contexts, so both counts fit 16 bits.
const (
	headTopBits = 16
	headOutBits = 16
	headMask    = 1<<headTopBits - 1
	headVerUnit = 1 << (headTopBits + headOutBits)
)

// slot is one context's place in the pool. Each is a cache line of its own:
// a slot's link is written by whoever returns its context, most often the
// goroutine that takes it next, and a shared line would bounce between all
// of them on every release.
type slot struct {
	c    *core.Ctx
	next atomic.Uint32 // while idle: tid+1 of the context below, 0 at the bottom
	_    [64 - 12]byte
}

// ctxPool is the stack of idle operation contexts.
type ctxPool struct {
	slots []slot        // the fixed set, indexed by tid
	head  atomic.Uint64 // see the head word layout above
	wait  atomic.Int32  // callers parked in park
	mu    sync.Mutex    // guards shut and the wake-ups
	wake  sync.Cond
	shut  bool
}

// newCtxPool stacks every context of store with tid 0 on top, so a single
// goroutine's operations all run on the context that formatted or recovered
// the directory.
func newCtxPool(store *core.Store) *ctxPool {
	p := &ctxPool{slots: make([]slot, store.Options().MaxThreads)}
	store.ForEachCtx(func(c *core.Ctx) { p.slots[c.Tid()].c = c })
	for tid := 0; tid+1 < len(p.slots); tid++ {
		p.slots[tid].next.Store(uint32(tid + 2))
	}
	p.head.Store(1)
	p.wake.L = &p.mu
	return p
}

// out reports how many contexts are taken.
func (p *ctxPool) out() int { return int(p.head.Load() >> headTopBits & headMask) }

// pop takes an idle context off the stack, or returns nil when none is idle.
func (p *ctxPool) pop() *core.Ctx {
	for {
		h := p.head.Load()
		top := h & headMask
		if top == 0 {
			return nil
		}
		s := &p.slots[top-1]
		if p.head.CompareAndSwap(h, h&^headMask+headVerUnit+1<<headTopBits|uint64(s.next.Load())) {
			return s.c
		}
	}
}

// push returns a context to the stack and wakes a parked caller, if any.
func (p *ctxPool) push(c *core.Ctx) {
	tid := uint64(c.Tid())
	for {
		h := p.head.Load()
		p.slots[tid].next.Store(uint32(h & headMask))
		if p.head.CompareAndSwap(h, h&^headMask+headVerUnit-1<<headTopBits|(tid+1)) {
			break
		}
	}
	// A caller parks after counting itself in wait and finding the stack
	// empty, both under mu; it sees this push, or this load sees it.
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
