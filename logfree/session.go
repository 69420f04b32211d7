package logfree

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/core"
)

// This file implements implicit sessions, the threading model. Structure
// methods take no per-thread handle: each operation acquires an operation
// context from the runtime's lock-free session pool and releases it on
// return, so any number of goroutines can call any method of any structure
// concurrently, with no WithMaxThreads-style cap — the pool grows on demand
// (each new session is backed by a core context, which past the formatted
// thread count gets its own durable APT bank).
//
// The pool is a Treiber stack over a grow-only session registry, with a
// version-counted head (index in the low word, version in the high word) so
// pops are ABA-safe without allocation: acquire and release are one CAS each
// on the uncontended path. Advanced callers can pin a Session explicitly
// (Runtime.Session, or the structures' WithSession views) to amortize even
// that, or to scope Reclaim.

// Session is an explicitly pinned operation context. Obtain one from
// Runtime.Session, use it via the structures' WithSession views (or just for
// Reclaim), and Close it to return it to the pool. A Session must not be
// used by two goroutines at once; the implicit per-operation sessions the
// pool hands out make that the default for all plain method calls.
type Session struct {
	rt   *Runtime
	c    *core.Ctx
	idx  uint32 // 1-based index in the pool registry
	next uint32 // freelist link (registry index) while idle
}

// Reclaim flushes this session's deferred reclamation work, converting
// retired nodes into reusable slots immediately. Useful between eviction
// passes under memory pressure; never required for correctness.
func (s *Session) Reclaim() { s.c.Epoch().FlushAll() }

// Close returns the session to the runtime's pool. The session must not be
// used afterwards.
func (s *Session) Close() { s.rt.pool.push(s) }

// sessionPool is the lock-free idle-session stack plus the grow-only
// registry backing it.
type sessionPool struct {
	store *core.Store

	// head packs (version<<32 | 1-based registry index); 0 index = empty.
	// The version increments on every successful pop and push, making the
	// intrusive freelist ABA-safe.
	head atomic.Uint64

	// reg is the grow-only registry of all sessions ever created (copied on
	// growth; readers load the pointer lock-free). Growth itself serializes
	// on the store's context lock via GrowCtx.
	reg   atomic.Pointer[[]*Session]
	grown atomic.Int64 // sessions ever created (diagnostic)
}

func newSessionPool(store *core.Store) *sessionPool {
	p := &sessionPool{store: store}
	empty := []*Session{}
	p.reg.Store(&empty)
	return p
}

// pop takes an idle session off the stack, or returns nil when none is idle.
func (p *sessionPool) pop() *Session {
	for {
		h := p.head.Load()
		idx := uint32(h)
		if idx == 0 {
			return nil
		}
		s := (*p.reg.Load())[idx-1]
		next := atomic.LoadUint32(&s.next)
		if p.head.CompareAndSwap(h, (h>>32+1)<<32|uint64(next)) {
			return s
		}
	}
}

// push returns an idle session to the stack.
func (p *sessionPool) push(s *Session) {
	for {
		h := p.head.Load()
		atomic.StoreUint32(&s.next, uint32(h))
		if p.head.CompareAndSwap(h, (h>>32+1)<<32|uint64(s.idx)) {
			return
		}
	}
}

// register adds a session (already bound to a core context) to the grow-only
// registry, in acquired state (not on the idle stack).
func (p *sessionPool) register(s *Session) {
	for {
		old := p.reg.Load()
		grown := make([]*Session, len(*old)+1)
		copy(grown, *old)
		s.idx = uint32(len(*old) + 1)
		grown[len(*old)] = s
		if p.reg.CompareAndSwap(old, &grown) {
			p.grown.Add(1)
			return
		}
	}
}

// grow creates a brand-new session on a fresh core context and registers it.
// The new session is returned in acquired state (not on the idle stack).
func (p *sessionPool) grow(rt *Runtime) (*Session, error) {
	c, err := p.store.GrowCtx()
	if err != nil {
		return nil, wrapErr(err)
	}
	s := &Session{rt: rt, c: c}
	p.register(s)
	return s, nil
}

// acquireErr takes a session from the pool (growing it when every session is
// busy), failing with ErrClosed on a closed runtime. If growth itself is
// exhausted — the epoch manager's durable bank limit, or an image predating
// bank support — the pool degrades to multiplexing: the caller waits for an
// idle session instead of failing (the registry is never empty; the runtime
// seeds it at construction).
func (r *Runtime) acquireErr() (*Session, error) {
	if r.closed.Load() {
		return nil, ErrClosed
	}
	if s := r.pool.pop(); s != nil {
		return s, nil
	}
	s, err := r.pool.grow(r)
	if err == nil {
		return s, nil
	}
	for {
		if r.closed.Load() {
			return nil, ErrClosed
		}
		if s := r.pool.pop(); s != nil {
			return s, nil
		}
		runtime.Gosched()
	}
}

// acquire is acquireErr for methods without an error result: it panics with
// an ErrClosed-wrapping error on a closed runtime (the only way acquireErr
// can fail — exhausted growth waits for an idle session instead).
func (r *Runtime) acquire() *Session {
	s, err := r.acquireErr()
	if err != nil {
		panic(fmt.Errorf("logfree: acquiring operation context: %w", err))
	}
	return s
}

func (r *Runtime) release(s *Session) {
	if s != nil {
		r.pool.push(s)
	}
}

// Session takes a session out of the pool, pinned to the caller until Close.
// Pinning is never required — every structure method draws a pooled session
// implicitly — but skips the pool round-trip in tight single-goroutine loops
// (pass the session to the structures' WithSession views) and scopes
// Reclaim.
func (r *Runtime) Session() (*Session, error) {
	return r.acquireErr()
}

// Sessions reports how many sessions (core contexts) the pool has created so
// far — the high-water mark of concurrent operations, not the live count.
func (r *Runtime) Sessions() int { return int(r.pool.grown.Load()) }

// binding resolves each operation's core context: a structure view carries
// either no pin (operations draw pooled sessions) or a pinned session from
// WithSession. A pin counts only on the runtime that handed it out: a session
// of another runtime would run the operation on that runtime's core context —
// the wrong device's epochs and allocator — so a view pinned to one draws
// pooled sessions as if it had no pin.
type binding struct {
	rt  *Runtime
	pin *Session
}

// begin returns the context to operate on and, when it came from the pool,
// the session to release via end.
func (b binding) begin() (*core.Ctx, *Session) {
	if b.pin != nil && b.pin.rt == b.rt {
		return b.pin.c, nil
	}
	s := b.rt.acquire()
	return s.c, s
}

// beginErr is begin for methods with an error result (ErrClosed flows out
// instead of panicking).
func (b binding) beginErr() (*core.Ctx, *Session, error) {
	if b.pin != nil && b.pin.rt == b.rt {
		return b.pin.c, nil, nil
	}
	s, err := b.rt.acquireErr()
	if err != nil {
		return nil, nil, err
	}
	return s.c, s, nil
}

func (b binding) end(s *Session) { b.rt.release(s) }
