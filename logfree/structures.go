package logfree

import (
	"iter"

	"repro/internal/core"
)

// Set is the common uint64 interface of the four durable set structures
// (§3). All methods are safe for concurrent use from any goroutine
// (implicit sessions). The typed wrappers share the durable directory that
// OpenOrCreate serves; each Runtime method below opens the named structure
// or creates it. They are not routed: on a runtime of more than one part
// they live on part 0.
type Set interface {
	// Insert adds key→value; false if the key is already present. The
	// effect is durable (or, with the link cache, flushed before any
	// dependent operation completes) when Insert returns.
	Insert(key, value uint64) bool
	// Upsert inserts or durably replaces in place; true if newly inserted.
	Upsert(key, value uint64) bool
	// Delete removes key, returning its value.
	Delete(key uint64) (uint64, bool)
	// Search returns the value bound to key.
	Search(key uint64) (uint64, bool)
	// Contains reports whether key is present.
	Contains(key uint64) bool
}

// u64core is the operation set the core uint64 structures share.
type u64core interface {
	Insert(c *core.Ctx, key, value uint64) bool
	Upsert(c *core.Ctx, key, value uint64) bool
	Delete(c *core.Ctx, key uint64) (uint64, bool)
	Search(c *core.Ctx, key uint64) (uint64, bool)
	Contains(c *core.Ctx, key uint64) bool
	Len(c *core.Ctx) int
	Range(c *core.Ctx, fn func(key, value uint64) bool)
}

// u64Veneer is the shared implementation of the four keyed uint64 veneers:
// a core structure driven through the runtime's context pool.
type u64Veneer struct {
	rt *Runtime
	m  u64core
}

// Insert implements Set.
func (v *u64Veneer) Insert(key, value uint64) bool {
	c := v.rt.acquire()
	defer v.rt.release(c)
	return v.m.Insert(c, key, value)
}

// Upsert implements Set.
func (v *u64Veneer) Upsert(key, value uint64) bool {
	c := v.rt.acquire()
	defer v.rt.release(c)
	return v.m.Upsert(c, key, value)
}

// Delete implements Set.
func (v *u64Veneer) Delete(key uint64) (uint64, bool) {
	c := v.rt.acquire()
	defer v.rt.release(c)
	return v.m.Delete(c, key)
}

// Search implements Set.
func (v *u64Veneer) Search(key uint64) (uint64, bool) {
	c := v.rt.acquire()
	defer v.rt.release(c)
	return v.m.Search(c, key)
}

// Contains implements Set.
func (v *u64Veneer) Contains(key uint64) bool {
	c := v.rt.acquire()
	defer v.rt.release(c)
	return v.m.Contains(c, key)
}

// Len counts live keys (quiescent use).
func (v *u64Veneer) Len() int {
	c := v.rt.acquire()
	defer v.rt.release(c)
	return v.m.Len(c)
}

// All iterates live entries (range-over-func; quiescent use — for the
// ordered structures iteration is in ascending key order, for the hash
// table unordered). The entries are copied out first, so the loop body may
// call operations.
func (v *u64Veneer) All() iter.Seq2[uint64, uint64] {
	return func(yield func(uint64, uint64) bool) {
		c := v.rt.acquire()
		var kvs [][2]uint64
		v.m.Range(c, func(k, val uint64) bool {
			kvs = append(kvs, [2]uint64{k, val})
			return true
		})
		v.rt.release(c)
		yieldAll(kvs, yield)
	}
}

// yieldAll yields copied-out pairs until yield asks to stop.
func yieldAll(kvs [][2]uint64, yield func(uint64, uint64) bool) {
	for _, kv := range kvs {
		if !yield(kv[0], kv[1]) {
			return
		}
	}
}

// List is a durable lock-free sorted linked list (Harris + link-and-persist).
type List struct {
	u64Veneer
	l *core.List
}

// List opens or creates the durable list registered under name.
func (r *Runtime) List(name string) (*List, error) {
	r = r.parts[0]
	st, err := r.open(name, KindList, 0)
	if err != nil {
		return nil, err
	}
	l := st.(*core.List)
	return &List{u64Veneer{r, l}, l}, nil
}

// HashTable is a durable lock-free hash table (Harris list per bucket).
type HashTable struct {
	u64Veneer
	t *core.HashTable
}

// HashTable opens or creates the durable hash table registered under name.
// buckets is used only at creation (rounded up to a power of two); an
// existing table keeps its durable bucket count.
func (r *Runtime) HashTable(name string, buckets int) (*HashTable, error) {
	r = r.parts[0]
	st, err := r.open(name, KindHashTable, buckets)
	if err != nil {
		return nil, err
	}
	t := st.(*core.HashTable)
	return &HashTable{u64Veneer{r, t}, t}, nil
}

// SkipList is a durable lock-free skip list (durable level 0, volatile
// index rebuilt on recovery).
type SkipList struct {
	u64Veneer
	s *core.SkipList
}

// SkipList opens or creates the durable skip list registered under name.
func (r *Runtime) SkipList(name string) (*SkipList, error) {
	r = r.parts[0]
	st, err := r.open(name, KindSkipList, 0)
	if err != nil {
		return nil, err
	}
	sl := st.(*core.SkipList)
	return &SkipList{u64Veneer{r, sl}, sl}, nil
}

// SeekGE returns the smallest live key >= key, with its value.
func (s *SkipList) SeekGE(key uint64) (k, v uint64, ok bool) {
	c := s.rt.acquire()
	defer s.rt.release(c)
	return s.s.SeekGE(c, key)
}

// Succ returns the smallest live key strictly greater than key, with its
// value; Succ(MinKey-1) is the minimum of the set.
func (s *SkipList) Succ(key uint64) (k, v uint64, ok bool) {
	c := s.rt.acquire()
	defer s.rt.release(c)
	return s.s.Succ(c, key)
}

// Scan iterates live entries with start <= key < end in ascending key order
// (end = 0 means "through MaxKey"), positioning with the index levels
// rather than walking from the head. Safe for concurrent use (no snapshot
// semantics). The range is copied out under one epoch section before the
// first yield, so the loop body may call operations.
func (s *SkipList) Scan(start, end uint64) iter.Seq2[uint64, uint64] {
	return func(yield func(uint64, uint64) bool) {
		c := s.rt.acquire()
		var kvs [][2]uint64
		s.s.Scan(c, start, end, func(k, v uint64) bool {
			kvs = append(kvs, [2]uint64{k, v})
			return true
		})
		s.rt.release(c)
		yieldAll(kvs, yield)
	}
}

// BST is a durable lock-free external binary search tree (Natarajan-Mittal).
type BST struct {
	u64Veneer
	t *core.BST
}

// BST opens or creates the durable BST registered under name.
func (r *Runtime) BST(name string) (*BST, error) {
	r = r.parts[0]
	st, err := r.open(name, KindBST, 0)
	if err != nil {
		return nil, err
	}
	t := st.(*core.BST)
	return &BST{u64Veneer{r, t}, t}, nil
}

// Queue is a durable lock-free FIFO queue (Michael-Scott with
// link-and-persist) — the paper's techniques applied beyond the set
// abstraction.
type Queue struct {
	rt *Runtime
	q  *core.Queue
}

// Queue opens or creates the durable queue registered under name.
func (r *Runtime) Queue(name string) (*Queue, error) {
	r = r.parts[0]
	st, err := r.open(name, KindQueue, 0)
	if err != nil {
		return nil, err
	}
	return &Queue{r, st.(*core.Queue)}, nil
}

// Enqueue appends value; durable when it returns (or when the link cache
// flushes, under deferred completion).
func (q *Queue) Enqueue(value uint64) {
	c := q.rt.acquire()
	defer q.rt.release(c)
	q.q.Enqueue(c, value)
}

// Dequeue removes and returns the oldest value.
func (q *Queue) Dequeue() (uint64, bool) {
	c := q.rt.acquire()
	defer q.rt.release(c)
	return q.q.Dequeue(c)
}

// Peek returns the oldest value without removing it.
func (q *Queue) Peek() (uint64, bool) {
	c := q.rt.acquire()
	defer q.rt.release(c)
	return q.q.Peek(c)
}

// Len counts queued values (quiescent use).
func (q *Queue) Len() int {
	c := q.rt.acquire()
	defer q.rt.release(c)
	return q.q.Len(c)
}

// Stack is a durable lock-free LIFO stack (Treiber + link-and-persist).
type Stack struct {
	rt *Runtime
	st *core.Stack
}

// Stack opens or creates the durable stack registered under name.
func (r *Runtime) Stack(name string) (*Stack, error) {
	r = r.parts[0]
	st, err := r.open(name, KindStack, 0)
	if err != nil {
		return nil, err
	}
	return &Stack{r, st.(*core.Stack)}, nil
}

// Push adds value (durably linearizable).
func (s *Stack) Push(value uint64) {
	c := s.rt.acquire()
	defer s.rt.release(c)
	s.st.Push(c, value)
}

// Pop removes and returns the most recent value.
func (s *Stack) Pop() (uint64, bool) {
	c := s.rt.acquire()
	defer s.rt.release(c)
	return s.st.Pop(c)
}

// Peek returns the top value without removing it.
func (s *Stack) Peek() (uint64, bool) {
	c := s.rt.acquire()
	defer s.rt.release(c)
	return s.st.Peek(c)
}

// Len counts entries (quiescent use).
func (s *Stack) Len() int {
	c := s.rt.acquire()
	defer s.rt.release(c)
	return s.st.Len(c)
}
