package logfree

import (
	"iter"

	"repro/internal/core"
)

// Set is the common uint64 interface of the four durable set structures
// (§3). All methods are safe for concurrent use from any goroutine
// (implicit sessions). The typed wrappers share the durable directory that
// OpenOrCreate serves; each Runtime method below opens the named structure
// or creates it.
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
// a core structure driven through the runtime's session pool (or a pinned
// session).
type u64Veneer struct {
	binding
	m u64core
}

// Insert implements Set.
func (v *u64Veneer) Insert(key, value uint64) bool {
	c, s := v.begin()
	defer v.end(s)
	return v.m.Insert(c, key, value)
}

// Upsert implements Set.
func (v *u64Veneer) Upsert(key, value uint64) bool {
	c, s := v.begin()
	defer v.end(s)
	return v.m.Upsert(c, key, value)
}

// Delete implements Set.
func (v *u64Veneer) Delete(key uint64) (uint64, bool) {
	c, s := v.begin()
	defer v.end(s)
	return v.m.Delete(c, key)
}

// Search implements Set.
func (v *u64Veneer) Search(key uint64) (uint64, bool) {
	c, s := v.begin()
	defer v.end(s)
	return v.m.Search(c, key)
}

// Contains implements Set.
func (v *u64Veneer) Contains(key uint64) bool {
	c, s := v.begin()
	defer v.end(s)
	return v.m.Contains(c, key)
}

// Len counts live keys (quiescent use).
func (v *u64Veneer) Len() int {
	c, s := v.begin()
	defer v.end(s)
	return v.m.Len(c)
}

// All iterates live entries (range-over-func; quiescent use — for the
// ordered structures iteration is in ascending key order, for the hash
// table unordered).
func (v *u64Veneer) All() iter.Seq2[uint64, uint64] {
	return func(yield func(uint64, uint64) bool) {
		c, s := v.begin()
		defer v.end(s)
		v.m.Range(c, yield)
	}
}

// List is a durable lock-free sorted linked list (Harris + link-and-persist).
type List struct {
	u64Veneer
	l *core.List
}

// List opens or creates the durable list registered under name.
func (r *Runtime) List(name string) (*List, error) {
	st, err := r.open(name, KindList, 0)
	if err != nil {
		return nil, err
	}
	l := st.(*core.List)
	return &List{u64Veneer{binding{rt: r}, l}, l}, nil
}

// WithSession returns a view of the list whose operations all run on the
// pinned session s; see ByteMap.WithSession.
func (l *List) WithSession(s *Session) *List {
	cp := *l
	cp.pin = s
	return &cp
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
	st, err := r.open(name, KindHashTable, buckets)
	if err != nil {
		return nil, err
	}
	t := st.(*core.HashTable)
	return &HashTable{u64Veneer{binding{rt: r}, t}, t}, nil
}

// WithSession returns a view of the table whose operations all run on the
// pinned session s; see ByteMap.WithSession.
func (t *HashTable) WithSession(s *Session) *HashTable {
	cp := *t
	cp.pin = s
	return &cp
}

// SkipList is a durable lock-free skip list (durable level 0, volatile
// index rebuilt on recovery).
type SkipList struct {
	u64Veneer
	s *core.SkipList
}

// SkipList opens or creates the durable skip list registered under name.
func (r *Runtime) SkipList(name string) (*SkipList, error) {
	st, err := r.open(name, KindSkipList, 0)
	if err != nil {
		return nil, err
	}
	sl := st.(*core.SkipList)
	return &SkipList{u64Veneer{binding{rt: r}, sl}, sl}, nil
}

// WithSession returns a view of the skip list whose operations all run on
// the pinned session s; see ByteMap.WithSession.
func (s *SkipList) WithSession(sess *Session) *SkipList {
	cp := *s
	cp.pin = sess
	return &cp
}

// SeekGE returns the smallest live key >= key, with its value.
func (s *SkipList) SeekGE(key uint64) (k, v uint64, ok bool) {
	c, sess := s.begin()
	defer s.end(sess)
	return s.s.SeekGE(c, key)
}

// Succ returns the smallest live key strictly greater than key, with its
// value; Succ(MinKey-1) is the minimum of the set.
func (s *SkipList) Succ(key uint64) (k, v uint64, ok bool) {
	c, sess := s.begin()
	defer s.end(sess)
	return s.s.Succ(c, key)
}

// Scan iterates live entries with start <= key < end in ascending key order
// (end = 0 means "through MaxKey"), positioning with the index levels
// rather than walking from the head. Safe for concurrent use (no snapshot
// semantics); see Map.All for the loop-body contract.
func (s *SkipList) Scan(start, end uint64) iter.Seq2[uint64, uint64] {
	return func(yield func(uint64, uint64) bool) {
		c, sess := s.begin()
		defer s.end(sess)
		s.s.Scan(c, start, end, yield)
	}
}

// BST is a durable lock-free external binary search tree (Natarajan-Mittal).
type BST struct {
	u64Veneer
	t *core.BST
}

// BST opens or creates the durable BST registered under name.
func (r *Runtime) BST(name string) (*BST, error) {
	st, err := r.open(name, KindBST, 0)
	if err != nil {
		return nil, err
	}
	t := st.(*core.BST)
	return &BST{u64Veneer{binding{rt: r}, t}, t}, nil
}

// WithSession returns a view of the tree whose operations all run on the
// pinned session s; see ByteMap.WithSession.
func (t *BST) WithSession(s *Session) *BST {
	cp := *t
	cp.pin = s
	return &cp
}

// Queue is a durable lock-free FIFO queue (Michael-Scott with
// link-and-persist) — the paper's techniques applied beyond the set
// abstraction.
type Queue struct {
	binding
	q *core.Queue
}

// Queue opens or creates the durable queue registered under name.
func (r *Runtime) Queue(name string) (*Queue, error) {
	st, err := r.open(name, KindQueue, 0)
	if err != nil {
		return nil, err
	}
	return &Queue{binding{rt: r}, st.(*core.Queue)}, nil
}

// WithSession returns a view of the queue whose operations all run on the
// pinned session s; see ByteMap.WithSession.
func (q *Queue) WithSession(s *Session) *Queue {
	cp := *q
	cp.pin = s
	return &cp
}

// Enqueue appends value; durable when it returns (or when the link cache
// flushes, under deferred completion).
func (q *Queue) Enqueue(value uint64) {
	c, s := q.begin()
	defer q.end(s)
	q.q.Enqueue(c, value)
}

// Dequeue removes and returns the oldest value.
func (q *Queue) Dequeue() (uint64, bool) {
	c, s := q.begin()
	defer q.end(s)
	return q.q.Dequeue(c)
}

// Peek returns the oldest value without removing it.
func (q *Queue) Peek() (uint64, bool) {
	c, s := q.begin()
	defer q.end(s)
	return q.q.Peek(c)
}

// Len counts queued values (quiescent use).
func (q *Queue) Len() int {
	c, s := q.begin()
	defer q.end(s)
	return q.q.Len(c)
}

// Stack is a durable lock-free LIFO stack (Treiber + link-and-persist).
type Stack struct {
	binding
	st *core.Stack
}

// Stack opens or creates the durable stack registered under name.
func (r *Runtime) Stack(name string) (*Stack, error) {
	st, err := r.open(name, KindStack, 0)
	if err != nil {
		return nil, err
	}
	return &Stack{binding{rt: r}, st.(*core.Stack)}, nil
}

// WithSession returns a view of the stack whose operations all run on the
// pinned session s; see ByteMap.WithSession.
func (s *Stack) WithSession(sess *Session) *Stack {
	cp := *s
	cp.pin = sess
	return &cp
}

// Push adds value (durably linearizable).
func (s *Stack) Push(value uint64) {
	c, sess := s.begin()
	defer s.end(sess)
	s.st.Push(c, value)
}

// Pop removes and returns the most recent value.
func (s *Stack) Pop() (uint64, bool) {
	c, sess := s.begin()
	defer s.end(sess)
	return s.st.Pop(c)
}

// Peek returns the top value without removing it.
func (s *Stack) Peek() (uint64, bool) {
	c, sess := s.begin()
	defer s.end(sess)
	return s.st.Peek(c)
}

// Len counts entries (quiescent use).
func (s *Stack) Len() int {
	c, sess := s.begin()
	defer s.end(sess)
	return s.st.Len(c)
}
