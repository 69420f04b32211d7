package nvram

import "fmt"

// Backend is the persistence substrate of a Device: the storage that holds
// the persisted image (what survives a crash) plus the hook that makes
// completed write-backs durable at fence points.
//
// The device keeps the backend's word slice cached and writes lines into it
// directly (plain stores, serialized per line by the device's write-back
// locks), so the write-back hot path is identical for every backend. The
// only backend-specific work happens at a Fence, after the pending lines
// have been copied in — and even that interface call is skipped entirely
// when NeedsSync reports false, keeping MemBackend's fence path exactly as
// cheap as the pre-Backend simulator.
//
// Durability contract by backend:
//
//   - MemBackend: the persisted image is process memory. Crash/CrashPartial
//     simulate power failure in-process; cross-process durability requires
//     an explicit SaveImage.
//   - FileBackend: the persisted image is a shared file mapping. Every
//     write-back lands in the OS page cache of the backing file, so the
//     image survives the death of the process — including kill -9 — with no
//     image save. Fences additionally msync the written ranges; see
//     FileBackend for the full-machine-crash (fdatasync) story.
type Backend interface {
	// Name identifies the backend kind ("mem", "file") for logs and stats.
	Name() string

	// Words exposes the persisted image as 8-byte words. The slice must
	// stay valid and fixed (same backing array) for the backend's lifetime;
	// its length times WordSize is the device capacity.
	Words() []uint64

	// SyncLines makes the given just-written-back lines durable per the
	// backend's contract. The device calls it at each Fence that had
	// pending lines, after copying them into Words — and only when
	// NeedsSync reports true. The slice may be reordered in place but must
	// not be retained.
	SyncLines(lines []uint64)

	// NeedsSync reports whether SyncLines must be called at fences. The
	// device caches the answer at construction; returning false keeps the
	// fence hot path free of interface dispatch.
	NeedsSync() bool

	// Close releases backend resources (file mappings, descriptors). The
	// owning device must not be used afterwards.
	Close() error
}

// GrowableBackend is the optional interface of backends that can extend
// their committed capacity online (elastic pools). For such backends, Words
// returns the full RESERVE — the maximum the backend can ever grow to — and
// Committed reports how much of it is live device capacity right now.
// Non-growable backends simply have reserve == capacity.
//
// GrowTo must make the extension durable per the backend's contract before
// returning (for FileBackend: the file is extended and its header committed
// with fsyncs, so a machine crash recovers to either the old or the new
// size, never in between). New capacity reads as zero bytes. Callers
// serialize GrowTo externally (the device's Grow is the only caller).
type GrowableBackend interface {
	Backend

	// Committed returns the live capacity in bytes (<= len(Words())*WordSize).
	Committed() uint64

	// GrowTo durably extends the live capacity to newSize bytes
	// (line-aligned, <= the reserve). Growing to the current size or less
	// is a no-op.
	GrowTo(newSize uint64) error
}

// DrainableBackend is the optional interface of backends whose SyncLines
// work completes asynchronously (FileBackend's background syncer). Drain
// blocks until everything enqueued so far has been flushed per the
// backend's current policy; Device.SyncBarrier reaches it.
type DrainableBackend interface {
	Drain()
}

// MemBackend is the in-process backend: the persisted image is process
// memory, a private anonymous mapping like the device's own images. It is
// the default backend of New and the fastest one — a fence costs nothing
// beyond the simulated NVRAM latency. A MemBackend the caller built is never
// released by a device; dropped, it is unmapped once garbage.
type MemBackend struct {
	words     []uint64
	committed uint64
	maps      *mappings
	// blank holds until a device attaches or Words hands the image out:
	// until then it is known to be zero, and the first device neither
	// copies nor touches it.
	blank bool
}

// NewMemBackend creates an in-process backend of the given capacity in
// bytes (rounded up to a full cache line).
func NewMemBackend(size uint64) *MemBackend {
	return NewMemBackendReserve(size, 0)
}

// NewMemBackendReserve creates an in-process backend with size bytes of live
// capacity inside a reserve of maxSize bytes (both rounded up to a full
// cache line) that GrowTo can later commit. maxSize <= size means no
// headroom — identical to NewMemBackend(size).
func NewMemBackendReserve(size, maxSize uint64) *MemBackend {
	if size < LineSize {
		size = LineSize
	}
	size = (size + LineSize - 1) &^ uint64(LineSize-1)
	reserve := size
	if maxSize > reserve {
		reserve = (maxSize + LineSize - 1) &^ uint64(LineSize-1)
	}
	m := &MemBackend{committed: size, maps: newMappings(), blank: true}
	// Every write-back stores into this image at a random line, so it is a
	// huge-page candidate too. The answer is dropped: the device reports the
	// kernel's for its own images. The device attached to it populates it
	// as the pool carves (Device.Populate), so no fence faults a page in.
	m.words = newImage[uint64](m.maps, reserve/WordSize, nil)
	if err := m.maps.err(); err != nil {
		// Address space, not memory: nothing is committed yet. Running out
		// of it is where make would throw out of memory.
		panic(err)
	}
	return m
}

// Name identifies the backend kind.
func (m *MemBackend) Name() string { return "mem" }

// Words returns the persisted image (the full reserve; see Committed).
func (m *MemBackend) Words() []uint64 {
	m.blank = false
	return m.words
}

// Committed returns the live capacity in bytes.
func (m *MemBackend) Committed() uint64 { return m.committed }

// GrowTo extends the live capacity to newSize bytes. In-process commitment
// is immediate — there is no medium to sync.
func (m *MemBackend) GrowTo(newSize uint64) error {
	if newSize <= m.committed {
		return nil
	}
	if newSize%LineSize != 0 || newSize > uint64(len(m.words))*WordSize {
		return fmt.Errorf("nvram: mem backend grow to %d bytes exceeds the %d-byte reserve", newSize, uint64(len(m.words))*WordSize)
	}
	m.committed = newSize
	return nil
}

// SyncLines is a no-op: process memory needs no flushing.
func (m *MemBackend) SyncLines([]uint64) {}

// NeedsSync reports false: the device skips SyncLines entirely.
func (m *MemBackend) NeedsSync() bool { return false }

// Close is a no-op.
func (m *MemBackend) Close() error { return nil }
