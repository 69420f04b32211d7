// Package nvram simulates byte-addressable non-volatile RAM with a
// write-back CPU cache in front of it.
//
// The simulator maintains two images of memory:
//
//   - the volatile image: what running code observes. Stores become visible
//     to all threads immediately (cache coherence), but are NOT durable.
//   - the persisted image: what survives a crash. A store reaches the
//     persisted image only when its cache line is written back — either
//     explicitly (CLWB followed by Fence) or by simulated uncontrolled
//     eviction.
//
// This reproduces the ordering contract of real hardware (clwb/sfence on
// x86) that the paper's algorithms depend on, and makes crashes testable:
// Crash discards everything that was not written back.
//
// Addresses are uint64 byte offsets into the device ("Addr"); address 0 is
// reserved as the nil pointer. All word accesses must be 8-byte aligned.
// Data-structure nodes are 64-byte aligned by the allocator, so the low six
// bits of a node address are available for mark bits (Harris delete marks,
// Natarajan-Mittal flags/tags, and the link-and-persist dirty bit).
//
// Entry bytes cross the device as ranges. StorePrivateBytes writes one from
// a word-aligned address, into a private, not yet published extent only
// (StorePrivate's contract); LoadBytes reads one at any alignment. A range
// checks its bounds once and marks each of its lines dirty once, and the
// StoreHook fires, and AutoEvictEvery ticks, once per word written, as for
// word stores. Under the race detector every word of a range is one atomic
// access. Bytes sit in words little-endian (byte i of a word at bit 8i):
// little-endian targets copy ranges through a byte view of the volatile
// image, big-endian ones a word at a time.
//
// Latency model: following the paper's methodology (§6.1), the cost of
// persistence is injected as one pause per *batch* of write-backs,
// at the Fence that completes them. Multiple CLWBs issued before a single
// Fence therefore cost one NVRAM write latency, mirroring the parallelism of
// clwb on real hardware. The pause (Wait) spins a fixed count of iterations
// (see spinsPerMicrosecond): it costs the modeled latency on the benchmark's
// reference machine and scales with the host like any other work.
//
// Each cache line has one word beside the images (Device.lines): bit 0
// flags it dirty, bit 1 locks it while a write-back copies it. A store reads
// that word and a write-back takes it with one CAS, so a line's bookkeeping
// costs one cache miss, not one per flag.
//
// Both images and the line words beside them are private anonymous
// mappings, aligned to and offered to the kernel as transparent huge pages
// (linux, madvise; see HugePages): a lookup is a handful of dependent loads
// at random addresses, and on 4 KiB pages each one is also a TLB miss. They
// live off the Go heap and read as zero until touched, so a device costs
// memory only where it is used: the allocator makes each 2 MiB resident as
// it carves into it (Populate), before any fence writes there, so no
// operation takes a first-touch fault. Race-detector builds keep the images
// on the Go heap, where the detector can see them.
package nvram

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Addr is a byte offset into the device. 0 is the nil address.
type Addr = uint64

const (
	// LineSize is the cache line size in bytes. Write-back granularity.
	LineSize = 64
	// WordSize is the machine word size in bytes. Access granularity.
	WordSize = 8

	lineWords = LineSize / WordSize
)

// Config parameterizes a Device.
type Config struct {
	// Size is the device capacity in bytes. Rounded up to a full line.
	Size uint64

	// MaxSize, when larger than Size, reserves headroom the device can
	// Grow into online (elastic capacity). Rounded up to a full line.
	// Zero means no headroom: the device stays at Size forever.
	MaxSize uint64

	// WriteLatency is the simulated NVRAM write latency, injected once per
	// batch of write-backs (i.e., once per Fence that has pending lines).
	// Zero disables latency injection.
	WriteLatency time.Duration

	// AutoEvictEvery, when positive, makes roughly one in every
	// AutoEvictEvery stores write back a random dirty cache line, modeling
	// uncontrolled cache eviction. Intended for adversarial crash testing;
	// leave zero for benchmarks.
	AutoEvictEvery int
}

// Device is a simulated NVRAM device. All methods are safe for concurrent
// use except Crash, CrashPartial, SaveImage and LoadImage, which require
// external quiescence (no in-flight operations), exactly like a real
// power failure treated at a point in time.
//
// The persisted image is owned by a pluggable Backend: MemBackend (the
// default) keeps it in process memory, FileBackend in a shared file mapping
// that survives kill -9. The write-back hot path is backend-independent —
// plain stores into the backend's word slice — and fences reach the backend
// sync hook only when it declares one (needSync), so MemBackend devices run
// exactly as before the Backend split.
type Device struct {
	cfg     Config
	backend Backend
	words   []uint64 // volatile image (cache + memory merged view)
	pers    []uint64 // persisted image (backend.Words(); survives Crash)
	lines   []uint32 // per-line word: lineDirty | lineLocked (see writeBackLine)
	// limWords is the committed capacity in words: the device size as seen
	// by every access check. The slices above are sized to the RESERVE (the
	// growth headroom of a GrowableBackend); Grow raises limWords after the
	// backend has durably extended. Atomic so concurrent accessors see a
	// grow without locks — capacity only ever increases.
	limWords atomic.Uint64
	// needSync caches backend.NeedsSync so MemBackend fences skip the
	// interface call entirely.
	needSync bool

	// StoreHook, when non-nil, is called after every mutating word access
	// (Store, successful CAS, Add). Crash-injection tests use it to abort
	// an operation mid-flight (panic/recover) at a chosen write point. Set
	// and clear it only while the device is quiescent.
	StoreHook func()

	evictTick atomic.Uint64

	// Device-level statistics. CLWB/fence counters live in the per-thread
	// Flushers (plain increments, no cross-core traffic); Stats aggregates
	// them on demand.
	statEvicts atomic.Uint64

	// What the kernel answered when words and lines were offered as
	// huge-page candidates at construction; see HugePages.
	huge hugeAdvice

	// maps holds the mappings behind words and lines; ownBackend
	// marks a MemBackend that New made for this device, released with it.
	maps       *mappings
	ownBackend bool

	// populated is the prefix of the address space whose anonymous images
	// Populate made resident; popErr is the kernel's refusal, after which
	// pages fault on first touch. Both under popMu.
	popMu     sync.Mutex
	populated uint64
	popErr    error

	flmu     sync.Mutex
	flushers []*Flusher
	retired  Stats // counters folded in from Released flushers
}

// New creates a device of the configured size with both images zeroed,
// backed by an in-process MemBackend (with growth headroom when cfg.MaxSize
// exceeds cfg.Size) that Close releases with the device.
func New(cfg Config) *Device {
	d, err := newOwning(cfg, NewMemBackendReserve(cfg.Size, cfg.MaxSize))
	if err != nil {
		// NewMemBackend derives its size from cfg.Size, so a mismatch is a
		// bug in this package, not a caller error.
		panic(err)
	}
	return d
}

// newOwning is NewWithBackend for a MemBackend the device owns.
func newOwning(cfg Config, b *MemBackend) (*Device, error) {
	d, err := NewWithBackend(cfg, b)
	if err != nil {
		b.maps.release()
		return nil, err
	}
	d.ownBackend = true
	return d, nil
}

// NewWithBackend creates a device whose persisted image is owned by b. The
// capacity is the backend's; cfg.Size, when non-zero, must agree (after
// line rounding). The volatile image starts as a copy of the persisted one
// — the state after a reboot — so a backend holding a formatted pool is
// ready for the caller's attach/recovery path. A MemBackend no device has
// attached yet is known to be zero, and nothing is copied or touched.
//
// A GrowableBackend's Words slice is its reserve; the device adopts the
// backend's Committed size as its capacity and can Grow within the reserve.
func NewWithBackend(cfg Config, b Backend) (*Device, error) {
	mb, _ := b.(*MemBackend)
	blank := mb != nil && mb.blank // read before Words, which ends it
	pers := b.Words()
	reserve := uint64(len(pers)) * WordSize
	size := reserve
	if gb, ok := b.(GrowableBackend); ok {
		size = gb.Committed()
	}
	if size == 0 || size%LineSize != 0 || size > reserve {
		return nil, fmt.Errorf("nvram: backend %q image (%d of %d bytes) is not line-aligned", b.Name(), size, reserve)
	}
	if cfg.Size != 0 {
		want := cfg.Size
		if want < LineSize {
			want = LineSize
		}
		want = (want + LineSize - 1) &^ uint64(LineSize-1)
		if want != size {
			return nil, fmt.Errorf("nvram: backend %q holds %d bytes, config wants %d", b.Name(), size, want)
		}
	}
	cfg.Size = size
	d := &Device{
		cfg:      cfg,
		backend:  b,
		pers:     pers,
		needSync: b.NeedsSync(),
		maps:     newMappings(),
	}
	d.words = newImage[uint64](d.maps, reserve/WordSize, &d.huge)
	d.lines = newImage[uint32](d.maps, reserve/LineSize, &d.huge)
	if err := d.maps.err(); err != nil {
		d.maps.release()
		return nil, err
	}
	d.limWords.Store(size / WordSize)
	if !blank {
		d.reboot()
	}
	return d, nil
}

// reboot sets the committed volatile image to the persisted one, as after a
// restart, with every image made resident first: the copy writes all of
// words anyway, and no later fence then faults on the line words.
func (d *Device) reboot() {
	lim := d.limWords.Load()
	d.Populate(lim * WordSize)
	copy(d.words[:lim], d.pers[:lim])
}

// HugePages reports what the kernel answered when the device offered its
// volatile images (words and the line words) as transparent-huge-page
// candidates: the bytes it accepted the advice for, or the first
// refusal — the errno, or errors.ErrUnsupported on a platform without the
// call. (0, nil) is a device too small to hold a huge page, or a race-
// detector build, whose images stay on the Go heap. Accepted advice is a
// request, not residency: whether huge pages were supplied depends on the
// kernel's THP mode and on its free memory.
func (d *Device) HugePages() (advised uint64, err error) { return d.huge.bytes, d.huge.err }

// Populate makes [0, end) of the device's anonymous images resident — the
// volatile image, the line words and a MemBackend's persisted image —
// in whole 2 MiB steps, without changing a word. The allocator calls it with
// its carve pointer before handing pages out, so no fence faults a page in.
// It never touches a file or DAX mapping. Where the kernel refuses (linux
// before 5.14, other platforms, race-detector builds) nothing is populated
// and pages fault on first touch, as capacity added by Grow always does.
func (d *Device) Populate(end uint64) {
	d.popMu.Lock()
	defer d.popMu.Unlock()
	from := d.populated
	end = min((end+hugePageSize-1)&^(hugePageSize-1), d.Reserve())
	if end <= from || d.popErr != nil {
		return
	}
	err := populateRange(d.words, from/WordSize, end/WordSize)
	if err == nil {
		err = populateRange(d.lines, from/LineSize, end/LineSize)
	}
	if mb, ok := d.backend.(*MemBackend); ok && err == nil {
		err = populateRange(mb.words, from/WordSize, end/WordSize)
	}
	if err != nil {
		d.popErr = err
		return
	}
	d.populated = end
}

// Populated reports the prefix of the address space Populate has made
// resident, and the kernel's refusal if it refused (errors.ErrUnsupported
// where there is no call to ask).
func (d *Device) Populated() (bytes uint64, err error) {
	d.popMu.Lock()
	defer d.popMu.Unlock()
	return d.populated, d.popErr
}

// committedLines returns the committed capacity in cache lines. The
// per-line sweeps are bounded by it, not by the reserve: headroom never
// grown into holds no data, and walking it costs time (and, written, real
// memory) proportional to address space nobody committed.
func (d *Device) committedLines() uint64 { return d.limWords.Load() / lineWords }

// Size returns the committed device capacity in bytes (it can increase
// through Grow, never decrease).
func (d *Device) Size() uint64 { return d.limWords.Load() * WordSize }

// Reserve returns the maximum capacity this device can Grow to — the size
// of its backend's reserve. Equal to Size for non-growable backends.
func (d *Device) Reserve() uint64 { return uint64(len(d.words)) * WordSize }

// Grow durably extends the committed capacity to newSize bytes (rounded up
// to a full line). No-op when newSize is at or below the current size. The
// backend commits the extension first (for FileBackend: file extended and
// header rewritten, both fsynced), so a crash at any point recovers the old
// or the new size, never anything in between. New capacity reads as zero.
//
// Concurrent Loads/Stores within the old capacity are unaffected; callers
// serialize Grow against other Grows (the allocator's pool lock does).
func (d *Device) Grow(newSize uint64) error {
	newSize = (newSize + LineSize - 1) &^ uint64(LineSize-1)
	if newSize <= d.Size() {
		return nil
	}
	if newSize > d.Reserve() {
		return fmt.Errorf("nvram: grow to %d bytes exceeds the %d-byte reserve", newSize, d.Reserve())
	}
	gb, ok := d.backend.(GrowableBackend)
	if !ok {
		return fmt.Errorf("nvram: backend %q is not growable", d.backend.Name())
	}
	// Barrier: a capacity commit must never overtake older acknowledged
	// data still queued in an asynchronous durability pipeline.
	d.SyncBarrier()
	if err := gb.GrowTo(newSize); err != nil {
		return err
	}
	d.limWords.Store(newSize / WordSize)
	return nil
}

// SyncBarrier blocks until the backend's asynchronous durability pipeline
// (if it has one — see DrainableBackend) has flushed everything enqueued so
// far. A no-op for synchronous backends.
func (d *Device) SyncBarrier() {
	if db, ok := d.backend.(DrainableBackend); ok {
		db.Drain()
	}
}

// Backend returns the persistence backend owning the persisted image.
func (d *Device) Backend() Backend { return d.backend }

// Close releases the backend (flushing and unmapping file-backed images)
// and unmaps the device's own images, with the MemBackend New made for it.
// A backend the caller built stays the caller's. Requires quiescence; the
// device must not be used afterwards.
func (d *Device) Close() error {
	err := d.backend.Close()
	d.maps.release()
	if d.ownBackend {
		d.backend.(*MemBackend).maps.release()
	}
	return err
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// SetWriteLatency changes the injected NVRAM write latency. Not safe to call
// concurrently with Fence.
func (d *Device) SetWriteLatency(l time.Duration) { d.cfg.WriteLatency = l }

// check validates a word address and returns its index. The failure paths
// live in checkFail so check stays within the inlining budget — it guards
// every device access.
func (d *Device) check(a Addr) uint64 {
	i := a / WordSize
	if a&(WordSize-1) != 0 || a == 0 || i >= d.limWords.Load() {
		d.checkFail(a)
	}
	return i
}

//go:noinline
func (d *Device) checkFail(a Addr) {
	if a&(WordSize-1) != 0 {
		panic(fmt.Sprintf("nvram: misaligned access at %#x", a))
	}
	panic(fmt.Sprintf("nvram: access out of range at %#x (size %#x)", a, d.Size()))
}

// Load atomically reads the word at a.
func (d *Device) Load(a Addr) uint64 {
	return atomic.LoadUint64(&d.words[d.check(a)])
}

// Store atomically writes v to the word at a. The store is visible to all
// threads immediately but is not durable until its line is written back.
func (d *Device) Store(a Addr, v uint64) {
	i := d.check(a)
	atomic.StoreUint64(&d.words[i], v)
	d.touch(i / lineWords)
}

// StorePrivate writes v to the word at a without the atomic-store cost.
// ONLY for initializing memory that no other thread can reach yet (a freshly
// allocated, unpublished extent): visibility and ordering are provided by
// the atomic operation that later publishes the extent's address (the
// linearizing CAS is a release point, loads of the published pointer are
// acquire points). Under AutoEvictEvery a concurrent uncontrolled eviction
// may snapshot a line mid-initialization — semantically fine (eviction
// captures an arbitrary instant, exactly like hardware), so adversarial
// configs should pair with Store if race-detector cleanliness matters.
// Byte contents (an entry's header, key and value) go through
// StorePrivateBytes instead: one call per extent, not one per word.
//
// The byte maps' address-order sweep also reads extents that are allocated
// but not yet published, and vets what it read (core.BytesMap.Sweep): a
// race by design, so under the race detector this store is atomic, and so is
// every word of StorePrivateBytes and LoadBytes.
func (d *Device) StorePrivate(a Addr, v uint64) {
	i := d.check(a)
	if raceEnabled {
		atomic.StoreUint64(&d.words[i], v)
	} else {
		d.words[i] = v
	}
	d.touch(i / lineWords)
}

// StorePrivateBytes writes the concatenation of parts from the word-aligned
// address a on, zero-filling the rest of its last word: StorePrivate over a
// range, under the same contract (an extent no other thread can reach yet).
// The range is checked once and each of its lines marked dirty once, after
// the line's words are written. With a StoreHook or AutoEvictEvery set, the
// words are instead stored one at a time, each followed by a word store's
// bookkeeping (dirty mark, eviction tick, hook call), so crash-injection
// stop points, what an eviction persists, eviction rates and dirty lines are
// those of one StorePrivate per word. Nothing is written
// when the range does not fit: the panic is the one StorePrivate would raise
// at the first word out of range.
func (d *Device) StorePrivateBytes(a Addr, parts ...[]byte) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 {
		return
	}
	i, end := d.checkRange(a, uint64(n))
	src := byteCursor{parts: parts}
	for i < end {
		line := i / lineWords
		next := min((line+1)*lineWords, end)
		if d.StoreHook == nil && d.cfg.AutoEvictEvery <= 0 {
			storeWords(d.words[i:next], &src)
			d.markDirty(line)
		} else {
			// Word by word, so a hook or a tick's eviction sees the range
			// written up to the word just stored, as a StorePrivate per
			// word leaves it.
			for k := i; k < next; k++ {
				storeWords(d.words[k:k+1], &src)
				d.touch(line)
			}
		}
		i = next
	}
}

// LoadBytes fills out with the device bytes from a on, at any alignment:
// Load over a range. No word past the one holding the last wanted byte is
// read, so a range may end on the device's last byte.
func (d *Device) LoadBytes(a Addr, out []byte) {
	if len(out) == 0 {
		return
	}
	first := a &^ (WordSize - 1)
	i, end := d.checkRange(first, a-first+uint64(len(out)))
	loadWords(d.words[i:end], a-first, out)
}

// checkRange validates the n bytes from the word-aligned address a and
// returns the indices [i, end) of the words holding them. A failure names
// the word a word-at-a-time access would have failed on first.
func (d *Device) checkRange(a Addr, n uint64) (i, end uint64) {
	i, lim := a/WordSize, d.limWords.Load()
	if a&(WordSize-1) != 0 || a == 0 || i >= lim {
		d.checkFail(a)
	}
	words := (n + WordSize - 1) / WordSize
	if words > lim-i {
		d.checkFail(lim * WordSize)
	}
	return i, i + words
}

// byteCursor reads the concatenation of parts from the front.
type byteCursor struct {
	parts [][]byte
	off   int // bytes of parts[0] already read
}

// fill copies the next len(dst) bytes into dst, zeros past the end.
func (c *byteCursor) fill(dst []byte) {
	for len(dst) > 0 && len(c.parts) > 0 {
		n := copy(dst, c.parts[0][c.off:])
		dst = dst[n:]
		if c.off += n; c.off == len(c.parts[0]) {
			c.parts, c.off = c.parts[1:], 0
		}
	}
	clear(dst)
}

// CAS atomically compares-and-swaps the word at a. Like real hardware CAS,
// it carries an implied store fence only with respect to CPU ordering, not
// persistence: the new value still needs an explicit write-back to become
// durable.
func (d *Device) CAS(a Addr, old, new uint64) bool {
	i := d.check(a)
	ok := atomic.CompareAndSwapUint64(&d.words[i], old, new)
	if ok {
		d.touch(i / lineWords)
	}
	return ok
}

// Add atomically adds delta to the word at a and returns the new value.
func (d *Device) Add(a Addr, delta uint64) uint64 {
	i := d.check(a)
	v := atomic.AddUint64(&d.words[i], delta)
	d.touch(i / lineWords)
	return v
}

// touch is a stored word's bookkeeping: its line marked dirty, its share of
// the simulated uncontrolled evictions and its StoreHook call.
func (d *Device) touch(line uint64) {
	d.markDirty(line)
	if n := d.cfg.AutoEvictEvery; n > 0 {
		if d.evictTick.Add(1)%uint64(n) == 0 {
			d.evictOne(line)
		}
	}
	if h := d.StoreHook; h != nil {
		h()
	}
}

// The bits of a line word.
const (
	lineDirty  = 1 << 0 // stored to since its last write-back (advisory: eviction, Crash, stats)
	lineLocked = 1 << 1 // a write-back is copying the line
)

func (d *Device) markDirty(line uint64) {
	// Fast path: consecutive stores into one line (node towers, a range's
	// words under a StoreHook) find the flag already set. Re-storing it
	// unconditionally would ping-pong the line words' cache lines between
	// cores under parallel load; a read of an already-set flag stays shared.
	// The OR leaves a write-back's lock bit alone, so a store made during
	// the copy leaves the line dirty after it.
	if w := &d.lines[line]; atomic.LoadUint32(w)&lineDirty == 0 {
		atomic.OrUint32(w, lineDirty)
	}
}

// evictOne writes back an arbitrary dirty line (best effort), simulating an
// uncontrolled cache eviction.
func (d *Device) evictOne(seed uint64) {
	// Cheap deterministic-ish probe starting from a hash of seed.
	h := seed * 0x9E3779B97F4A7C15
	lines := d.committedLines()
	for probe := uint64(0); probe < 64; probe++ {
		line := (h + probe) % lines
		if atomic.LoadUint32(&d.lines[line])&lineDirty != 0 {
			d.writeBackLine(line)
			d.statEvicts.Add(1)
			return
		}
	}
}

// writeBackLine copies a line from the volatile image to the persisted image
// and clears its dirty flag. A concurrent store may or may not be included,
// exactly as on real hardware where eviction snapshots the line at an
// arbitrary instant. Same-line write-backs (two flushers both holding a
// shared line pending, e.g. an allocator bitmap line) are serialized by the
// line word's lock bit, so the persisted-image stores can be plain word
// copies — write-back is the hottest loop in the simulator — ordered by the
// lock's acquire and release. One CAS takes the lock and clears the dirty
// flag; the release clears the lock bit alone, so a store that marked the
// line during the copy leaves it dirty. Readers of the persisted image
// (Crash, SaveImage, the Persisted* diagnostics) require quiescence, as
// documented on Device.
func (d *Device) writeBackLine(line uint64) {
	lw := &d.lines[line]
	lockLine(lw)
	base := line * lineWords
	for w := base; w < base+lineWords; w++ {
		d.pers[w] = atomic.LoadUint64(&d.words[w])
	}
	unlockLine(lw)
}

// lockLine takes the write-back lock of the line whose word is lw and clears
// its dirty flag, in one CAS. The CAS fails while another write-back holds
// the lock, or when a store marked the line between the load and the CAS;
// both are rare.
func lockLine(lw *uint32) {
	for !atomic.CompareAndSwapUint32(lw, atomic.LoadUint32(lw)&^lineLocked, lineLocked) {
		runtime.Gosched() // don't monopolize the P
	}
}

// unlockLine releases the write-back lock of the line whose word is lw,
// leaving in place a dirty flag set since lockLine.
func unlockLine(lw *uint32) { atomic.AndUint32(lw, ^uint32(lineLocked)) }

// EvictRandom writes back each dirty line with probability p, simulating a
// burst of uncontrolled evictions. Intended for crash tests.
func (d *Device) EvictRandom(rng *rand.Rand, p float64) {
	for line, n := uint64(0), d.committedLines(); line < n; line++ {
		if atomic.LoadUint32(&d.lines[line])&lineDirty != 0 && rng.Float64() < p {
			d.writeBackLine(line)
			d.statEvicts.Add(1)
		}
	}
}

// Crash simulates a transient failure: every store that was not written back
// is lost. The volatile image is reset to the persisted image. The caller
// must guarantee quiescence.
//
// At quiescence a clean line's two images are equal, so only dirty lines
// are restored: a crash costs its dirty lines and touches no other page.
// Bounded to the committed capacity: a file-backed reserve is mapped beyond
// EOF and must not be touched past the committed size.
func (d *Device) Crash() {
	for line, n := uint64(0), d.committedLines(); line < n; line++ {
		if d.lines[line]&lineDirty != 0 {
			w := line * lineWords
			copy(d.words[w:w+lineWords], d.pers[w:w+lineWords])
			d.lines[line] = 0
		}
	}
}

// CrashPartial first writes back each dirty line with probability p (the
// adversarial "some lines happened to be evicted" case), then crashes.
func (d *Device) CrashPartial(rng *rand.Rand, p float64) {
	d.EvictRandom(rng, p)
	d.Crash()
}

// LinePersisted reports whether the line containing a has identical volatile
// and persisted contents. Diagnostic.
func (d *Device) LinePersisted(a Addr) bool {
	line := d.check(a) / lineWords
	base := line * lineWords
	for w := base; w < base+lineWords; w++ {
		if atomic.LoadUint64(&d.words[w]) != atomic.LoadUint64(&d.pers[w]) {
			return false
		}
	}
	return true
}

// PersistedWord returns the word at a as stored in the persisted image —
// what a crash at this instant would preserve. Diagnostic.
func (d *Device) PersistedWord(a Addr) uint64 {
	return atomic.LoadUint64(&d.pers[d.check(a)])
}

// DirtyLines returns the number of lines currently flagged dirty. Advisory.
func (d *Device) DirtyLines() int {
	n := 0
	for i := range d.lines[:d.committedLines()] {
		if atomic.LoadUint32(&d.lines[i])&lineDirty != 0 {
			n++
		}
	}
	return n
}

// Stats is a snapshot of device-wide counters.
type Stats struct {
	Clwbs     uint64 // write-back instructions issued
	Fences    uint64 // fences issued
	SyncWaits uint64 // fences that had pending lines (paid the NVRAM latency)
	Evictions uint64 // uncontrolled evictions simulated
}

// Stats aggregates the per-thread flusher counters into device totals. The
// flusher counters are owner-written without synchronization (keeping the
// hot path free of cross-core counter traffic), so Stats — like Crash and
// SaveImage — requires quiescence: no operations may be in flight.
func (d *Device) Stats() Stats {
	st := Stats{Evictions: d.statEvicts.Load()}
	d.flmu.Lock()
	st.Clwbs += d.retired.Clwbs
	st.Fences += d.retired.Fences
	st.SyncWaits += d.retired.SyncWaits
	for _, f := range d.flushers {
		st.Clwbs += f.Clwbs
		st.Fences += f.Fences
		st.SyncWaits += f.SyncWaits
	}
	d.flmu.Unlock()
	return st
}

// ResetStats zeroes the device totals (including every flusher's counters).
// Requires quiescence.
func (d *Device) ResetStats() {
	d.flmu.Lock()
	d.retired = Stats{}
	for _, f := range d.flushers {
		f.Clwbs, f.Fences, f.SyncWaits = 0, 0, 0
	}
	d.flmu.Unlock()
	d.statEvicts.Store(0)
}

// Flusher is the per-goroutine persistence context: it accumulates CLWBs and
// completes them at Fence. A Flusher must not be shared between goroutines.
type Flusher struct {
	d       *Device
	pending []uint64 // line indices, deduplicated

	// pendingSet mirrors pending once it grows past clwbDedupThreshold: an
	// open-addressed hash set (entries store line+1; 0 = empty) that turns
	// the duplicate check from a linear scan into a couple of array probes.
	// Below the threshold — a byte-map Set holds 2-6 lines pending — the
	// scan over a handful of words is cheaper than hashing. Past it, probe
	// cost is what bounds CLWB: a link-cache FlushAll holds up to
	// FlushLines() links pending under one fence (Reserve sizes the set for
	// it), and recovery sweeps and region initialization hold hundreds of
	// lines. That is why this is a flat table rather than a Go map. Kept
	// allocated across fences (cleared, not reallocated) so a steady stream
	// of large fences never reallocates it.
	pendingSet []uint64
	setMask    uint64
	setActive  bool

	// Per-context statistics, readable by the owner at any time.
	Clwbs     uint64
	Fences    uint64
	SyncWaits uint64
}

// clwbDedupThreshold is the pending-batch size past which CLWB switches its
// duplicate detection from a linear scan to a set probe. See
// BenchmarkFlusherCLWB for the crossover measurement.
const clwbDedupThreshold = 16

// NewFlusher returns a persistence context for one goroutine. The device
// keeps a reference for statistics aggregation.
func (d *Device) NewFlusher() *Flusher {
	f := &Flusher{d: d, pending: make([]uint64, 0, 16)}
	d.flmu.Lock()
	d.flushers = append(d.flushers, f)
	d.flmu.Unlock()
	return f
}

// setInsert adds line to the open-addressed pending set, reporting whether
// it was already present. Occupancy stays at or under half: growSet runs
// whenever the live count (len(pending)) reaches half the table.
func (f *Flusher) setInsert(line uint64) (dup bool) {
	if uint64(len(f.pending))*2 >= uint64(len(f.pendingSet)) {
		f.growSet()
	}
	h := (line * 0x9E3779B97F4A7C15) & f.setMask
	for {
		switch f.pendingSet[h] {
		case 0:
			f.pendingSet[h] = line + 1
			return false
		case line + 1:
			return true
		}
		h = (h + 1) & f.setMask
	}
}

// setSizeFor is the pending-set table size that holds lines members at no
// more than half occupancy.
func setSizeFor(lines int) uint64 {
	need := uint64(4 * clwbDedupThreshold)
	for need <= 2*uint64(lines) {
		need *= 2
	}
	return need
}

// growSet (re)builds the pending set from pending — which holds exactly the
// live members — sizing the table to at least 4× the live count. A table
// retained from an earlier batch (cleared at Fence) is reused when already
// big enough, so steady-state batches never reallocate it.
func (f *Flusher) growSet() {
	if need := setSizeFor(len(f.pending)); uint64(len(f.pendingSet)) < need {
		f.pendingSet = make([]uint64, need)
		f.setMask = need - 1
	}
	for _, l := range f.pending {
		h := (l * 0x9E3779B97F4A7C15) & f.setMask
		for f.pendingSet[h] != 0 {
			h = (h + 1) & f.setMask
		}
		f.pendingSet[h] = l + 1
	}
}

// Reserve sizes the pending batch and its duplicate set for batches of up to
// lines lines, so such a batch never grows them. Meant for right after
// NewFlusher: the set is left alone while it holds a batch.
func (f *Flusher) Reserve(lines int) {
	if cap(f.pending) < lines {
		f.pending = append(make([]uint64, 0, lines), f.pending...)
	}
	if need := setSizeFor(lines); !f.setActive && uint64(len(f.pendingSet)) < need {
		f.pendingSet = make([]uint64, need)
		f.setMask = need - 1
	}
}

// Device returns the device this flusher operates on.
func (f *Flusher) Device() *Device { return f.d }

// CLWB schedules a write-back of the cache line containing a. The line is
// not durable until the next Fence.
func (f *Flusher) CLWB(a Addr) {
	line := f.d.check(a) / lineWords
	if len(f.pending) < clwbDedupThreshold {
		for _, l := range f.pending {
			if l == line {
				return
			}
		}
	} else {
		if !f.setActive {
			// First CLWB past the threshold: adopt the batch into the set.
			f.setActive = true
			f.growSet()
		}
		if f.setInsert(line) {
			return
		}
	}
	f.pending = append(f.pending, line)
	f.Clwbs++
}

// CLWBRange schedules write-backs for every cache line overlapping
// [a, a+n): the batched-persistence helper for multi-line objects (entry
// extents, node towers). The lines are not durable until the next Fence —
// and by the latency model they all cost that single fence's one pause.
func (f *Flusher) CLWBRange(a Addr, n uint64) {
	if n == 0 {
		return
	}
	first := a &^ uint64(LineSize-1)
	last := (a + n - 1) &^ uint64(LineSize-1)
	if first == 0 {
		// Line 0 holds the reserved nil address; name it by its first
		// valid word instead.
		f.CLWB(WordSize)
		first += LineSize
	}
	for l := first; l <= last; l += LineSize {
		f.CLWB(l)
	}
}

// Fence completes all pending write-backs issued through this flusher and
// injects one NVRAM write latency if any line was pending (the paper's
// one-pause-per-batch model).
func (f *Flusher) Fence() {
	f.Fences++
	if len(f.pending) == 0 {
		return
	}
	for _, line := range f.pending {
		f.d.writeBackLine(line)
	}
	if f.d.needSync {
		// File-backed devices flush the written ranges (msync / fdatasync);
		// the hook may reorder f.pending, which is discarded right after.
		f.d.backend.SyncLines(f.pending)
	}
	f.pending = f.pending[:0]
	if f.setActive {
		clear(f.pendingSet)
		f.setActive = false
	}
	f.SyncWaits++
	Wait(f.d.cfg.WriteLatency)
}

// Sync is CLWB(a) followed by Fence: one complete sync operation.
func (f *Flusher) Sync(a Addr) {
	f.CLWB(a)
	f.Fence()
}

// Release deregisters the flusher from its device, folding its counters
// into the device totals. Call when the owning context retires (a device
// that lives through many attach/recover cycles would otherwise accumulate
// dead flushers forever). The flusher must not be used afterwards.
func (f *Flusher) Release() {
	d := f.d
	d.flmu.Lock()
	for i, g := range d.flushers {
		if g == f {
			d.flushers = append(d.flushers[:i], d.flushers[i+1:]...)
			d.retired.Clwbs += f.Clwbs
			d.retired.Fences += f.Fences
			d.retired.SyncWaits += f.SyncWaits
			break
		}
	}
	d.flmu.Unlock()
}

// Pending returns the number of lines awaiting the next Fence.
func (f *Flusher) Pending() int { return len(f.pending) }

var imageMagic = [8]byte{'N', 'V', 'I', 'M', 'G', '0', '0', '1'}

// SaveImage writes the persisted image to path. Together with LoadImage this
// lets a process "power off" and a later process recover, mirroring the
// paper's assumption that an NVRAM region can be remapped across restarts.
// Requires quiescence.
func (d *Device) SaveImage(path string) error {
	lim := d.limWords.Load()
	buf := make([]byte, 16+lim*WordSize)
	copy(buf, imageMagic[:])
	binary.LittleEndian.PutUint64(buf[8:], d.Size())
	for i, w := range d.pers[:lim] {
		binary.LittleEndian.PutUint64(buf[16+uint64(i)*WordSize:], w)
	}
	return os.WriteFile(path, buf, 0o644)
}

// LoadImage creates a device from an image previously written by SaveImage.
// The volatile image starts equal to the persisted image, as after a reboot.
func LoadImage(path string, cfg Config) (*Device, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(buf) < 16 || string(buf[:8]) != string(imageMagic[:]) {
		return nil, errors.New("nvram: bad image header")
	}
	size := binary.LittleEndian.Uint64(buf[8:])
	if uint64(len(buf)-16) != size {
		return nil, fmt.Errorf("nvram: image truncated: header says %d bytes, have %d", size, len(buf)-16)
	}
	cfg.Size = size
	b := NewMemBackendReserve(size, cfg.MaxSize)
	pers := b.Words()
	for i := range pers[:size/WordSize] {
		pers[i] = binary.LittleEndian.Uint64(buf[16+i*WordSize:])
	}
	return newOwning(cfg, b)
}

// LatencyRow is one row of the paper's Table 1 (latencies in nanoseconds).
type LatencyRow struct {
	Level      string
	ReadNanos  int
	WriteNanos int
}

// LatencyTable reproduces Table 1 of the paper: projected latencies for the
// memory hierarchy the evaluation models. The simulator's default
// WriteLatency (125ns) is the paper's assumed NVRAM write latency, an
// average of the PCM and Memristor projections; it is the only latency the
// simulator charges, as a fixed-work pause per fence (Wait), and the other
// rows are the host's own.
var LatencyTable = []LatencyRow{
	{"L1", 2, 2},
	{"L2", 6, 6},
	{"LLC", 15, 15},
	{"DRAM", 50, 50},
	{"PCM", 60, 150}, // read 50-70 in the paper; midpoint
	{"Memristor", 100, 100},
}

// DefaultWriteLatency is the NVRAM write latency assumed by the paper (§6.1).
// A fence with pending write-backs pays it once, as spinCount's fixed number
// of iterations: 125 ns on the benchmark's reference machine, and
// proportionally more or less on a slower or faster host.
const DefaultWriteLatency = 125 * time.Nanosecond

// spinsPerMicrosecond prices a simulated pause (Wait) as a fixed amount of
// work: 1 µs is this many iterations of spin, K = 1.479 per nanosecond, so
// DefaultWriteLatency is 184 iterations. K is spin's rate on the benchmark's
// reference machine, the one on which benchmark/reference.go's unit of work
// runs refUnit = 5e6 iterations per second: K = r × refUnit / 1e9, where
// r = 295.8 is the ratio of spin iterations per second (in spinChunk calls)
// to reference iterations per second, measured on a 2-vCPU shared x86-64
// runner (Go 1.24, linux/amd64) by 16 processes, each alternating ~100 ms
// of one with ~100 ms of the other 30 times; r is the median of the 480
// ratios (quartiles 235 and 344, per-process medians 215–351). The
// benchmark reports timed rows at the reference machine's speed, so a pause
// of fixed work is scaled out together with every other cost.
const spinsPerMicrosecond = 1479
