// Package pmem implements a persistent slab allocator on top of a simulated
// NVRAM device, in the mold of the modified jemalloc the paper uses (§5.3).
//
// The device is carved into 4KB pages. Each page serves one size class and
// keeps its durable metadata — the size class and an allocation bitmap — in
// the first 64 bytes of the page, so one cache-line write-back covers all
// allocator metadata for an allocation or deallocation.
//
// The size classes are closely spaced, as jemalloc's and memcached's are,
// rather than doubling: each class is the largest multiple of 64 bytes that
// fits its number of slots in a page's 4032 usable bytes, so the classes
// tile the page and leave less than 64 bytes per slot unused. Classes stay
// multiples of 64 because nodes are cache-aligned (§6.1), the low address
// bits carry marks, and a slot is named by its 64-byte granule.
//
// Two properties from the paper are reproduced faithfully:
//
//  1. The allocator issues write-backs for its metadata but never waits for
//     them: the fence that the data-structure operation performs before
//     linking a node (or that the reclamation scheme performs per batch of
//     frees) covers the metadata write-back. No sync operation is paid for
//     allocation or deallocation in the common case.
//
//  2. Allocation is split into Prepare (returns the address the next
//     allocation will use, the paper's "next node address" hook) and Commit
//     (marks it allocated). NV-epochs checks Prepare's page against the
//     active page table before committing, so page-table logging is skipped
//     when the page is already active.
//
// Pages are owned by the allocating context (thread); any context may free
// into any page. Structure-lifetime bulk storage (hash bucket arrays, the
// active page tables themselves) is carved as multi-page regions that are
// never recycled.
package pmem

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/nvram"
)

// Addr is re-exported for convenience: a byte offset into the device.
type Addr = nvram.Addr

const (
	// PageSize is the allocator page size: also the default granularity of
	// the active page table (§6.3 uses 4KB memory pages).
	PageSize = 4096
	// SlotAlign is the alignment of every allocated object; nodes are
	// cache-aligned (§6.1), leaving the low six address bits for marks.
	SlotAlign = 64

	headerClassOff  = 0 // word: magic | class | (regions: page count)
	headerBitmapOff = 8 // word: allocation bitmap, bit i = slot i

	pageMagic  = uint64(0x9A6E) << 48
	magicMask  = uint64(0xFFFF) << 48
	classMask  = uint64(0xFF) << 40
	classShift = 40
	countMask  = (uint64(1) << 40) - 1

	regionClass = 0xFF

	// Pool header layout (line 1 of the device; line 0 is the nil guard).
	hdrBase     = nvram.LineSize
	hdrMagicOff = hdrBase + 0
	hdrSizeOff  = hdrBase + 8
	hdrHeapOff  = hdrBase + 16       // durable carve pointer ("heapNext")
	hdrLayout   = hdrBase + 24       // durable layout version (LayoutVersion)
	poolMagic   = 0x4C4F47465245455F // "LOGFREE_"

	rootBase = 2 * nvram.LineSize // 64 root slots, 512B
	// NumRoots is the number of durable root-directory slots.
	NumRoots = 64

	heapBase = PageSize // first page boundary after header+roots
)

// LayoutVersion is the version of the durable layout this build formats and
// reads: what the objects in a pool mean, above the allocator's own pages.
// Bump it whenever that meaning changes; an image of another version is
// refused (ErrLayoutVersion), never migrated. Images older than the version
// word read 0 there.
//
//	1  a byte map's entry extent is its bucket list's node
//	2  size classes tile the page
//	3  a store's thread count is fixed: no thread-bank table
//	4  a hash bucket's head is its 8-byte link word, not a 64-byte node
//	5  an entry names the entry it replaced
const LayoutVersion = 5

// Class identifies a size class.
type Class uint8

// ClassSizes lists the object sizes served by the allocator, one per number
// of slots a page can hold: each is the largest multiple of SlotAlign that
// fits that many slots in the page's PageSize-SlotAlign usable bytes, and a
// slot count that gives no new size is left out. The top class is 2048 (one
// slot per page): the largest entry a byte map stores. A page holds at most
// 63 slots, so its allocation bitmap is one word.
var ClassSizes = []uint64{64, 128, 192, 256, 320, 384, 448, 576, 640, 768, 960, 1344, 1984, 2048}

// NumClasses is the number of size classes.
const NumClasses = 14

// slotsPerPage[c] = floor((PageSize - SlotAlign) / ClassSizes[c]).
var slotsPerPage = func() [NumClasses]uint64 {
	var s [NumClasses]uint64
	for c, sz := range ClassSizes {
		s[c] = (PageSize - SlotAlign) / sz
	}
	return s
}()

// ClassFor returns the smallest class that fits size bytes.
func ClassFor(size uint64) (Class, error) {
	for c, sz := range ClassSizes {
		if size <= sz {
			return Class(c), nil
		}
	}
	return 0, fmt.Errorf("pmem: no size class fits %d bytes", size)
}

// Size returns the object size of class c.
func (c Class) Size() uint64 { return ClassSizes[c] }

// Errors returned by the allocator.
var (
	ErrOutOfMemory = errors.New("pmem: out of device memory")
	ErrNotAPool    = errors.New("pmem: device does not contain a formatted pool")
	// ErrLayoutVersion reports a pool formatted under another durable
	// layout version than LayoutVersion.
	ErrLayoutVersion = errors.New("pmem: pool has another durable layout version")
)

// Pool is the allocator state for one device. The durable state lives
// entirely inside the device; Pool itself holds only volatile acceleration
// structures and is rebuilt by Attach after a crash.
type Pool struct {
	dev *nvram.Device

	mu        sync.Mutex
	freePages []Addr         // recycled, currently empty pages
	hdrFl     *nvram.Flusher // used only under mu for carve-pointer syncs

	// nfree mirrors len(freePages) so AvailableBytes needs no lock: it runs
	// on every storing cache command.
	nfree atomic.Int64

	// partial tracks unowned pages worth taking (worthTaking: at least a
	// quarter of their slots free), per class, lowest address on top.
	// Allocation prefers them over carving, mimicking jemalloc's bin reuse:
	// freed memory is promptly reallocated, which packs the live set into
	// few pages — the allocation/deallocation locality NV-epochs exploits
	// (§5.1). A page is registered when it becomes worth taking: by the free
	// that crosses the quarter, by unpin, or by Attach. A thinner page stays
	// out, since getPage would only pop and drop it. Deletion is lazy: a
	// page that empties, fills, or is adopted and left thin keeps its entry,
	// and getPage drops the entry when it surfaces. A page is pushed only
	// while it has no live entry, and can change class only once its old
	// class's heap has drained, so no heap ever holds a page twice.
	partial [NumClasses]pageHeap

	// pageFlags holds one word per device page: the flagPartial and
	// flagFree membership bits, and flagOwned. Membership changes and
	// setting flagOwned happen under mu; the owner clears flagOwned without
	// it, so every change is an atomic And/Or, and the free path and unpin
	// check the word without the lock. A free into a registered page, or one
	// that leaves its page thin, returns without touching the pool lock: only
	// the one free that makes an unregistered page worth taking locks to push
	// it. So does unpin for a page that is neither empty nor worth taking.
	pageFlags []atomic.Uint32

	// capacity mirrors the pool's durably committed size (hdrSizeOff). It
	// is the bound carve allocates against, and is only advanced AFTER a
	// grow's header sync completes — so a crash-aborted grow (StoreHook
	// torture included) can never hand out pages the durable header does
	// not cover.
	capacity atomic.Uint64

	statCarved atomic.Uint64
	statAllocs atomic.Uint64
	statFrees  atomic.Uint64

	statAcqPartial atomic.Uint64
	statAcqFree    atomic.Uint64
	statAcqCarve   atomic.Uint64

	volatileMode bool
}

// SetVolatile drops the allocator's own durability actions (the carve-
// pointer sync). Used by the NVRAM-oblivious baseline configuration.
func (p *Pool) SetVolatile(on bool) { p.volatileMode = on }

const (
	flagPartial = 1 << 0 // page is in the partial list of its class
	flagFree    = 1 << 1 // page is in the free-page list
	flagOwned   = 1 << 2 // page is some context's current page for its class
)

func newPoolShell(dev *nvram.Device) *Pool {
	// pageFlags covers the device's full growth reserve, so Grow never has
	// to resize it under concurrent lock-free flag loads.
	return &Pool{
		dev:       dev,
		hdrFl:     dev.NewFlusher(),
		pageFlags: make([]atomic.Uint32, dev.Reserve()/PageSize+1),
	}
}

// pageHeap is a binary min-heap of page addresses.
type pageHeap []Addr

func (h *pageHeap) push(page Addr) {
	s := append(*h, page)
	for i := len(s) - 1; i > 0; {
		up := (i - 1) / 2
		if s[up] <= s[i] {
			break
		}
		s[up], s[i] = s[i], s[up]
		i = up
	}
	*h = s
}

// pop removes and returns the lowest address; the heap must not be empty.
func (h *pageHeap) pop() Addr {
	s := *h
	top, last := s[0], len(s)-1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		least := i
		for _, kid := range [2]int{2*i + 1, 2*i + 2} {
			if kid < last && s[kid] < s[least] {
				least = kid
			}
		}
		if least == i {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	*h = s
	return top
}

// worthTaking reports whether a page of class cl with allocation bitmap bm
// has enough free slots to be handed to a context: at least a quarter of
// them, and at least one. A thinner page would force another page switch
// (and a likely APT miss) within a few allocations.
func worthTaking(cl Class, bm uint64) bool {
	free := slotsPerPage[cl] - uint64(bits.OnesCount64(bm))
	return free > 0 && free >= slotsPerPage[cl]/4
}

// flag returns the membership word of the page containing a.
func (p *Pool) flag(page Addr) *atomic.Uint32 { return &p.pageFlags[page/PageSize] }

// owned reports whether page is some context's current page.
func (p *Pool) owned(page Addr) bool { return p.flag(page).Load()&flagOwned != 0 }

// pin makes page its caller's current page. Called with mu held. A page has
// at most one owner: co-owners would race on its slots.
func (p *Pool) pin(page Addr) {
	if p.owned(page) {
		panic(fmt.Sprintf("pmem: page %#x pinned by two contexts", page))
	}
	p.flag(page).Or(flagOwned)
}

// pushFree adds page, which no context owns, to the empty-page list exactly
// once. Callers hold mu.
// The owner's unpin and a remote freer's recycle can both legitimately
// conclude "empty and unpinned" for the same page; without membership
// de-duplication the page would be handed to two contexts, which then race
// on slot allocation and corrupt two structures at once.
func (p *Pool) pushFree(page Addr) {
	if p.flag(page).Load()&flagFree != 0 {
		return
	}
	p.flag(page).Store(flagFree)
	p.freePages = append(p.freePages, page)
	p.nfree.Add(1)
}

// Format initializes a fresh pool on dev, destroying any prior content. The
// header and root directory are durably written before Format returns.
func Format(dev *nvram.Device) *Pool {
	p := newPoolShell(dev)
	p.capacity.Store(dev.Size())
	dev.Populate(heapBase) // resident before the header is fenced, as carve does for pages
	dev.Store(hdrMagicOff, poolMagic)
	dev.Store(hdrSizeOff, dev.Size())
	dev.Store(hdrHeapOff, heapBase)
	dev.Store(hdrLayout, LayoutVersion)
	p.hdrFl.CLWB(hdrMagicOff)
	for i := 0; i < NumRoots; i++ {
		dev.Store(rootAddr(i), 0)
	}
	for i := 0; i < NumRoots; i += nvram.LineSize / 8 {
		p.hdrFl.CLWB(rootAddr(i))
	}
	p.hdrFl.Fence()
	return p
}

// Formatted reports whether dev's persisted image holds a formatted pool —
// the open-or-create probe used before choosing Format vs Attach. It checks
// the magic only: a pool of another layout version is formatted, and Attach
// refuses it rather than Format destroying it.
func Formatted(dev *nvram.Device) bool {
	return dev.Load(hdrMagicOff) == poolMagic
}

// Attach opens an existing pool after a restart, rebuilding the volatile
// free-page list by scanning durable page headers.
func Attach(dev *nvram.Device) (*Pool, error) {
	if dev.Load(hdrMagicOff) != poolMagic {
		return nil, ErrNotAPool
	}
	if v := dev.Load(hdrLayout); v != LayoutVersion {
		return nil, fmt.Errorf("%w: the image has version %d, this build reads %d", ErrLayoutVersion, v, LayoutVersion)
	}
	// A pool SMALLER than its device is valid: a crash between a grow's
	// device-level commit and the pool-header commit leaves exactly that,
	// and the pool recovers at its old size (re-growable any time). Larger
	// means the device lost bytes the pool was promised — refuse.
	poolSize := dev.Load(hdrSizeOff)
	if poolSize > dev.Size() {
		return nil, fmt.Errorf("pmem: pool formatted for %d bytes, device has %d",
			poolSize, dev.Size())
	}
	p := newPoolShell(dev)
	p.capacity.Store(poolSize)
	end := dev.Load(hdrHeapOff)
	for page := Addr(heapBase); page < end; {
		hdr := dev.Load(page + headerClassOff)
		if hdr&magicMask != pageMagic {
			// Carved but never initialized (crash between carve and header
			// write-back): safe to recycle.
			p.pushFree(page)
			page += PageSize
			continue
		}
		cls := (hdr & classMask) >> classShift
		if cls == regionClass {
			page += Addr(hdr&countMask) * PageSize
			continue
		}
		bm := dev.Load(page + headerBitmapOff)
		if bm == 0 {
			p.pushFree(page)
		} else if worthTaking(Class(cls), bm) {
			p.partial[cls].push(page)
			p.flag(page).Store(flagPartial)
		}
		page += PageSize
	}
	return p, nil
}

// Device returns the underlying device.
func (p *Pool) Device() *nvram.Device { return p.dev }

func rootAddr(i int) Addr { return rootBase + Addr(i)*8 }

// SetRoot durably stores v in root-directory slot i. Roots anchor data
// structures across restarts (the paper assumes remappable regions; our
// offsets are position-independent already).
func (p *Pool) SetRoot(f *nvram.Flusher, i int, v uint64) {
	if i < 0 || i >= NumRoots {
		panic(fmt.Sprintf("pmem: root slot %d out of range", i))
	}
	p.dev.Store(rootAddr(i), v)
	f.Sync(rootAddr(i))
}

// Root reads root-directory slot i.
func (p *Pool) Root(i int) uint64 {
	if i < 0 || i >= NumRoots {
		panic(fmt.Sprintf("pmem: root slot %d out of range", i))
	}
	return p.dev.Load(rootAddr(i))
}

// carve takes n contiguous pages off the durable carve pointer. Called with
// mu held. The carve pointer is synced so a crash cannot hand out the same
// pages twice; carving is rare (amortized over page reuse) so this sync does
// not show up in the paper's per-operation cost model. The device's memory
// becomes resident here, 2 MiB at a time, before any page is handed out:
// no fence in the pages takes a first-touch fault.
func (p *Pool) carve(n uint64) (Addr, error) {
	next := p.dev.Load(hdrHeapOff)
	if next+n*PageSize > p.capacity.Load() {
		return 0, ErrOutOfMemory
	}
	p.dev.Populate(next + n*PageSize)
	p.dev.Store(hdrHeapOff, next+n*PageSize)
	if !p.volatileMode {
		p.hdrFl.Sync(hdrHeapOff)
	}
	p.statCarved.Add(n)
	p.statAcqCarve.Add(1)
	return next, nil
}

// getPage returns an empty page initialized for class c. Its header is
// write-back-scheduled on f but not fenced; the caller's next fence covers
// it (before any object in the page can be linked into a structure).
func (p *Pool) getPage(f *nvram.Flusher, c Class) (Addr, error) {
	p.mu.Lock()
	// Prefer an unowned page of this class that already has free slots,
	// lowest address first (jemalloc's address-ordered first fit): it
	// concentrates allocations on the same hot pages deallocations touch,
	// which is the locality the active page table banks on (§5.1).
	for h := &p.partial[c]; len(*h) > 0; {
		page := h.pop()
		if p.flag(page).Load()&flagPartial == 0 {
			continue // stale entry: recycled since it was pushed
		}
		if cl, ok := p.PageClass(page); !ok || cl != c {
			continue // stale entry: the page serves another class now, and is registered there
		}
		p.flag(page).And(^uint32(flagPartial))
		if p.owned(page) {
			continue // owned by another context; slot races are not allowed
		}
		if !worthTaking(c, p.dev.Load(page+headerBitmapOff)) {
			// Filled up or left thin while an adopting context owned it.
			// Leave it out of the heap; the free that makes it worth taking
			// again re-registers it.
			continue
		}
		p.pin(page)
		p.statAcqPartial.Add(1)
		p.mu.Unlock()
		return page, nil
	}
	var page Addr
	for page == 0 {
		n := len(p.freePages)
		if n == 0 {
			var err error
			page, err = p.carve(1)
			if err != nil {
				p.mu.Unlock()
				return 0, err
			}
			break
		}
		cand := p.freePages[n-1]
		p.freePages = p.freePages[:n-1]
		p.nfree.Add(-1)
		p.flag(cand).And(^uint32(flagFree))
		// Defense in depth: only truly empty, unowned pages are usable.
		if p.owned(cand) || p.dev.Load(cand+headerBitmapOff) != 0 {
			continue
		}
		page = cand
		p.statAcqFree.Add(1)
	}
	p.pin(page)
	p.mu.Unlock()

	if bm := p.dev.Load(page + headerBitmapOff); bm != 0 {
		if _, ok := p.PageClass(page); ok {
			panic(fmt.Sprintf("pmem: getPage would wipe non-empty page %#x (bm=%#x)", page, bm))
		}
	}
	p.dev.Store(page+headerClassOff, pageMagic|uint64(c)<<classShift)
	p.dev.Store(page+headerBitmapOff, 0)
	if !p.volatileMode {
		f.CLWB(page + headerClassOff)
	}
	return page, nil
}

// unpin releases a context's claim on page: an empty page becomes
// recyclable, and one worth taking is registered. Either takes the lock; a
// page that is neither stays out, and the free that changes that registers
// it. The claim is dropped before the bitmap is read, and a free reads the
// flag after changing the bitmap, so one of the two sees the other's write.
func (p *Pool) unpin(page Addr) {
	if page == 0 {
		return
	}
	if !p.owned(page) {
		panic(fmt.Sprintf("pmem: unpin of unowned page %#x", page))
	}
	p.flag(page).And(^uint32(flagOwned))
	if bm := p.dev.Load(page + headerBitmapOff); bm == 0 {
		p.recycle(page)
	} else if cl, ok := p.PageClass(page); ok {
		p.notePartial(page, cl, bm)
	}
}

// AllocRegion carves a never-recycled region of at least bytes bytes and
// returns the address of its (64-byte-aligned, zeroed-at-format) data area.
// Regions hold structure-lifetime arrays: hash buckets, active page tables.
func (p *Pool) AllocRegion(f *nvram.Flusher, bytes uint64) (Addr, error) {
	pages := (bytes + SlotAlign + PageSize - 1) / PageSize
	p.mu.Lock()
	base, err := p.carve(pages)
	p.mu.Unlock()
	if err != nil {
		return 0, err
	}
	p.dev.Store(base+headerClassOff, pageMagic|uint64(regionClass)<<classShift|pages)
	f.Sync(base + headerClassOff)
	return base + SlotAlign, nil
}

// PageOf returns the page containing a.
func PageOf(a Addr) Addr { return a &^ (PageSize - 1) }

// PageClass returns the size class of the page containing a. The second
// result is false for region pages or uninitialized pages.
func (p *Pool) PageClass(page Addr) (Class, bool) {
	hdr := p.dev.Load(page + headerClassOff)
	if hdr&magicMask != pageMagic {
		return 0, false
	}
	c := Class((hdr & classMask) >> classShift)
	if c == regionClass || int(c) >= NumClasses {
		return 0, false
	}
	return c, true
}

func slotOf(page, a Addr, c Class) uint64 {
	return (a - page - SlotAlign) / c.Size()
}

// SlotAllocated reports whether the object at a is marked allocated in its
// page's durable bitmap. Used by recovery.
func (p *Pool) SlotAllocated(a Addr) bool {
	page := PageOf(a)
	c, ok := p.PageClass(page)
	if !ok {
		return false
	}
	slot := slotOf(page, a, c)
	return p.dev.Load(page+headerBitmapOff)&(1<<slot) != 0
}

// SlotStart reports the class of the object page holding a, when a is the
// first byte of one of that page's slots. Recovery vets an address read from
// the device with it before it loads through the address.
func (p *Pool) SlotStart(a Addr) (Class, bool) {
	page := PageOf(a)
	if page < heapBase || page >= p.HeapEnd() || a < page+SlotAlign {
		return 0, false
	}
	c, ok := p.PageClass(page)
	if !ok {
		return 0, false
	}
	off := a - page - SlotAlign
	return c, off%c.Size() == 0 && off/c.Size() < slotsPerPage[c]
}

// HeapStart is the address of the first allocator page.
const HeapStart Addr = heapBase

// HeapEnd returns the carve pointer: every allocator page lies in
// [HeapStart, HeapEnd).
func (p *Pool) HeapEnd() Addr { return p.dev.Load(hdrHeapOff) }

// HeapPage describes the page at page, one that a walk from HeapStart by
// next reached: next is where the following page starts, past all of a
// region's pages. An object page also reports its class and allocation
// bitmap (bit i = slot i); ok is false for regions and for pages carved but
// not yet initialized.
func (p *Pool) HeapPage(page Addr) (cl Class, bm uint64, ok bool, next Addr) {
	hdr := p.dev.Load(page + headerClassOff)
	next = page + PageSize
	if hdr&magicMask != pageMagic {
		return 0, 0, false, next
	}
	switch c := (hdr & classMask) >> classShift; {
	case c == regionClass:
		return 0, 0, false, page + max(Addr(hdr&countMask), 1)*PageSize
	case c < NumClasses:
		return Class(c), p.dev.Load(page + headerBitmapOff), true, next
	}
	return 0, 0, false, next
}

// AllocatedInPage appends the addresses of all allocated objects in page to
// dst and returns it. Used by the recovery sweep over active pages.
func (p *Pool) AllocatedInPage(dst []Addr, page Addr) []Addr {
	if page < heapBase {
		return dst // the pool header: no slots, and page 0 holds the nil address
	}
	c, ok := p.PageClass(page)
	if !ok {
		return dst
	}
	bm := p.dev.Load(page + headerBitmapOff)
	for slot := uint64(0); slot < slotsPerPage[c]; slot++ {
		if bm&(1<<slot) != 0 {
			dst = append(dst, page+SlotAlign+Addr(slot)*c.Size())
		}
	}
	return dst
}

// AvailableBytes estimates the free capacity: uncarved space plus recycled
// empty pages. Used for proactive cache eviction under memory pressure.
func (p *Pool) AvailableBytes() uint64 {
	var uncarved uint64
	if capacity, heap := p.capacity.Load(), p.dev.Load(hdrHeapOff); capacity > heap {
		uncarved = capacity - heap
	}
	return uncarved + uint64(p.nfree.Load())*PageSize
}

// SizeBytes returns the pool's committed capacity in bytes.
func (p *Pool) SizeBytes() uint64 { return p.capacity.Load() }

// Grow extends the pool to newSize device bytes, crash-atomically. No-op at
// or below the current capacity. Ordering makes a torn grow recoverable to
// exactly the old or the new size, never a half-carved pool:
//
//  1. the device (and its backing file) durably extends first;
//  2. the pool header's size word is stored and synced;
//  3. only then does the volatile capacity mirror advance, unlocking carve.
//
// A crash after 1 recovers a pool of the old size on a larger device
// (Attach accepts that; re-growing is idempotent). A crash during 2 leaves
// the header holding the old OR new size — both fully valid because the
// device already covers the new one. An aborted store (StoreHook torture)
// never advances the mirror, so no page beyond the durable size is ever
// handed out before the commit completes.
func (p *Pool) Grow(newSize uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if newSize <= p.capacity.Load() {
		return nil
	}
	if err := p.dev.Grow(newSize); err != nil {
		return err
	}
	committed := p.dev.Size() // line-rounded, >= newSize
	p.dev.Store(hdrSizeOff, committed)
	p.hdrFl.Sync(hdrSizeOff)
	p.capacity.Store(committed)
	return nil
}

// Stats is a snapshot of allocator counters.
type Stats struct {
	PagesCarved uint64
	Allocs      uint64
	Frees       uint64

	// Page acquisitions by source (diagnostic for allocation locality).
	AcqPartial, AcqFree, AcqCarve uint64
}

// Stats returns a snapshot of the allocator counters.
func (p *Pool) Stats() Stats {
	return Stats{
		PagesCarved: p.statCarved.Load(),
		Allocs:      p.statAllocs.Load(),
		Frees:       p.statFrees.Load(),
		AcqPartial:  p.statAcqPartial.Load(),
		AcqFree:     p.statAcqFree.Load(),
		AcqCarve:    p.statAcqCarve.Load(),
	}
}

// Ctx is a per-goroutine allocation context. It owns one current page per
// size class; allocation from an owned page involves no cross-thread
// coordination, reproducing the thread-partitioned behaviour of
// high-performance concurrent allocators the paper relies on for locality.
type Ctx struct {
	p   *Pool
	f   *nvram.Flusher
	cur [NumClasses]Addr

	prepared [NumClasses]Addr // address handed out by Prepare, not yet committed
}

// NewCtx creates an allocation context bound to flusher f. A Ctx must be
// used by a single goroutine.
func (p *Pool) NewCtx(f *nvram.Flusher) *Ctx {
	return &Ctx{p: p, f: f}
}

// Pool returns the pool this context allocates from.
func (c *Ctx) Pool() *Pool { return c.p }

// Flusher returns the persistence context this Ctx schedules write-backs on.
func (c *Ctx) Flusher() *nvram.Flusher { return c.f }

// Prepare picks the address the next allocation of class cl will return,
// acquiring a fresh page if necessary, without marking it allocated. This is
// the paper's "method that returns the next node address to be allocated"
// (§5.3): NV-epochs calls it to check the active page table before paying
// for the allocation.
func (c *Ctx) Prepare(cl Class) (Addr, error) {
	if a := c.prepared[cl]; a != 0 {
		return a, nil
	}
	for {
		page := c.cur[cl]
		if page != 0 {
			bm := c.p.dev.Load(page + headerBitmapOff)
			// One-word bitmap: the lowest clear bit is the next free slot.
			if free := ^bm & (1<<slotsPerPage[cl] - 1); free != 0 {
				slot := uint64(bits.TrailingZeros64(free))
				a := page + SlotAlign + Addr(slot)*cl.Size()
				c.prepared[cl] = a
				return a, nil
			}
			// Page full: release and take a new one.
			c.cur[cl] = 0
			c.p.unpin(page)
		}
		np, err := c.p.getPage(c.f, cl)
		if err != nil {
			return 0, err
		}
		c.cur[cl] = np
	}
}

// Commit marks the address returned by the latest Prepare for class cl as
// allocated. The bitmap write-back is scheduled but NOT fenced: the caller's
// pre-link fence makes it durable together with the node contents (§5.5,
// "before linking a node ... we issue a store fence that ensures that the
// contents of the node, as well as the allocator metadata ... are durably
// written").
func (c *Ctx) Commit(cl Class) Addr {
	a := c.prepared[cl]
	if a == 0 {
		panic("pmem: Commit without Prepare")
	}
	c.prepared[cl] = 0
	page := PageOf(a)
	slot := slotOf(page, a, cl)
	for {
		bm := c.p.dev.Load(page + headerBitmapOff)
		if bm&(1<<slot) != 0 {
			// Another context allocated our prepared slot: the page is
			// co-owned, which the pinning protocol must prevent. Failing
			// loudly here beats corrupting two structures' nodes.
			panic(fmt.Sprintf("pmem: prepared slot stolen at %#x (page co-ownership)", a))
		}
		if c.p.dev.CAS(page+headerBitmapOff, bm, bm|1<<slot) {
			break
		}
	}
	if !c.p.volatileMode {
		c.f.CLWB(page + headerBitmapOff)
	}
	c.p.statAllocs.Add(1)
	return a
}

// Abort forgets a Prepare without allocating.
func (c *Ctx) Abort(cl Class) { c.prepared[cl] = 0 }

// Alloc is Prepare followed immediately by Commit, for callers that do not
// interpose an active-page-table check.
func (c *Ctx) Alloc(cl Class) (Addr, error) {
	if _, err := c.Prepare(cl); err != nil {
		return 0, err
	}
	return c.Commit(cl), nil
}

// TryFree is Free, except it reports false instead of panicking when the
// slot is already free. Recovery sweeps use it: parallel recovery contexts
// may race to free the same leaked object, and exactly one must win.
func (c *Ctx) TryFree(a Addr) bool {
	cl, ok := c.p.PageClass(PageOf(a))
	return ok && c.free(a, cl)
}

// Free marks the object at a free in its page's durable bitmap. The
// write-back is scheduled on this context's flusher but not fenced; the
// epoch reclaimer fences once per batch of frees (§5.3). Any context may
// free objects allocated by any other.
func (c *Ctx) Free(a Addr) {
	cl, ok := c.p.PageClass(PageOf(a))
	if !ok {
		panic(fmt.Sprintf("pmem: Free of non-heap address %#x", a))
	}
	if !c.free(a, cl) {
		panic(fmt.Sprintf("pmem: double free at %#x", a))
	}
}

// free clears a's bit in its page's bitmap, a page of class cl, and reports
// false if the slot was already free.
func (c *Ctx) free(a Addr, cl Class) bool {
	page := PageOf(a)
	slot := slotOf(page, a, cl)
	for {
		bm := c.p.dev.Load(page + headerBitmapOff)
		if bm&(1<<slot) == 0 {
			return false
		}
		if left := bm &^ (1 << slot); c.p.dev.CAS(page+headerBitmapOff, bm, left) {
			if left == 0 {
				c.p.recycle(page)
			} else {
				c.p.notePartial(page, cl, left)
			}
			break
		}
	}
	if !c.p.volatileMode {
		c.f.CLWB(page + headerBitmapOff)
	}
	c.p.statFrees.Add(1)
	return true
}

// recycle puts page, whose bitmap was just seen empty, on the free-page list
// unless a context owns it or allocated from it meanwhile.
func (p *Pool) recycle(page Addr) {
	p.mu.Lock()
	if !p.owned(page) && p.dev.Load(page+headerBitmapOff) == 0 {
		// An empty page leaves the partial set (its heap entry goes stale
		// and is skipped on pop) and becomes fully recyclable.
		p.pushFree(page)
	}
	p.mu.Unlock()
}

// notePartial registers page, whose bitmap a free just left at bm, as a
// preferred allocation target (prompt reuse) once it is worth taking.
func (p *Pool) notePartial(page Addr, cl Class, bm uint64) {
	if p.flag(page).Load()&(flagPartial|flagFree) != 0 || !worthTaking(cl, bm) {
		return // already registered, or too thin for getPage to take
	}
	p.mu.Lock()
	// Unowned, the page's bitmap only loses bits, so a fresh load is at least
	// as worth taking as bm unless an owner allocated from it meanwhile.
	if p.flag(page).Load()&(flagPartial|flagFree|flagOwned) == 0 &&
		worthTaking(cl, p.dev.Load(page+headerBitmapOff)) {
		p.partial[cl].push(page)
		p.flag(page).Or(flagPartial)
	}
	p.mu.Unlock()
}

// Adopt makes page the context's current allocation page for its class if
// it has free slots. The epoch reclaimer calls it after freeing a batch:
// jemalloc-style prompt reuse of freed slots keeps the live set packed into
// few pages, which is precisely the allocation/deallocation locality the
// active page table exploits (§5.1). No-op if a Prepare is outstanding for
// the class or the page is full.
func (c *Ctx) Adopt(page Addr) {
	cl, ok := c.p.PageClass(page)
	if !ok || c.prepared[cl] != 0 || c.cur[cl] == page {
		return
	}
	c.p.mu.Lock()
	bm := c.p.dev.Load(page + headerBitmapOff)
	// An unowned page keeps its class while the lock is held (a recycled page
	// gets its new header from the context that already owns it), so this is
	// where cl, read without the lock, is known to still be the page's.
	now, _ := c.p.PageClass(page)
	if c.p.owned(page) || // owned: co-ownership would race on slots
		now != cl || // recycled for another class since the caller looked
		bm == 0 || // empty: it is (or is about to be) on the free list
		!worthTaking(cl, bm) { // full or thin: a switch for a handful of slots costs an APT miss
		c.p.mu.Unlock()
		return
	}
	// The page's heap entry stays registered: getPage skips owned pages, and
	// unpin re-registers only a page that lost its entry meanwhile — so an
	// adopt/unpin cycle never leaves a second entry behind.
	c.p.pin(page)
	c.p.mu.Unlock()
	old := c.cur[cl]
	c.cur[cl] = page
	if old != 0 {
		c.p.unpin(old)
	}
}

// CurrentPages returns the context's current allocation page per class
// (0 = none). NV-epochs' trim consults it: the active allocation pages are
// by definition active areas and must not be evicted from the table.
func (c *Ctx) CurrentPages() [NumClasses]Addr { return c.cur }

// Release returns the context's current pages to the pool. Call when a
// worker retires.
func (c *Ctx) Release() {
	for cl := range c.cur {
		if c.cur[cl] != 0 {
			c.p.unpin(c.cur[cl])
			c.cur[cl] = 0
		}
	}
}
