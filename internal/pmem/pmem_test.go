package pmem

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/nvram"
)

func newPool(t *testing.T, size uint64) *Pool {
	t.Helper()
	return Format(nvram.New(nvram.Config{Size: size}))
}

// classOf is the class of size bytes: tests name classes by the size they
// serve, not by their index in the table.
func classOf(t *testing.T, size uint64) Class {
	t.Helper()
	c, err := ClassFor(size)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClassFor(t *testing.T) {
	cases := []struct{ size, want uint64 }{
		{1, 64}, {64, 64}, {65, 128}, {128, 128}, {129, 192},
		{302, 320}, {512, 576}, {1070, 1344}, {1985, 2048}, {2048, 2048},
	}
	for _, c := range cases {
		got, err := ClassFor(c.size)
		if err != nil {
			t.Fatalf("ClassFor(%d): %v", c.size, err)
		}
		if got.Size() != c.want {
			t.Errorf("ClassFor(%d) is class %d of %d B, want the %d B class", c.size, got, got.Size(), c.want)
		}
	}
	if _, err := ClassFor(1 << 20); err == nil {
		t.Error("ClassFor(1MB) should fail")
	}
}

// TestClassTableTilesThePage pins the rule ClassSizes follows: each class
// is the largest multiple of SlotAlign that fits its slot count in a page's
// usable bytes, every slot count up to 63 is served, and no entry size gets
// fewer slots per page than under the power-of-two table the pool used
// before (layout version 1).
func TestClassTableTilesThePage(t *testing.T) {
	const usable = PageSize - SlotAlign
	if len(ClassSizes) != NumClasses {
		t.Fatalf("%d class sizes for %d classes", len(ClassSizes), NumClasses)
	}
	top := ClassSizes[NumClasses-1]
	if top != 2048 || slotsPerPage[NumClasses-1] != 1 {
		t.Fatalf("top class %d B with %d slots, want 2048 B with one slot", top, slotsPerPage[NumClasses-1])
	}
	for c, size := range ClassSizes {
		n := slotsPerPage[c]
		switch {
		case size%SlotAlign != 0:
			t.Errorf("class %d B is not a multiple of %d", size, SlotAlign)
		case n < 1 || n > 63:
			t.Errorf("class %d B has %d slots: its bitmap must fit one word", size, n)
		case c > 0 && size <= ClassSizes[c-1]:
			t.Errorf("class %d B follows %d B", size, ClassSizes[c-1])
		case c < NumClasses-1 && size != usable/n&^(SlotAlign-1):
			t.Errorf("class %d B is not the largest %d B multiple that fits %d slots", size, SlotAlign, n)
		}
	}
	for n := uint64(1); n <= 63; n++ {
		want := min(usable/n&^(SlotAlign-1), top)
		if cl := classOf(t, want); cl.Size() != want {
			t.Errorf("%d slots per page fit %d B, which has no class (ClassFor gives %d B)", n, want, cl.Size())
		}
	}
	pow2 := []uint64{64, 128, 256, 512, 1024, 2048}
	for size := uint64(33); size <= top; size++ {
		var old uint64
		for i := len(pow2) - 1; i >= 0 && pow2[i] >= size; i-- {
			old = pow2[i]
		}
		if got := slotsPerPage[classOf(t, size)]; got < usable/old {
			t.Errorf("a %d B entry gets %d slots per page, the power-of-two table gave it %d", size, got, usable/old)
		}
	}
}

func TestAllocAligned(t *testing.T) {
	p := newPool(t, 1<<20)
	ctx := p.NewCtx(p.Device().NewFlusher())
	for cl := Class(0); cl < NumClasses; cl++ {
		a, err := ctx.Alloc(cl)
		if err != nil {
			t.Fatal(err)
		}
		if a%SlotAlign != 0 {
			t.Errorf("class %d: addr %#x not 64-aligned", cl, a)
		}
		if !p.SlotAllocated(a) {
			t.Errorf("class %d: slot not marked allocated", cl)
		}
	}
}

func TestAllocDistinctAddresses(t *testing.T) {
	p := newPool(t, 1<<22)
	ctx := p.NewCtx(p.Device().NewFlusher())
	seen := make(map[Addr]bool)
	for i := 0; i < 500; i++ {
		a, err := ctx.Alloc(0)
		if err != nil {
			t.Fatal(err)
		}
		if seen[a] {
			t.Fatalf("address %#x allocated twice", a)
		}
		seen[a] = true
	}
}

func TestPrepareThenCommitReturnsSameAddr(t *testing.T) {
	p := newPool(t, 1<<20)
	ctx := p.NewCtx(p.Device().NewFlusher())
	a, err := ctx.Prepare(1)
	if err != nil {
		t.Fatal(err)
	}
	if p.SlotAllocated(a) {
		t.Fatal("Prepare must not mark the slot allocated")
	}
	a2, _ := ctx.Prepare(1) // idempotent until Commit
	if a2 != a {
		t.Fatalf("second Prepare moved: %#x vs %#x", a2, a)
	}
	got := ctx.Commit(1)
	if got != a {
		t.Fatalf("Commit = %#x, want %#x", got, a)
	}
	if !p.SlotAllocated(a) {
		t.Fatal("Commit did not mark the slot")
	}
}

func TestAbort(t *testing.T) {
	p := newPool(t, 1<<20)
	ctx := p.NewCtx(p.Device().NewFlusher())
	a, _ := ctx.Prepare(0)
	ctx.Abort(0)
	b, _ := ctx.Prepare(0)
	if a != b {
		t.Fatalf("after Abort, Prepare moved from %#x to %#x", a, b)
	}
}

func TestFreeAndReuse(t *testing.T) {
	p := newPool(t, 1<<20)
	ctx := p.NewCtx(p.Device().NewFlusher())
	a, _ := ctx.Alloc(0)
	ctx.Free(a)
	if p.SlotAllocated(a) {
		t.Fatal("slot still allocated after Free")
	}
	b, _ := ctx.Alloc(0)
	if b != a {
		t.Fatalf("lowest-slot reuse expected: got %#x, want %#x", b, a)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	p := newPool(t, 1<<20)
	ctx := p.NewCtx(p.Device().NewFlusher())
	a, _ := ctx.Alloc(0)
	ctx.Free(a)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	ctx.Free(a)
}

func TestPageTurnover(t *testing.T) {
	p := newPool(t, 1<<20)
	ctx := p.NewCtx(p.Device().NewFlusher())
	// 63 slots of class 0 per page: allocate two pages' worth.
	var addrs []Addr
	for i := 0; i < 130; i++ {
		a, err := ctx.Alloc(0)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	pages := map[Addr]bool{}
	for _, a := range addrs {
		pages[PageOf(a)] = true
	}
	if len(pages) < 3 {
		t.Fatalf("expected ≥3 pages for 130 class-0 objects, got %d", len(pages))
	}
}

func TestEmptyPageIsRecycled(t *testing.T) {
	p := newPool(t, 1<<20)
	ctx := p.NewCtx(p.Device().NewFlusher())
	var addrs []Addr
	for i := 0; i < 63; i++ { // fill page 1 exactly
		a, _ := ctx.Alloc(0)
		addrs = append(addrs, a)
	}
	firstPage := PageOf(addrs[0])
	// Move the context off the page by allocating one more (new page).
	extra, _ := ctx.Alloc(0)
	if PageOf(extra) == firstPage {
		t.Fatal("expected allocation from a fresh page")
	}
	for _, a := range addrs {
		ctx.Free(a)
	}
	carvedBefore := p.Stats().PagesCarved
	// Exhaust the new current page, forcing page acquisition: should reuse.
	for i := 0; i < 63; i++ {
		ctx.Alloc(0)
	}
	if p.Stats().PagesCarved != carvedBefore {
		t.Fatalf("expected recycled page, but carved %d new pages",
			p.Stats().PagesCarved-carvedBefore)
	}
}

func TestAllocatorMetadataDurableAfterCallerFence(t *testing.T) {
	dev := nvram.New(nvram.Config{Size: 1 << 20})
	p := Format(dev)
	f := dev.NewFlusher()
	ctx := p.NewCtx(f)
	a, _ := ctx.Alloc(0)
	// Alloc schedules the bitmap write-back but does not fence (paper §5.3).
	f.Fence() // the data structure's pre-link fence
	dev.Crash()
	p2, err := Attach(dev)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.SlotAllocated(a) {
		t.Fatal("allocation lost despite caller fence")
	}
}

func TestAllocWithoutFenceMayBeLost(t *testing.T) {
	dev := nvram.New(nvram.Config{Size: 1 << 20})
	p := Format(dev)
	ctx := p.NewCtx(dev.NewFlusher())
	a, _ := ctx.Alloc(0)
	dev.Crash() // no fence: bitmap update may vanish — and in our model does
	p2, err := Attach(dev)
	if err != nil {
		t.Fatal(err)
	}
	if p2.SlotAllocated(a) {
		t.Fatal("unfenced allocation survived crash; write-back model broken")
	}
}

func TestAttachRejectsUnformatted(t *testing.T) {
	dev := nvram.New(nvram.Config{Size: 1 << 16})
	if _, err := Attach(dev); err == nil {
		t.Fatal("Attach accepted an unformatted device")
	}
}

func TestAttachRebuildsFreeList(t *testing.T) {
	dev := nvram.New(nvram.Config{Size: 1 << 20})
	p := Format(dev)
	f := dev.NewFlusher()
	ctx := p.NewCtx(f)
	a, _ := ctx.Alloc(0)
	b, _ := ctx.Alloc(0)
	ctx.Free(a)
	ctx.Free(b)
	f.Fence()
	dev.Crash()
	p2, err := Attach(dev)
	if err != nil {
		t.Fatal(err)
	}
	ctx2 := p2.NewCtx(dev.NewFlusher())
	c, _ := ctx2.Alloc(0)
	if PageOf(c) != PageOf(a) {
		t.Fatalf("recovered pool did not reuse empty page: %#x vs %#x", PageOf(c), PageOf(a))
	}
}

func TestRegionsSurviveAttach(t *testing.T) {
	dev := nvram.New(nvram.Config{Size: 1 << 20})
	p := Format(dev)
	f := dev.NewFlusher()
	r, err := p.AllocRegion(f, 10000)
	if err != nil {
		t.Fatal(err)
	}
	dev.Store(r, 0xCAFE)
	dev.Store(r+9992, 0xF00D)
	f.CLWB(r)
	f.CLWB(r + 9992)
	f.Fence()
	dev.Crash()
	p2, err := Attach(dev)
	if err != nil {
		t.Fatal(err)
	}
	if dev.Load(r) != 0xCAFE || dev.Load(r+9992) != 0xF00D {
		t.Fatal("region contents lost")
	}
	// The region's pages must not be recycled into the heap.
	ctx := p2.NewCtx(dev.NewFlusher())
	for i := 0; i < 200; i++ {
		a, err := ctx.Alloc(NumClasses - 1) // one slot per page
		if err != nil {
			t.Fatal(err)
		}
		if PageOf(a) >= PageOf(r) && PageOf(a) < PageOf(r)+3*PageSize {
			t.Fatalf("allocation %#x landed inside region", a)
		}
	}
}

func TestRootsDurable(t *testing.T) {
	dev := nvram.New(nvram.Config{Size: 1 << 16})
	p := Format(dev)
	f := dev.NewFlusher()
	p.SetRoot(f, 3, 0xABCD)
	dev.Crash()
	p2, err := Attach(dev)
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.Root(3); got != 0xABCD {
		t.Fatalf("root = %#x, want 0xABCD", got)
	}
}

func TestAllocatedInPage(t *testing.T) {
	p := newPool(t, 1<<20)
	ctx := p.NewCtx(p.Device().NewFlusher())
	cl := classOf(t, 256)
	a, _ := ctx.Alloc(cl)
	b, _ := ctx.Alloc(cl)
	got := p.AllocatedInPage(nil, PageOf(a))
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("AllocatedInPage = %v, want [%#x %#x]", got, a, b)
	}
	ctx.Free(a)
	got = p.AllocatedInPage(nil, PageOf(a))
	if len(got) != 1 || got[0] != b {
		t.Fatalf("AllocatedInPage after free = %v, want [%#x]", got, b)
	}
}

// TestSlotStart: an address read from the device names a slot only at the
// first byte of one of its page's slots, inside the carved heap and outside
// regions; the slot need not be allocated.
func TestSlotStart(t *testing.T) {
	p := newPool(t, 1<<20)
	ctx := p.NewCtx(p.Device().NewFlusher())
	cl := classOf(t, 192)
	a, _ := ctx.Alloc(cl)
	r, err := p.AllocRegion(ctx.Flusher(), 100)
	if err != nil {
		t.Fatal(err)
	}
	page := PageOf(a)
	last := page + SlotAlign + Addr(slotsPerPage[cl]-1)*Addr(cl.Size())
	for _, c := range []struct {
		a    Addr
		want bool
	}{
		{a, true}, {a + Addr(cl.Size()), true}, {last, true},
		{a + 8, false}, {a + SlotAlign, false}, {last + Addr(cl.Size()), false},
		{page, false}, {0, false}, {SlotAlign, false}, {r, false},
		{p.HeapEnd() + SlotAlign, false}, {^Addr(0) &^ (SlotAlign - 1), false},
	} {
		got, ok := p.SlotStart(c.a)
		if ok != c.want || (ok && got != cl) {
			t.Errorf("SlotStart(%#x) = %d, %v; want class %d, %v", c.a, got, ok, cl, c.want)
		}
	}
}

func TestOutOfMemory(t *testing.T) {
	p := newPool(t, 64<<10) // 16 pages total
	ctx := p.NewCtx(p.Device().NewFlusher())
	var err error
	for i := 0; i < 20*63; i++ {
		if _, err = ctx.Alloc(0); err != nil {
			break
		}
	}
	if err != ErrOutOfMemory {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	p := newPool(t, 1<<24)
	const workers = 8
	var wg sync.WaitGroup
	allAddrs := make([][]Addr, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			ctx := p.NewCtx(p.Device().NewFlusher())
			var live []Addr
			for i := 0; i < 3000; i++ {
				if len(live) > 0 && rng.Intn(2) == 0 {
					k := rng.Intn(len(live))
					ctx.Free(live[k])
					live = append(live[:k], live[k+1:]...)
				} else {
					a, err := ctx.Alloc(Class(rng.Intn(3)))
					if err != nil {
						t.Error(err)
						return
					}
					live = append(live, a)
				}
			}
			allAddrs[w] = live
		}(w)
	}
	wg.Wait()
	// No two workers may hold the same live address.
	seen := make(map[Addr]int)
	for w, live := range allAddrs {
		for _, a := range live {
			if prev, dup := seen[a]; dup {
				t.Fatalf("address %#x live in workers %d and %d", a, prev, w)
			}
			seen[a] = w
			if !p.SlotAllocated(a) {
				t.Fatalf("live address %#x not marked allocated", a)
			}
		}
	}
}

func TestCrossThreadFree(t *testing.T) {
	p := newPool(t, 1<<20)
	f1 := p.Device().NewFlusher()
	f2 := p.Device().NewFlusher()
	c1 := p.NewCtx(f1)
	c2 := p.NewCtx(f2)
	a, _ := c1.Alloc(0)
	c2.Free(a) // freeing another thread's allocation must work
	if p.SlotAllocated(a) {
		t.Fatal("cross-thread free did not clear the slot")
	}
}

func TestQuickAllocFreeInvariant(t *testing.T) {
	p := newPool(t, 1<<22)
	ctx := p.NewCtx(p.Device().NewFlusher())
	live := make(map[Addr]bool)
	op := func(alloc bool, clRaw uint8) bool {
		cl := Class(clRaw % NumClasses)
		if alloc || len(live) == 0 {
			a, err := ctx.Alloc(cl)
			if err != nil {
				return false
			}
			if live[a] {
				return false // handed out a live address
			}
			live[a] = true
			return p.SlotAllocated(a)
		}
		for a := range live {
			delete(live, a)
			ctx.Free(a)
			return !p.SlotAllocated(a)
		}
		return true
	}
	if err := quick.Check(op, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestNoDoubleFreePageHandout is the regression test for a TOCTOU where the
// owner's unpin and a remote freer's maybeRecycle both concluded "empty and
// unpinned" and appended the same page to the free list twice; two contexts
// then co-owned the page and corrupted each other's slots. The workload
// forces exactly that pattern: cross-thread frees that empty pages owned by
// other threads, at high churn.
func TestNoDoubleFreePageHandout(t *testing.T) {
	p := newPool(t, 1<<24)
	const workers = 8
	var wg sync.WaitGroup
	ch := make(chan Addr, 1024)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := p.NewCtx(p.Device().NewFlusher())
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 30000; i++ {
				if rng.Intn(2) == 0 {
					a, err := ctx.Alloc(0)
					if err != nil {
						t.Error(err)
						return
					}
					select {
					case ch <- a: // hand to a random other thread to free
					default:
						ctx.Free(a)
					}
				} else {
					select {
					case a := <-ch:
						ctx.Free(a) // cross-thread free (empties remote pages)
					default:
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Drain and free the remainder.
	ctx := p.NewCtx(p.Device().NewFlusher())
	for {
		select {
		case a := <-ch:
			ctx.Free(a)
		default:
			return
		}
	}
}

// TestAttachRefusesOtherLayoutVersion: an image whose layout-version word is
// not LayoutVersion — 0 in every image written before the word existed, 1 in
// one whose pages hold the power-of-two classes, 2 in one with a thread-bank
// table — is refused with
// ErrLayoutVersion, and still counts as formatted, so an open-or-create
// never reformats it.
func TestAttachRefusesOtherLayoutVersion(t *testing.T) {
	dev := nvram.New(nvram.Config{Size: 1 << 20})
	Format(dev)
	if _, err := Attach(dev); err != nil {
		t.Fatalf("Attach of a fresh pool: %v", err)
	}
	for v := uint64(0); v < LayoutVersion; v++ {
		dev.Store(hdrLayout, v)
		dev.NewFlusher().Sync(hdrLayout)
		dev.Crash()
		if _, err := Attach(dev); !errors.Is(err, ErrLayoutVersion) {
			t.Fatalf("Attach of a version-%d image: %v, want ErrLayoutVersion", v, err)
		}
		if !Formatted(dev) {
			t.Fatalf("a version-%d image no longer counts as formatted", v)
		}
	}
}

// TestPartialHeapHoldsPagesWorthTaking checks the partial-page heap's
// registration rule: after single frees into full pages, the heap holds
// exactly the unowned pages with at least a quarter of their slots free, so
// every getPage takes the first entry it pops. A page a free leaves thinner
// is not registered: getPage would only pop and drop it.
func TestPartialHeapHoldsPagesWorthTaking(t *testing.T) {
	p := newPool(t, 1<<22)
	c := classOf(t, 128)
	n := int(slotsPerPage[c])
	const pages = 200
	ctx := p.NewCtx(p.Device().NewFlusher())
	var addrs []Addr
	for i := 0; i < pages*n; i++ {
		a, err := ctx.Alloc(c)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	ctx.Release()
	if got := len(p.partial[c]); got != 0 {
		t.Fatalf("%d heap entries after filling %d pages, want 0", got, pages)
	}

	freer := p.NewCtx(p.Device().NewFlusher())
	rng := rand.New(rand.NewSource(49))
	freed := map[Addr]int{}
	for _, a := range addrs {
		if rng.Intn(100) < 15 {
			freer.Free(a)
			freed[PageOf(a)]++
		}
	}
	worth := map[Addr]bool{}
	for page, k := range freed {
		if k >= n/4 && k < n {
			worth[page] = true
		}
	}
	if len(worth) == 0 || len(worth) == len(freed) {
		t.Fatalf("%d of %d pages freed into are worth taking: the script tests nothing", len(worth), len(freed))
	}
	if got := len(p.partial[c]); got != len(worth) {
		t.Fatalf("heap holds %d pages, %d of the %d pages freed into are worth taking", got, len(worth), len(freed))
	}

	f := p.Device().NewFlusher()
	last := Addr(0)
	for len(p.partial[c]) > 0 {
		before := len(p.partial[c])
		page, err := p.getPage(f, c)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(p.partial[c]); got != before-1 {
			t.Fatalf("getPage popped %d entries to take one page", before-got)
		}
		if !worth[page] || page <= last {
			t.Fatalf("getPage took %#x after %#x: want the next page worth taking in address order", page, last)
		}
		last = page
	}
}
