package pmem

import (
	"math/bits"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nvram"
)

// refPool is the page-placement policy as stated, with none of the
// allocator's machinery: a context allocates the lowest free slot of its
// current page of the class; when that page is full it releases it and takes
// the lowest-address registered page of the class that is unowned, not full
// and at least a quarter free — every page it looks at on the way leaves the
// registry — else the newest free page, else it carves. A page is registered
// when a free leaves it unowned with a free slot, or when its owner releases
// it neither empty nor full; an unowned page that empties goes to the free
// list.
type refPool struct {
	pages map[Addr]*refPage
	free  []Addr
	carve Addr
	cur   [2][NumClasses]Addr
}

type refPage struct {
	class             Class
	used              uint64
	owned, registered bool
}

func (pg *refPage) freeSlots() uint64 {
	return slotsPerPage[pg.class] - uint64(bits.OnesCount64(pg.used))
}

func (r *refPool) getPage(c Class) Addr {
	var registered []Addr
	for a, pg := range r.pages {
		if pg.registered && pg.class == c {
			registered = append(registered, a)
		}
	}
	sort.Slice(registered, func(i, j int) bool { return registered[i] < registered[j] })
	for _, a := range registered {
		pg := r.pages[a]
		pg.registered = false
		if free := pg.freeSlots(); !pg.owned && free > 0 && free >= slotsPerPage[c]/4 {
			pg.owned = true
			return a
		}
	}
	a := r.carve
	if n := len(r.free); n > 0 {
		a, r.free = r.free[n-1], r.free[:n-1]
	} else {
		r.carve += PageSize
	}
	r.pages[a] = &refPage{class: c, owned: true}
	return a
}

func (r *refPool) release(a Addr) {
	pg := r.pages[a]
	pg.owned = false
	switch {
	case pg.used == 0:
		pg.registered = false
		r.free = append(r.free, a)
	case pg.freeSlots() > 0:
		pg.registered = true
	}
}

func (r *refPool) alloc(ctx int, c Class) Addr {
	for {
		if a := r.cur[ctx][c]; a != 0 {
			if pg := r.pages[a]; pg.freeSlots() > 0 {
				slot := uint64(bits.TrailingZeros64(^pg.used))
				pg.used |= 1 << slot
				return a + SlotAlign + Addr(slot)*c.Size()
			}
			r.release(a)
		}
		r.cur[ctx][c] = r.getPage(c)
	}
}

func (r *refPool) freeSlot(obj Addr) {
	a := PageOf(obj)
	pg := r.pages[a]
	pg.used &^= 1 << slotOf(a, obj, pg.class)
	if !pg.owned {
		r.release(a)
	}
}

func (r *refPool) adopt(ctx int, a Addr) {
	pg := r.pages[a]
	free := pg.freeSlots()
	if r.cur[ctx][pg.class] == a || pg.owned || pg.used == 0 || free == 0 || free < slotsPerPage[pg.class]/4 {
		return
	}
	pg.owned = true
	old := r.cur[ctx][pg.class]
	r.cur[ctx][pg.class] = a
	if old != 0 {
		r.release(old)
	}
}

// TestPagePlacementFollowsPolicy pins which page every allocation lands on:
// a seeded script of allocations, frees (single ones, which leave pages thin,
// and whole pages at once, which empty them) and adoptions by two contexts
// taking turns must place every object where the stated policy places it.
func TestPagePlacementFollowsPolicy(t *testing.T) {
	p := newPool(t, 1<<23)
	ctxs := [2]*Ctx{p.NewCtx(p.Device().NewFlusher()), p.NewCtx(p.Device().NewFlusher())}
	ref := &refPool{pages: map[Addr]*refPage{}, carve: heapBase}
	var classes [3]Class
	for i, size := range [3]uint64{64, 256, 1024} {
		classes[i] = classOf(t, size)
	}
	rng := rand.New(rand.NewSource(22))
	var live []Addr
	drop := func(i int) Addr {
		obj := live[i]
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
		return obj
	}
	switches := 0
	for step := 0; step < 20000; step++ {
		who := step % 2
		allocs := 62 // percent of steps: the live set grows for 2 500 steps ...
		if step/2500%2 == 1 {
			allocs = 36 // ... and shrinks for the next 2 500
		}
		switch op := rng.Intn(100); {
		case op < allocs || len(live) == 0:
			c := classes[rng.Intn(len(classes))]
			before := ctxs[who].CurrentPages()[c]
			got, err := ctxs[who].Alloc(c)
			if err != nil {
				t.Fatal(err)
			}
			if want := ref.alloc(who, c); got != want {
				t.Fatalf("step %d: context %d class %d allocated %#x, the policy places it at %#x", step, who, c, got, want)
			}
			if PageOf(got) != before {
				switches++
			}
			live = append(live, got)
		case op < 88:
			obj := drop(rng.Intn(len(live)))
			ctxs[who].Free(obj)
			ref.freeSlot(obj)
		case op < 94: // every object of one page
			page := PageOf(live[rng.Intn(len(live))])
			for i := 0; i < len(live); {
				if PageOf(live[i]) != page {
					i++
					continue
				}
				obj := drop(i)
				ctxs[who].Free(obj)
				ref.freeSlot(obj)
			}
		default:
			page := PageOf(live[rng.Intn(len(live))])
			ctxs[who].Adopt(page)
			ref.adopt(who, page)
		}
	}
	st := p.Stats()
	if st.AcqPartial < 100 || st.AcqFree < 100 || st.AcqCarve < 20 {
		t.Fatalf("the script took %d partial, %d free and %d carved pages: it must exercise all three sources", st.AcqPartial, st.AcqFree, st.AcqCarve)
	}
	if got := st.AcqPartial + st.AcqFree + st.AcqCarve; uint64(switches) != got {
		t.Fatalf("observed %d page switches, the pool counted %d acquisitions", switches, got)
	}
}

// TestConcurrentOwnershipIsExclusive: eight contexts allocate and free (their
// own objects and each other's) for a while; no slot may be handed out twice
// — Commit's "prepared slot stolen" panic is the detector — and afterwards no
// page may be the current page of two contexts.
func TestConcurrentOwnershipIsExclusive(t *testing.T) {
	p := Format(nvram.New(nvram.Config{Size: 1 << 25}))
	const workers = 8
	var ctxs [workers]*Ctx
	handoff := make(chan Addr, 4096) // wide enough that most frees are remote
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := range ctxs {
		ctxs[w] = p.NewCtx(p.Device().NewFlusher())
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := ctxs[w]
			rng := rand.New(rand.NewSource(int64(w)))
			for !stop.Load() {
				if rng.Intn(2) == 0 {
					obj, err := ctx.Alloc(Class(rng.Intn(3)))
					if err != nil {
						t.Error(err)
						return
					}
					select {
					case handoff <- obj:
					default:
						ctx.Free(obj)
					}
					continue
				}
				select {
				case obj := <-handoff:
					ctx.Free(obj)
					if rng.Intn(8) == 0 {
						ctx.Adopt(PageOf(obj))
					}
				default:
				}
			}
		}(w)
	}
	time.Sleep(200 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	owner := map[Addr]int{}
	for w, ctx := range ctxs {
		for _, page := range ctx.CurrentPages() {
			if page == 0 {
				continue
			}
			if first, taken := owner[page]; taken {
				t.Fatalf("page %#x is the current page of contexts %d and %d", page, first, w)
			}
			owner[page] = w
		}
	}
	if got := p.AvailableBytes(); got > p.SizeBytes() {
		t.Fatalf("AvailableBytes %d exceeds the pool's %d", got, p.SizeBytes())
	}
}
