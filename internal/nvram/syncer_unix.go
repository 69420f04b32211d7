//go:build unix

package nvram

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// fileSyncer is FileBackend's background durability pipeline. Fences hand it
// the lines they just wrote back and return; the syncer goroutine coalesces
// the pages those lines dirtied — across fences — into merged runs and
// issues the ranged msync (plus the fdatasync of the strict and buffered
// modes) off the fence hot path. A strict fence blocks on the durable
// watermark instead of issuing its own fdatasync, so N fences racing through
// the syncer share one group commit; eager and buffered fences never block.
//
// Tickets: every enqueue bumps seq; the syncer swaps the whole accumulated
// page set out under the lock together with the seq it covers, flushes, and
// advances durable to that seq. durable >= t therefore means every line
// enqueued by ticket t has been msynced (and fdatasynced when the mode asks
// for stable storage).
type fileSyncer struct {
	fb *FileBackend

	mu      sync.Mutex
	cond    *sync.Cond          // broadcast when durable advances or on exit
	pages   map[uint64]struct{} // dirty page offsets awaiting flush
	spare   map[uint64]struct{} // cleared map recycled between swaps
	seq     uint64              // ticket of the newest enqueue
	durable uint64              // newest ticket fully flushed
	policy  SyncPolicy
	urgent  bool // a drain barrier wants the next flush now, not at the tick
	closing bool // flush what remains, then exit (Close)
	discard bool // drop what remains, then exit (Abandon = kill -9)

	flushes    uint64 // flush rounds completed
	fdatasyncs uint64 // flush rounds that ended in an fdatasync

	buf      []uint64      // page-sort scratch, reused across flushes
	wake     chan struct{} // nudges an idle syncer (capacity 1)
	urgentCh chan struct{} // interrupts a staleness sleep for a drain (capacity 1)
	stop     chan struct{} // closed on Close/Abandon: interrupts staleness sleeps
	done     chan struct{} // closed when the goroutine has exited
}

func newFileSyncer(fb *FileBackend, p SyncPolicy) *fileSyncer {
	s := &fileSyncer{
		fb:       fb,
		pages:    make(map[uint64]struct{}),
		policy:   p,
		wake:     make(chan struct{}, 1),
		urgentCh: make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	go s.run()
	return s
}

// setPolicy swaps the durability policy. Callers switch policies only
// before serving operations (fences may be concurrent with each other, not
// with a policy change).
func (s *fileSyncer) setPolicy(p SyncPolicy) {
	s.mu.Lock()
	s.policy = p
	s.mu.Unlock()
	s.kick()
}

func (s *fileSyncer) getPolicy() SyncPolicy {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.policy
}

func (s *fileSyncer) stats() SyncStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SyncStats{Tickets: s.seq, Flushes: s.flushes, Fdatasyncs: s.fdatasyncs}
}

// kick nudges an idle syncer; a kick while it is busy is retained (capacity
// 1) and absorbed by the spurious-wakeup recheck at the top of run's loop.
func (s *fileSyncer) kick() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// enqueue registers the pages covering the just-written-back lines as dirty
// and, in strict mode, blocks until the syncer's durable watermark covers
// this fence's ticket.
func (s *fileSyncer) enqueue(lines []uint64) {
	ps := s.fb.pageSz
	mlen := uint64(len(s.fb.mapping))
	s.mu.Lock()
	for _, l := range lines {
		lo := (fileHeaderSize + l*LineSize) &^ (ps - 1)
		hi := fileHeaderSize + (l+1)*LineSize
		for p := lo; p < hi && p < mlen; p += ps {
			s.pages[p] = struct{}{}
		}
	}
	s.seq++
	ticket := s.seq
	strict := s.policy.Mode == SyncStrict
	s.mu.Unlock()
	s.kick()
	if !strict {
		return
	}
	s.mu.Lock()
	for s.durable < ticket && !s.discard {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// drain blocks until everything enqueued so far has been flushed per the
// current policy (buffered flushes are pulled forward rather than waiting
// out the staleness window). The capacity-grow barrier and tests use it; it
// is not on any fence path.
func (s *fileSyncer) drain() {
	s.mu.Lock()
	target := s.seq
	s.urgent = true
	s.mu.Unlock()
	s.kick() // wakes an idle syncer ...
	select { // ... and this interrupts one already in its staleness sleep
	case s.urgentCh <- struct{}{}:
	default:
	}
	s.mu.Lock()
	for s.durable < target && !s.discard {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// close makes the syncer flush whatever is still queued and exit, then
// joins it. The mapping must stay valid until close returns: a munmap under
// a mid-flight msync would fault.
func (s *fileSyncer) close() {
	s.mu.Lock()
	if !s.closing && !s.discard {
		s.closing = true
		close(s.stop)
	}
	s.mu.Unlock()
	s.kick()
	<-s.done
}

// abandon makes the syncer DROP whatever is still queued and exit, then
// joins it — the kill -9 simulation: an abrupt death grants no flush. The
// join still matters (see close): Abandon munmaps right after.
func (s *fileSyncer) abandon() {
	s.mu.Lock()
	if !s.closing && !s.discard {
		close(s.stop)
	}
	s.discard = true
	s.cond.Broadcast() // release strict waiters; their data is forfeit anyway
	s.mu.Unlock()
	s.kick()
	<-s.done
}

func (s *fileSyncer) run() {
	defer close(s.done)
	s.mu.Lock()
	for {
		for len(s.pages) == 0 && !s.closing && !s.discard {
			s.mu.Unlock()
			<-s.wake
			s.mu.Lock()
		}
		if s.discard || (s.closing && len(s.pages) == 0) {
			// Nothing will ever flush past this point; release any waiter.
			s.durable = s.seq
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		if s.policy.Mode == SyncBuffered && !s.closing && !s.urgent {
			// Let the window fill so one flush covers everything it
			// accumulates. The stop channel cuts the wait short at Close; a
			// drain barrier skips it via urgent (checked above) or, if it
			// arrives once the sleep has begun, via urgentCh. Clearing a
			// stale token while still holding the lock cannot race a live
			// drain: a drain that ran before our lock acquisition already
			// set s.urgent (we would not be here), and one that runs after
			// sends its token after this clear.
			select {
			case <-s.urgentCh:
			default:
			}
			wait := s.policy.staleness()
			s.mu.Unlock()
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-s.stop:
			case <-s.urgentCh:
			}
			t.Stop()
			s.mu.Lock()
			if s.discard {
				continue
			}
		}
		batch := s.pages
		if s.pages = s.spare; s.pages == nil {
			s.pages = make(map[uint64]struct{}, len(batch))
		}
		s.spare = nil
		target := s.seq
		s.urgent = false
		fsync := s.policy.Mode != SyncEager // strict and buffered reach stable storage
		s.mu.Unlock()

		s.flush(batch, fsync)
		clear(batch)

		s.mu.Lock()
		s.spare = batch
		s.flushes++
		if fsync {
			s.fdatasyncs++
		}
		if target > s.durable {
			s.durable = target
			s.cond.Broadcast()
		}
	}
}

// flush msyncs the batch's pages as merged runs, plus one fdatasync when the
// flush must reach stable storage. Sync failures are fatal, exactly as they
// were on the old inline path: a backend that silently drops acknowledged
// durability would corrupt every recovery guarantee built on top of it.
func (s *fileSyncer) flush(batch map[uint64]struct{}, fsync bool) {
	if len(batch) > 0 {
		pages := s.buf[:0]
		for p := range batch {
			pages = append(pages, p)
		}
		s.buf = pages
		slices.Sort(pages)
		ps := s.fb.pageSz
		mlen := uint64(len(s.fb.mapping))
		start, end := pages[0], pages[0]+ps
		emit := func() {
			if end > mlen {
				end = mlen
			}
			if err := msyncRange(s.fb.mapping[start:end:end], false); err != nil {
				panic(fmt.Sprintf("nvram: msync %s: %v", s.fb.path, err))
			}
		}
		for _, p := range pages[1:] {
			if p <= end {
				if p+ps > end {
					end = p + ps
				}
			} else {
				emit()
				start, end = p, p+ps
			}
		}
		emit()
	}
	if fsync {
		if err := fdatasyncFile(s.fb.f); err != nil {
			panic(fmt.Sprintf("nvram: fdatasync %s: %v", s.fb.path, err))
		}
	}
}
