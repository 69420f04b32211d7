//go:build unix && !race

package nvram

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// imagesMapped reports that images are anonymous mappings, not heap slices.
const imagesMapped = true

// mappings holds the anonymous mappings behind the images of one device or
// MemBackend. It points at nothing on the Go heap, so it never sits in a
// cycle (a Device and its Flushers point at each other) and its finalizer
// runs once the owner is dropped without Close.
type mappings struct {
	maps  [2][]byte     // whole mappings, as syscall.Mmap returned them
	errno syscall.Errno // why a mapping failed, if one did
}

// err reports a mapping that failed: the kernel ran out of address space or
// of mappings. The images are unusable then.
func (m *mappings) err() error {
	if m.errno != 0 {
		return fmt.Errorf("nvram: cannot map a device image: %w", m.errno)
	}
	return nil
}

func newMappings() *mappings {
	m := new(mappings)
	runtime.SetFinalizer(m, (*mappings).release)
	return m
}

// release unmaps every image. Idempotent; the images must not be used
// afterwards.
func (m *mappings) release() {
	for i, b := range m.maps {
		if b != nil {
			_ = syscall.Munmap(b) // fails only for a range that was never mapped
			m.maps[i] = nil
		}
	}
}

// newImage returns n zero elements of T in a private anonymous mapping of
// their own, recorded in m (nil, with m.err set, if the kernel refused the
// mapping). Nothing is resident until touched or populated. An image of at
// least one huge page starts on a huge-page boundary, spans whole huge pages
// and is offered to the kernel as a transparent-huge-page candidate, with
// the answer noted on a: the images are arrays a lookup enters at random,
// every load a TLB miss on 4 KiB pages.
func newImage[T uint32 | uint64](m *mappings, n uint64, a *hugeAdvice) []T {
	if n == 0 {
		return nil
	}
	page := uint64(os.Getpagesize())
	size := (n*uint64(unsafe.Sizeof(*new(T))) + page - 1) &^ (page - 1)
	var slack uint64
	huge := size >= hugePageSize
	if huge {
		size = (size + hugePageSize - 1) &^ (hugePageSize - 1)
		slack = hugePageSize - page // room to slide the start onto a boundary
	}
	mapping, err := syscall.Mmap(-1, 0, int(size+slack), syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|mapNoReserve)
	if err != nil {
		if m.errno == 0 {
			m.errno, _ = err.(syscall.Errno)
		}
		return nil
	}
	for i := range m.maps {
		if m.maps[i] == nil {
			m.maps[i] = mapping
			break
		}
	}
	var off uint64
	if huge {
		off = -uint64(uintptr(unsafe.Pointer(unsafe.SliceData(mapping)))) & (hugePageSize - 1)
		a.note(size, madviseHuge(mapping[off:off+size]))
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mapping[off])), n)
}

// populate makes b resident without changing a byte (MADV_POPULATE_WRITE
// where the kernel has it), so no later store into b takes a first-touch
// fault.
func populate(b []byte) error { return madvisePopulate(b) }
