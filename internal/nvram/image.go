package nvram

import (
	"os"
	"unsafe"
)

// hugePageSize is the transparent-huge-page size the images are aligned and
// advised to (2 MiB on amd64 and on arm64 with 4 KiB base pages).
const hugePageSize = 2 << 20

// hugeAdvice accumulates what the kernel answered when images were offered
// as transparent-huge-page candidates: the bytes it accepted the advice for
// and its first refusal.
type hugeAdvice struct {
	bytes uint64
	err   error
}

// note records the answer to advice on n bytes. A nil a drops it.
func (a *hugeAdvice) note(n uint64, err error) {
	switch {
	case a == nil:
	case err == nil:
		a.bytes += n
	case a.err == nil:
		a.err = err
	}
}

// asBytes views an image as the bytes it occupies.
func asBytes[T uint32 | uint64](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), uintptr(len(s))*unsafe.Sizeof(s[0]))
}

// populateRange makes elements [from, to) of an image resident (see
// populate), widened to whole base pages.
func populateRange[T uint32 | uint64](s []T, from, to uint64) error {
	b := asBytes(s)
	size := uint64(unsafe.Sizeof(*new(T)))
	page := uint64(os.Getpagesize())
	lo := (from * size) &^ (page - 1)
	hi := min(to*size, uint64(len(b)))
	if lo >= hi {
		return nil
	}
	return populate(b[lo:hi])
}
