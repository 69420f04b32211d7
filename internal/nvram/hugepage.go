package nvram

import "unsafe"

// hugePageSize is the transparent-huge-page size the advice is aligned to
// (2 MiB on amd64 and on arm64 with 4 KiB base pages).
const hugePageSize = 2 << 20

// hugeInterior returns the largest hugePageSize-aligned range inside
// [addr, addr+n): the part of an allocation the kernel can back with whole
// huge pages. n is 0 when no whole aligned huge page fits.
func hugeInterior(addr, n uintptr) (start, length uintptr) {
	start = (addr + hugePageSize - 1) &^ (hugePageSize - 1)
	end := (addr + n) &^ (hugePageSize - 1)
	if end <= start {
		return start, 0
	}
	return start, end - start
}

// adviseHuge offers the huge-page-aligned interior of s to the kernel as a
// transparent-huge-page candidate and returns how many bytes it offered
// (0 with a nil error when s holds no whole aligned huge page). Best
// effort: s stays an ordinary Go slice whatever the answer. The device's
// images are arrays a lookup enters at random — every load a TLB miss on
// 4 KiB pages — which is what the larger pages are for.
func adviseHuge[T uint32 | uint64](s []T) (uint64, error) {
	if len(s) == 0 {
		return 0, nil
	}
	p := unsafe.Pointer(unsafe.SliceData(s))
	start, n := hugeInterior(uintptr(p), uintptr(len(s))*unsafe.Sizeof(s[0]))
	if n == 0 {
		return 0, nil
	}
	if err := madviseHuge(unsafe.Slice((*byte)(unsafe.Add(p, start-uintptr(p))), n)); err != nil {
		return 0, err
	}
	return uint64(n), nil
}
