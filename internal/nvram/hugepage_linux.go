//go:build linux

package nvram

import "syscall"

// mapNoReserve keeps an image's address space out of the kernel's commit
// accounting: a device reserves its full growth headroom up front and
// commits memory only where it is touched.
const mapNoReserve = syscall.MAP_NORESERVE

// madvPopulateWrite is MADV_POPULATE_WRITE (linux 5.14), which the syscall
// package does not name.
const madvPopulateWrite = 23

// madviseHuge marks a hugePageSize-aligned range as a transparent-huge-page
// candidate. With THP "always" or "madvise" the kernel backs the range's
// first touches with 2 MiB pages where it has them; with "never" the call
// succeeds and changes nothing; a kernel built without THP answers EINVAL.
func madviseHuge(b []byte) error {
	return syscall.Madvise(b, syscall.MADV_HUGEPAGE)
}

// madvisePopulate write-faults every page of b as a store would, leaving
// its contents as they are. A kernel older than 5.14 answers EINVAL.
func madvisePopulate(b []byte) error {
	return syscall.Madvise(b, madvPopulateWrite)
}
