//go:build linux

package nvram

import "syscall"

// madviseHuge marks a hugePageSize-aligned range as a transparent-huge-page
// candidate. With THP "always" or "madvise" the kernel backs the range's
// first touches with 2 MiB pages where it has them; with "never" the call
// succeeds and changes nothing; a kernel built without THP answers EINVAL.
func madviseHuge(b []byte) error {
	return syscall.Madvise(b, syscall.MADV_HUGEPAGE)
}
