//go:build !linux

package nvram

import "errors"

const mapNoReserve = 0

// madviseHuge has nothing to ask outside linux: transparent huge pages by
// madvise are a linux interface (darwin's superpages are a mapping flag).
func madviseHuge([]byte) error { return errors.ErrUnsupported }

// madvisePopulate has no counterpart outside linux either: pages fault in
// on first touch.
func madvisePopulate([]byte) error { return errors.ErrUnsupported }
