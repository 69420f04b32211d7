//go:build !linux

package nvram

import "errors"

// madviseHuge has nothing to ask outside linux: transparent huge pages by
// madvise are a linux interface (darwin's superpages are a mapping flag, and
// the images are Go slices, not mappings this package owns).
func madviseHuge([]byte) error { return errors.ErrUnsupported }
