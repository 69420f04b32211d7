//go:build !unix || race

package nvram

import "errors"

// imagesMapped reports that images are anonymous mappings, not heap slices.
const imagesMapped = false

// mappings is empty where the images stay on the Go heap. Race-detector
// builds keep them there because the detector skips every address outside
// it: mapped images would leave device memory unchecked. Platforms without
// mmap keep them there too. Such images are neither huge-page advised nor
// populated, and the garbage collector releases them.
type mappings struct{}

func newMappings() *mappings { return new(mappings) }

func (*mappings) release() {}

func (*mappings) err() error { return nil }

func newImage[T uint32 | uint64](_ *mappings, n uint64, _ *hugeAdvice) []T {
	return make([]T, n)
}

func populate([]byte) error { return errors.ErrUnsupported }
