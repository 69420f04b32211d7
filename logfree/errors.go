package logfree

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/pmem"
)

// Sentinel errors. Every error returned by a Runtime or a structure matches
// one of these through errors.Is: core-layer causes are wrapped with %w, so
// callers never import internal packages to classify failures.
var (
	// ErrFull reports device exhaustion: the simulated NVRAM has no page
	// left for the allocation. Callers implementing caches may evict and
	// retry (see AvailableBytes).
	ErrFull = errors.New("logfree: device full")
	// ErrKindMismatch reports an open of an existing name under a different
	// structure kind.
	ErrKindMismatch = errors.New("logfree: structure has a different kind")
	// ErrClosed reports an operation on a closed Runtime (Close was called,
	// or the runtime was invalidated by SimulateCrash). Methods without an
	// error result panic with an ErrClosed-wrapping error instead.
	ErrClosed = errors.New("logfree: runtime is closed")
	// ErrNotKeyed reports OpenOrCreate on a kind with no byte-key view (the
	// uint64 sets, queues and stacks); use the typed Runtime methods.
	ErrNotKeyed = errors.New("logfree: kind has no map abstraction")
)

// Re-exported core sentinels (returned as-is).
var (
	// ErrTooLarge reports a byte-map entry exceeding the largest slab class.
	ErrTooLarge = core.ErrTooLarge
	// ErrBadKey reports an empty or oversized byte key.
	ErrBadKey = core.ErrBadKey
	// ErrLayoutVersion reports a durable image formatted under another
	// layout version than this build's; the image is left as it is.
	ErrLayoutVersion = pmem.ErrLayoutVersion
)

// wrapErr maps core-layer errors onto the public taxonomy, preserving the
// cause chain (%w on both, so errors.Is matches ErrFull and the cause).
func wrapErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, pmem.ErrOutOfMemory) && !errors.Is(err, ErrFull) {
		return fmt.Errorf("%w: %w", ErrFull, err)
	}
	return err
}
