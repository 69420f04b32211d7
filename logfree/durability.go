// Durability policy and device specification. A runtime is configured by
// naming WHERE the persisted image lives (DeviceSpec, one value) and WHAT an
// acknowledged operation means (Durability, one value); every
// backend-specific behaviour — fence syscalls, link-cache legality, flush
// timers — falls out of that pair instead of being toggled per flag.

package logfree

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/nvram"
)

// DeviceKind enumerates the persistence substrates a DeviceSpec can name.
type DeviceKind uint8

// Device kinds. The zero value is the in-process simulator.
const (
	// DeviceMem is the in-process simulated NVRAM (the default): fastest,
	// survives nothing but SimulateCrash/SaveImage.
	DeviceMem DeviceKind = iota
	// DeviceFile is an mmap'd backing file: write-backs land in the page
	// cache (kill -9 safe); machine-crash durability is governed by the
	// Durability policy via the background msync pipeline.
	DeviceFile
	// DeviceDAX is a direct-access pmem mapping (a /dev/dax device or a
	// file on an fsdax filesystem): fences persist lines with CLWB+SFENCE,
	// no syscalls. Over a regular file it degrades to a shared mapping
	// (still kill -9 safe) — see nvram.DAXBackend.
	DeviceDAX
	// DeviceBackend is a caller-constructed nvram.Backend.
	DeviceBackend
)

func (k DeviceKind) String() string {
	switch k {
	case DeviceMem:
		return "mem"
	case DeviceFile:
		return "file"
	case DeviceDAX:
		return "dax"
	case DeviceBackend:
		return "backend"
	}
	return "unknown"
}

// DeviceSpec names the persistence substrate of a runtime. Build one with
// MemDevice, FileDevice, DAXDevice or BackendDevice and pass it to
// WithDevice. The zero value is MemDevice().
type DeviceSpec struct {
	// Kind selects the substrate.
	Kind DeviceKind
	// Path is the backing file or DAX device path (file and dax kinds).
	Path string
	// Backend is the caller-constructed backend (backend kind).
	Backend nvram.Backend
}

// MemDevice specifies the in-process simulated NVRAM (the default).
func MemDevice() DeviceSpec { return DeviceSpec{Kind: DeviceMem} }

// FileDevice specifies an mmap'd backing file at path. An empty path means
// MemDevice (so conditional wiring composes).
func FileDevice(path string) DeviceSpec {
	if path == "" {
		return MemDevice()
	}
	return DeviceSpec{Kind: DeviceFile, Path: path}
}

// DAXDevice specifies a direct-access pmem mapping at path (a /dev/dax
// device, an fsdax file, or — degraded but functional — any regular file).
// An empty path means MemDevice.
func DAXDevice(path string) DeviceSpec {
	if path == "" {
		return MemDevice()
	}
	return DeviceSpec{Kind: DeviceDAX, Path: path}
}

// BackendDevice specifies a caller-constructed persistence backend. A nil
// backend means MemDevice.
func BackendDevice(b nvram.Backend) DeviceSpec {
	if b == nil {
		return MemDevice()
	}
	return DeviceSpec{Kind: DeviceBackend, Backend: b}
}

// durMode is the internal Durability discriminant. The zero value is the
// default policy (Synced).
type durMode uint8

const (
	durSynced durMode = iota
	durStrict
	durBuffered
)

// Durability is the policy for what an acknowledged operation means. Build
// one with Strict, Synced or Buffered and pass it to WithDurability. The
// zero value is Synced().
//
// What each policy guarantees, by device kind:
//
//	           process crash (kill -9)   machine crash (power loss)
//	Strict     survives                  survives (fence waits on fdatasync)
//	Synced     survives                  best effort (async msync, no wait)
//	Buffered   survives minus <=MaxStaleness of acked ops, both cases
//
// On DeviceMem nothing survives process death regardless (use SaveImage);
// on DeviceDAX with a real MAP_SYNC mapping, Strict and Synced are
// identical — CLWB+SFENCE at the fence IS full machine-crash durability,
// with no syscall to wait for.
//
// Buffered additionally unlocks the paper's link cache on durable devices:
// publishing links may sit in the volatile cache, flushed by a background
// timer every MaxStaleness, trading a bounded window of acked operations
// for mem-like fence cost.
type Durability struct {
	mode         durMode
	maxStaleness time.Duration
}

// Strict acknowledges an operation only once it is machine-crash durable:
// every linearizing fence waits for the durability pipeline's watermark
// (file: group-committed fdatasync; DAX: nothing to wait for).
func Strict() Durability { return Durability{mode: durStrict} }

// Synced is the default policy: fences hand dirty ranges to the background
// syncer and return. Acked operations always survive process death on
// durable devices; a machine crash may lose the not-yet-synced tail.
func Synced() Durability { return Durability{mode: durSynced} }

// Buffered bounds staleness instead of eliminating it: durability work
// (msync/fdatasync batches, link-cache flushes) runs on a timer every
// maxStaleness, so a crash of either kind loses at most that window of
// acknowledged operations. maxStaleness <= 0 means the default
// (nvram.DefaultMaxStaleness, 100ms).
func Buffered(maxStaleness time.Duration) Durability {
	return Durability{mode: durBuffered, maxStaleness: maxStaleness}
}

// IsStrict reports whether this is the Strict policy.
func (d Durability) IsStrict() bool { return d.mode == durStrict }

// IsBuffered reports whether this is a Buffered policy.
func (d Durability) IsBuffered() bool { return d.mode == durBuffered }

// MaxStaleness returns the buffered staleness bound (the default when the
// policy was built with <= 0), or 0 for non-buffered policies.
func (d Durability) MaxStaleness() time.Duration {
	if d.mode != durBuffered {
		return 0
	}
	if d.maxStaleness <= 0 {
		return nvram.DefaultMaxStaleness
	}
	return d.maxStaleness
}

func (d Durability) String() string {
	switch d.mode {
	case durStrict:
		return "strict"
	case durBuffered:
		return fmt.Sprintf("buffered:%v", d.MaxStaleness())
	}
	return "synced"
}

// ParseDurability parses a policy from its flag form: "strict", "synced",
// or "buffered[:duration]" (e.g. "buffered:250ms").
func ParseDurability(s string) (Durability, error) {
	switch {
	case s == "strict":
		return Strict(), nil
	case s == "" || s == "synced":
		return Synced(), nil
	case s == "buffered":
		return Buffered(0), nil
	case strings.HasPrefix(s, "buffered:"):
		d, err := time.ParseDuration(strings.TrimPrefix(s, "buffered:"))
		if err != nil || d <= 0 {
			return Durability{}, fmt.Errorf("logfree: bad buffered staleness in %q", s)
		}
		return Buffered(d), nil
	}
	return Durability{}, fmt.Errorf("logfree: unknown durability %q (want strict, synced, or buffered[:duration])", s)
}

// syncPolicy maps the policy onto the nvram file-syncer modes.
func (d Durability) syncPolicy() nvram.SyncPolicy {
	switch d.mode {
	case durStrict:
		return nvram.SyncPolicy{Mode: nvram.SyncStrict}
	case durBuffered:
		return nvram.SyncPolicy{Mode: nvram.SyncBuffered, MaxStaleness: d.MaxStaleness()}
	}
	return nvram.SyncPolicy{Mode: nvram.SyncEager}
}

// syncPolicySetter is the optional backend surface the policy is threaded
// through (FileBackend; caller backends may implement it too).
type syncPolicySetter interface{ SetSyncPolicy(nvram.SyncPolicy) }
