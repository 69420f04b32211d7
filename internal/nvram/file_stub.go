//go:build !unix

package nvram

import "errors"

// ErrFileBackendUnsupported is returned on platforms without shared file
// mappings (no mmap in the standard syscall package).
var ErrFileBackendUnsupported = errors.New("nvram: file-backed devices require a unix platform")

// FileBackend is unavailable on this platform; OpenFileBackend always
// fails. The type exists so cross-platform callers compile.
type FileBackend struct{}

// OpenFileBackend fails: no shared file mappings on this platform.
func OpenFileBackend(string, uint64, uint64) (*FileBackend, bool, error) {
	return nil, false, ErrFileBackendUnsupported
}

// Name identifies the backend kind.
func (fb *FileBackend) Name() string { return "file" }

// Path returns the backing file path.
func (fb *FileBackend) Path() string { return "" }

// Words returns no image on this platform.
func (fb *FileBackend) Words() []uint64 { return nil }

// Committed returns 0 on this platform.
func (fb *FileBackend) Committed() uint64 { return 0 }

// GrowTo fails: no shared file mappings on this platform.
func (fb *FileBackend) GrowTo(uint64) error { return ErrFileBackendUnsupported }

// NeedsSync reports false on this platform.
func (fb *FileBackend) NeedsSync() bool { return false }

// SetSyncPolicy is a no-op on this platform.
func (fb *FileBackend) SetSyncPolicy(SyncPolicy) {}

// Policy returns the zero policy on this platform.
func (fb *FileBackend) Policy() SyncPolicy { return SyncPolicy{} }

// Drain is a no-op on this platform.
func (fb *FileBackend) Drain() {}

// SyncStats returns zero counters on this platform.
func (fb *FileBackend) SyncStats() SyncStats { return SyncStats{} }

// SyncLines is a no-op on this platform.
func (fb *FileBackend) SyncLines([]uint64) {}

// Abandon is a no-op on this platform.
func (fb *FileBackend) Abandon() error { return nil }

// Close is a no-op on this platform.
func (fb *FileBackend) Close() error { return nil }

// OpenFileDevice fails: no shared file mappings on this platform.
func OpenFileDevice(string, Config) (*Device, bool, error) {
	return nil, false, ErrFileBackendUnsupported
}
