//go:build unix

package nvram

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// FileBackend is the file-backed persistence backend: the persisted image
// lives in a shared mmap of a regular file, so every write-back lands in the
// OS page cache of that file and survives the death of the process — kill -9
// included — with no image save step. Recovery is opening the same file
// again and running the normal attach path over the mapped image.
//
// Durability model:
//
//   - Process crash (panic, kill -9, OOM kill): safe by construction. The
//     kernel owns the mapped pages; they reach the file regardless of how
//     the process died.
//   - Machine crash (power loss, kernel panic): governed by the SyncPolicy
//     of the background syncer (see SyncMode). The default eager mode starts
//     kernel writeback promptly; SyncStrict blocks each fence on a
//     group-committed fdatasync — the honest storage-hardware cost,
//     typically 10-100× the simulated NVRAM latency — and SyncBuffered
//     bounds the exposure window at MaxStaleness.
//
// Fences never msync inline: SyncLines enqueues the dirty pages with the
// backend's syncer goroutine, which coalesces ranges across fences into
// page-merged msync calls off the hot path (fileSyncer).
//
// The file starts with one 4KB header page (magic, version, size, line and
// word geometry) that OpenFileBackend validates before mapping; the image
// proper follows at fileHeaderSize.
type FileBackend struct {
	f       *os.File
	mapping []byte
	words   []uint64
	pageSz  uint64
	syncer  *fileSyncer
	path    string

	// committed is the live image capacity in bytes; reserve is the mapped
	// headroom GrowTo can extend into (the mapping covers the reserve even
	// beyond the file's EOF — pages past EOF are never touched until a
	// GrowTo has extended the file over them). committed is atomic because
	// fences read it concurrently with (rare, externally serialized) grows.
	committed atomic.Uint64
	reserve   uint64
}

const (
	// fileHeaderSize is the reserved header region before the image.
	fileHeaderSize = 4096
	// fileMagic identifies a pmem backing file ("NVFBCK01").
	fileMagic = uint64(0x31304B4342465648)
	// fileVersion is the current backing-file layout version.
	fileVersion = 1

	fhMagicOff   = 0
	fhVersionOff = 8
	fhSizeOff    = 16
	fhLineOff    = 24
	fhWordOff    = 32
)

// OpenFileBackend opens path as a file-backed persistence backend, creating
// and formatting it when it does not exist (or is empty — a fresh mktemp
// file counts as absent). size is the device capacity in bytes for the
// create case, rounded up to a full cache line; when opening an existing
// file, size 0 adopts the file's formatted capacity and any other value
// must match it exactly. The second result reports whether the file was
// created (true) or an existing image was opened (false).
//
// maxSize, when non-zero, reserves growth headroom: the mapping covers
// maxSize bytes so GrowTo can extend the live image online, and opening an
// existing file ADOPTS its formatted capacity (an elastic pool's committed
// size is whatever its last durable grow reached, not what a flag says)
// instead of enforcing a size match.
func OpenFileBackend(path string, size, maxSize uint64) (fb *FileBackend, created bool, err error) {
	f, devSize, reserve, created, err := openBackingFile(path, size, maxSize)
	if err != nil {
		return nil, false, err
	}
	mapping, err := syscall.Mmap(int(f.Fd()), 0, int(fileHeaderSize+reserve),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		f.Close()
		return nil, false, fmt.Errorf("nvram: mmap pmem file: %w", err)
	}
	fb = &FileBackend{
		f:       f,
		mapping: mapping,
		words:   unsafe.Slice((*uint64)(unsafe.Pointer(&mapping[fileHeaderSize])), reserve/WordSize),
		pageSz:  uint64(os.Getpagesize()),
		path:    path,
		reserve: reserve,
	}
	fb.committed.Store(devSize)
	fb.syncer = newFileSyncer(fb, SyncPolicy{Mode: SyncEager})
	return fb, created, nil
}

// openBackingFile opens-or-creates the shared backing-file format (one 4KB
// header page + the image) that both the file and DAX backends use: lock,
// create-and-format or validate, and compute the mapped reserve. The two
// backends differ only in how they map the file and flush lines, so an
// image formatted by one opens under the other.
func openBackingFile(path string, size, maxSize uint64) (f *os.File, devSize, reserve uint64, created bool, err error) {
	f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, 0, false, fmt.Errorf("nvram: open pmem file: %w", err)
	}
	// Close the captured local, not the named return: error returns below
	// write nil into f before the defer runs, and a leaked fd keeps the
	// flock held until some later GC finalizes it.
	opened := f
	defer func() {
		if err != nil {
			opened.Close()
		}
	}()
	if err = lockFile(f, path); err != nil {
		return nil, 0, 0, false, err
	}
	st, err := f.Stat()
	if err != nil {
		return nil, 0, 0, false, fmt.Errorf("nvram: stat pmem file: %w", err)
	}
	devSize = size
	if st.Size() == 0 {
		if devSize == 0 {
			return nil, 0, 0, false, fmt.Errorf("nvram: creating %s requires a size", path)
		}
		if devSize < LineSize {
			devSize = LineSize
		}
		devSize = (devSize + LineSize - 1) &^ uint64(LineSize-1)
		if err = initFile(f, devSize); err != nil {
			return nil, 0, 0, false, err
		}
		created = true
	} else {
		wantSize := size
		if maxSize != 0 {
			wantSize = 0 // elastic pool: adopt the file's committed capacity
		}
		devSize, err = validateFileHeader(f, st.Size(), wantSize)
		if err != nil {
			return nil, 0, 0, false, err
		}
	}
	reserve = devSize
	if maxSize != 0 {
		if m := (maxSize + LineSize - 1) &^ uint64(LineSize-1); m > reserve {
			reserve = m
		}
	}
	return f, devSize, reserve, created, nil
}

// initFile sizes a fresh backing file and durably writes its header before
// any mapping exists, so a crash mid-creation leaves either an empty file
// (recreated on the next open) or a fully valid header — never a mapped
// half-formatted image.
func initFile(f *os.File, devSize uint64) error {
	if err := f.Truncate(int64(fileHeaderSize + devSize)); err != nil {
		return fmt.Errorf("nvram: size pmem file: %w", err)
	}
	var hdr [fileHeaderSize]byte
	binary.LittleEndian.PutUint64(hdr[fhMagicOff:], fileMagic)
	binary.LittleEndian.PutUint64(hdr[fhVersionOff:], fileVersion)
	binary.LittleEndian.PutUint64(hdr[fhSizeOff:], devSize)
	binary.LittleEndian.PutUint64(hdr[fhLineOff:], LineSize)
	binary.LittleEndian.PutUint64(hdr[fhWordOff:], WordSize)
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("nvram: write pmem header: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("nvram: sync pmem header: %w", err)
	}
	return nil
}

// validateFileHeader checks an existing backing file before it is mapped:
// magic, layout version, line/word geometry, and that the file really
// contains the full image its header promises. wantSize, when non-zero,
// must match the formatted capacity exactly.
func validateFileHeader(f *os.File, fileSize int64, wantSize uint64) (uint64, error) {
	var hdr [40]byte
	if n, err := f.ReadAt(hdr[:], 0); err != nil || n != len(hdr) {
		return 0, fmt.Errorf("nvram: pmem file too short for a header (%d bytes)", fileSize)
	}
	if got := binary.LittleEndian.Uint64(hdr[fhMagicOff:]); got != fileMagic {
		return 0, fmt.Errorf("nvram: not a pmem backing file (magic %#x)", got)
	}
	if v := binary.LittleEndian.Uint64(hdr[fhVersionOff:]); v != fileVersion {
		return 0, fmt.Errorf("nvram: pmem file layout version %d, want %d", v, fileVersion)
	}
	if l := binary.LittleEndian.Uint64(hdr[fhLineOff:]); l != LineSize {
		return 0, fmt.Errorf("nvram: pmem file line size %d, want %d", l, LineSize)
	}
	if w := binary.LittleEndian.Uint64(hdr[fhWordOff:]); w != WordSize {
		return 0, fmt.Errorf("nvram: pmem file word size %d, want %d", w, WordSize)
	}
	devSize := binary.LittleEndian.Uint64(hdr[fhSizeOff:])
	if devSize == 0 || devSize%LineSize != 0 {
		return 0, fmt.Errorf("nvram: pmem file capacity %d is not line-aligned", devSize)
	}
	// A file LONGER than its header promises is valid: a crash between a
	// grow's file extension and its header commit leaves exactly that, and
	// recovery adopts the old (header) size. Shorter means real truncation.
	if uint64(fileSize) < fileHeaderSize+devSize {
		return 0, fmt.Errorf("nvram: pmem file truncated: header says %d image bytes, file holds %d",
			devSize, fileSize-fileHeaderSize)
	}
	if wantSize != 0 {
		rounded := (wantSize + LineSize - 1) &^ uint64(LineSize-1)
		if rounded < LineSize {
			rounded = LineSize
		}
		if rounded != devSize {
			return 0, fmt.Errorf("nvram: pmem file formatted for %d bytes, requested %d", devSize, rounded)
		}
	}
	return devSize, nil
}

// Name identifies the backend kind.
func (fb *FileBackend) Name() string { return "file" }

// Path returns the backing file path.
func (fb *FileBackend) Path() string { return fb.path }

// Words returns the persisted image: the mapped file past the header. The
// slice covers the full reserve; only the Committed prefix is live.
func (fb *FileBackend) Words() []uint64 { return fb.words }

// Committed returns the live image capacity in bytes.
func (fb *FileBackend) Committed() uint64 { return fb.committed.Load() }

// GrowTo durably extends the live image to newSize bytes within the mapped
// reserve. Commit order is crash-safe for machine crashes too: the file is
// extended and fsynced BEFORE the header's size word is rewritten and
// fsynced, so any crash recovers a header whose promised image the file
// fully contains — the old size (extension not yet committed) or the new
// one. Grows are rare (capacity doublings), so two fsyncs are fine.
func (fb *FileBackend) GrowTo(newSize uint64) error {
	return growBackingFile(fb.f, &fb.committed, fb.reserve, newSize)
}

// growBackingFile is the shared durable grow of the backing-file format
// (file and DAX backends): extend + fsync, then header size rewrite +
// fsync, then the committed mirror.
func growBackingFile(f *os.File, committed *atomic.Uint64, reserve, newSize uint64) error {
	if newSize <= committed.Load() {
		return nil
	}
	if newSize%LineSize != 0 || newSize > reserve {
		return fmt.Errorf("nvram: pmem file grow to %d bytes exceeds the %d-byte reserve", newSize, reserve)
	}
	if err := f.Truncate(int64(fileHeaderSize + newSize)); err != nil {
		return fmt.Errorf("nvram: extend pmem file: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("nvram: sync pmem file extension: %w", err)
	}
	var sz [8]byte
	binary.LittleEndian.PutUint64(sz[:], newSize)
	if _, err := f.WriteAt(sz[:], fhSizeOff); err != nil {
		return fmt.Errorf("nvram: commit pmem grow header: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("nvram: sync pmem grow header: %w", err)
	}
	committed.Store(newSize)
	return nil
}

// NeedsSync reports true: fences must reach the mapping's sync hook.
func (fb *FileBackend) NeedsSync() bool { return true }

// SetSyncPolicy switches the backend's durability policy (see SyncMode).
// Set it before serving operations: fences may be concurrent with each
// other, not with a policy change.
func (fb *FileBackend) SetSyncPolicy(p SyncPolicy) { fb.syncer.setPolicy(p) }

// Policy returns the backend's current durability policy.
func (fb *FileBackend) Policy() SyncPolicy { return fb.syncer.getPolicy() }

// SyncLines hands the just-written-back lines to the background syncer,
// which coalesces their pages across fences into merged msync ranges off
// the fence path. In SyncStrict mode the call blocks until the syncer's
// durable watermark covers this fence (one group-committed fdatasync may
// release many concurrent fences); eager and buffered fences return
// immediately — their kill -9 durability comes from the shared mapping, not
// the msync.
func (fb *FileBackend) SyncLines(lines []uint64) { fb.syncer.enqueue(lines) }

// Drain blocks until every line enqueued so far has been flushed by the
// syncer (buffered flushes are pulled forward). The device's capacity-grow
// barrier uses it so a grow commit never overtakes older acknowledged data
// in the storage stack.
func (fb *FileBackend) Drain() { fb.syncer.drain() }

// SyncStats reports the syncer's counters. After Drain returns, every ticket
// issued before it is covered by a counted flush.
func (fb *FileBackend) SyncStats() SyncStats { return fb.syncer.stats() }

// Abandon simulates abrupt process death for in-process crash tests: it
// closes the descriptor and drops the mapping WITHOUT any flush, so the
// backing file holds precisely the write-backs that completed — and the
// single-owner lock is released, exactly as a kill -9 would release it.
// (The munmap is required for that: a live MAP_SHARED mapping keeps the
// open file description — and its flock — alive past the fd close; dirty
// pages stay in the page cache regardless, which is the whole durability
// story.) The backend and its device must not be used afterwards.
func (fb *FileBackend) Abandon() error {
	// Stop the syncer WITHOUT flushing (an abrupt death grants none) and
	// join it before the munmap: a mid-flight msync on an unmapped region
	// would fault.
	fb.syncer.abandon()
	err := fb.f.Close()
	if fb.mapping != nil {
		if e := syscall.Munmap(fb.mapping); err == nil {
			err = e
		}
		fb.mapping, fb.words = nil, nil
	}
	return err
}

// Close synchronously flushes the whole mapping to the file, unmaps it and
// closes the descriptor. The clean-shutdown equivalent of SaveImage — after
// Close the file alone carries the device state.
func (fb *FileBackend) Close() error {
	if fb.mapping == nil {
		return nil
	}
	// Flush-and-join the syncer first; the whole-mapping msync below then
	// catches anything written back after the syncer's last batch.
	fb.syncer.close()
	// Only the committed prefix is backed by file pages; msyncing reserve
	// pages past EOF would fault.
	live := fileHeaderSize + fb.committed.Load()
	errSync := msyncRange(fb.mapping[:live:live], true)
	if err := fb.f.Sync(); errSync == nil {
		errSync = err
	}
	if err := syscall.Munmap(fb.mapping); errSync == nil {
		errSync = err
	}
	fb.mapping, fb.words = nil, nil
	if err := fb.f.Close(); errSync == nil {
		errSync = err
	}
	return errSync
}

// OpenFileDevice opens (or creates) a file-backed device: the persisted
// image is the mapped file at path, the volatile image starts as its copy —
// exactly the state after a reboot — and recovery is the caller's normal
// attach path. The second result reports whether the file was created.
func OpenFileDevice(path string, cfg Config) (*Device, bool, error) {
	fb, created, err := OpenFileBackend(path, cfg.Size, cfg.MaxSize)
	if err != nil {
		return nil, false, err
	}
	cfg.Size = 0 // adopt the backend's formatted capacity
	d, err := NewWithBackend(cfg, fb)
	if err != nil {
		fb.Close()
		return nil, false, err
	}
	return d, created, nil
}
