package logfree

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/nvram"
)

// This file is a runtime of more than one part: N runtimes that share
// nothing on the write path, each with its own device, allocator, epochs and
// contexts, and one routing hash that sends a byte key to the part that owns
// it. Every part is itself a runtime of one part. The methods below that
// span the parts are loops over them; a runtime of one part loops over
// itself.
//
// Where the parts live. WithShards(n) asks for n parts. In memory that is n
// devices. On a file or DAX device the path decides, and what is on disk
// wins over the request:
//
//   - One part is the device itself: the image file (or devdax node) a
//     runtime has always used, with no manifest.
//   - More than one is a directory: the parts' images are
//     "nvpool.shard-000", "nvpool.shard-001", ... under it, with a manifest
//     "nvpool.manifest" recording the part count, the part size, the routing
//     hash and the backend kind. The manifest is written after every image
//     exists, so its appearance commits a new directory.
//
// An existing directory holding a manifest reopens with the manifest's part
// count, an existing file as one part, and only a path that does not exist
// yet is laid out by the requested count. An explicit WithShards that
// disagrees with what is on disk fails before anything is written.

const (
	// poolBase names the files of a directory of parts: images are
	// "<poolBase>.shard-%03d" and the manifest is "<poolBase>.manifest".
	poolBase = "nvpool"
	// manifestMagic identifies a manifest.
	manifestMagic = "NVPOOL01"
	// manifestVersion is the current manifest layout version.
	manifestVersion = 1
	// routeHashID names the key→part hash, so a manifest written by a build
	// that routes otherwise can never be opened: its entries would already
	// live on the "wrong" parts.
	routeHashID = "fnv1a64-fmix64-v1"
	// maxShards bounds the part count (file names use three digits).
	maxShards = 256
)

// WithShards sets how many parts a new runtime opens, rounded up to a power
// of two (default 1). Reopening keeps what is on disk: the manifest's count
// for a directory, 1 for an image; an explicit count that disagrees with it
// is an error. WithSize, WithMaxSize and WithMaxThreads apply to each part.
func WithShards(n int) Option { return func(c *config) { c.shards = n } }

// manifest is the durable record of a directory of parts, written
// atomically (tmp + rename). Reopening validates it before touching any
// part, so a runtime never comes back with another part count, part size or
// routing hash than it was created with.
type manifest struct {
	Magic      string `json:"magic"`
	Version    int    `json:"version"`
	Shards     int    `json:"shards"`
	ShardBytes uint64 `json:"shard_bytes"`
	Hash       string `json:"hash"`
	// Backend records the parts' backend kind ("file" or "dax"); empty in
	// manifests written before the DAX backend existed and means "file".
	Backend string `json:"backend,omitempty"`
}

// nextPow2 rounds n up to a power of two (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func shardPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("%s.shard-%03d", poolBase, i))
}

func manifestPath(dir string) string {
	return filepath.Join(dir, poolBase+".manifest")
}

// validate checks a loaded manifest against this build and the caller's
// explicit options (zero values adopt the manifest's).
func (m *manifest) validate(c *config) error {
	if m.Magic != manifestMagic {
		return fmt.Errorf("logfree: not a pool manifest (magic %q)", m.Magic)
	}
	if m.Version != manifestVersion {
		return fmt.Errorf("logfree: pool manifest layout version %d, want %d", m.Version, manifestVersion)
	}
	if m.Shards < 1 || m.Shards > maxShards || m.Shards&(m.Shards-1) != 0 {
		return fmt.Errorf("logfree: pool manifest shard count %d is not a power of two in [1,%d]", m.Shards, maxShards)
	}
	if m.ShardBytes == 0 {
		return fmt.Errorf("logfree: pool manifest shard capacity is zero")
	}
	if m.Hash != routeHashID {
		return fmt.Errorf("logfree: pool routed by hash %q, this build routes by %q", m.Hash, routeHashID)
	}
	if c.shards != 0 && nextPow2(c.shards) != m.Shards {
		return fmt.Errorf("logfree: pool formatted with %d shards, requested %d", m.Shards, nextPow2(c.shards))
	}
	if c.size != 0 && c.maxSize == 0 && c.size != m.ShardBytes {
		// Elastic runtimes (maxSize set) adopt the manifest's part size: it
		// may have grown past any initial size since creation.
		return fmt.Errorf("logfree: pool shards formatted for %d bytes, requested %d", m.ShardBytes, c.size)
	}
	if c.device.Kind != DeviceMem {
		// An unspecified kind (manifest inspection) adopts; an explicit one
		// must match what the parts were formatted on.
		if got := m.backendKind(); got != c.device.Kind {
			return fmt.Errorf("logfree: pool formatted on %q shards, requested %q", got, c.device.Kind)
		}
	}
	return nil
}

// backendKind decodes the manifest's backend field (empty = file: manifests
// predating the DAX backend never recorded one).
func (m *manifest) backendKind() DeviceKind {
	if m.Backend == DeviceDAX.String() {
		return DeviceDAX
	}
	return DeviceFile
}

// readManifest loads and validates dir's manifest; ok=false means there is
// none (a directory being created).
func readManifest(dir string, c *config) (m manifest, ok bool, err error) {
	raw, err := os.ReadFile(manifestPath(dir))
	if os.IsNotExist(err) {
		return manifest{}, false, nil
	}
	if err != nil {
		return manifest{}, false, fmt.Errorf("logfree: read pool manifest: %w", err)
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return manifest{}, false, fmt.Errorf("logfree: corrupt pool manifest %s: %w", manifestPath(dir), err)
	}
	if err := m.validate(c); err != nil {
		return manifest{}, false, err
	}
	return m, true, nil
}

// writeManifest durably commits the manifest: tmp + fsync + rename, so it
// exists complete or not at all.
func writeManifest(dir string, m manifest) error {
	raw, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp := manifestPath(dir) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("logfree: write pool manifest: %w", err)
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("logfree: write pool manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("logfree: sync pool manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("logfree: close pool manifest: %w", err)
	}
	if err := os.Rename(tmp, manifestPath(dir)); err != nil {
		return fmt.Errorf("logfree: commit pool manifest: %w", err)
	}
	return nil
}

// layout is where a runtime's parts live: the directory holding them (""
// for one image or memory) and the manifest that records them, already
// validated when reopened is set.
type layout struct {
	dir      string
	man      manifest
	reopened bool
}

// layout decides where the parts live (see the top of this file) and
// checks it against the options. It writes nothing but a new directory.
func (c *config) layout() (layout, error) {
	if c.shards < 0 || c.shards > maxShards {
		return layout{}, fmt.Errorf("logfree: shard count %d out of range [0,%d]", c.shards, maxShards)
	}
	n := nextPow2(c.shards)
	l := layout{man: manifest{
		Magic: manifestMagic, Version: manifestVersion,
		ShardBytes: c.size, Hash: routeHashID,
		Backend: c.device.Kind.String(),
	}}
	image := ""
	if c.device.Kind == DeviceBackend {
		image = "the BackendDevice"
	} else if path := c.device.Path; path != "" {
		switch st, err := os.Stat(path); {
		case err == nil && st.IsDir():
			l.dir = path
		case err == nil || n == 1: // an existing file or device node; or nothing yet, one part asked
			image = path
		default: // nothing yet, several parts asked
			l.dir = path
		}
	}
	if image != "" && n != 1 {
		return layout{}, fmt.Errorf("logfree: %s is a single image (1 shard), requested %d shards", image, n)
	}
	if l.dir != "" {
		onDisk, ok, err := readManifest(l.dir, c)
		switch {
		case err != nil:
			return layout{}, err
		case ok:
			// The manifest owns the count. A missing image is refused here
			// rather than created empty by the open-or-create backend.
			l.man, n, l.reopened = onDisk, onDisk.Shards, true
			for i := 0; i < n; i++ {
				if _, err := os.Stat(shardPath(l.dir, i)); err != nil {
					return layout{}, fmt.Errorf("logfree: pool manifest names %d shards but shard file %s is missing: %w",
						n, shardPath(l.dir, i), err)
				}
			}
		case n == 1:
			return layout{}, fmt.Errorf("logfree: %s is a directory, but a 1-shard runtime is a single image file", l.dir)
		default:
			if err := os.MkdirAll(l.dir, 0o755); err != nil {
				return layout{}, fmt.Errorf("logfree: create pool directory: %w", err)
			}
		}
	}
	l.man.Shards = n
	return l, nil
}

// partConfig is part i's configuration: the options as given, with the
// part's own image in a directory and the manifest's part size.
func (c config) partConfig(l layout, i int) config {
	c.size = l.man.ShardBytes // 0: the default when fresh, the image's own on reopen
	if l.dir != "" {
		c.device = DeviceSpec{Kind: c.device.Kind, Path: shardPath(l.dir, i)}
	}
	return c
}

// newRuntime opens the parts the layout names, concurrently — on a durable
// device that is also parallel recovery, each part running its own sweep —
// and commits a new directory's manifest once every image exists.
func newRuntime(cfg config) (*Runtime, error) {
	l, err := cfg.layout()
	if err != nil {
		return nil, err
	}
	parts, err := eachPart(l.man.Shards, "opening", func(i int) (*Runtime, error) {
		p, err := openPart(cfg.partConfig(l, i))
		// An elastic reopen adopts each image's committed size, which may
		// exceed the manifest's when a crash hit between the parts' grows and
		// the manifest rewrite (Grow reconverges it). An image SMALLER than
		// the manifest promises is a swapped or corrupted file.
		if err == nil && l.reopened && cfg.maxSize != 0 && p.SizeBytes() < l.man.ShardBytes {
			p.Close()
			return nil, fmt.Errorf("shard formatted for %d bytes, pool manifest promises %d", p.SizeBytes(), l.man.ShardBytes)
		}
		return p, err
	})
	if err != nil {
		return nil, err
	}
	if l.man.ShardBytes == 0 {
		l.man.ShardBytes = parts[0].SizeBytes()
	}
	r := joinParts(parts, l)
	if l.dir != "" && !l.reopened {
		if err := writeManifest(l.dir, l.man); err != nil {
			r.Close()
			return nil, err
		}
	}
	return r, nil
}

// eachPart runs open for parts 0..n-1 concurrently, timing each. When one
// fails, every part that did open is closed again — releasing its mapping
// and lock, so a retry or a repair can open the files.
func eachPart(n int, verb string, open func(i int) (*Runtime, error)) ([]*Runtime, error) {
	parts := make([]*Runtime, n)
	err := inParallel(n, verb, func(i int) (err error) {
		start := time.Now()
		if parts[i], err = open(i); err == nil {
			parts[i].opened = time.Since(start)
		}
		return err
	})
	if err != nil {
		for _, p := range parts {
			if p != nil {
				p.Close()
			}
		}
		return nil, err
	}
	return parts, nil
}

// inParallel runs fn for parts 0..n-1 concurrently and returns the first
// error by part, naming the part when there are several.
func inParallel(n int, verb string, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil && n > 1 {
			return fmt.Errorf("logfree: %s shard %d of %d: %w", verb, i, n, err)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// joinParts makes one runtime of open parts: the sole part itself, or a
// runtime over several.
func joinParts(parts []*Runtime, l layout) *Runtime {
	r := parts[0]
	if len(parts) > 1 {
		r = &Runtime{}
	}
	r.parts, r.poolDir, r.man = parts, l.dir, l.man
	return r
}

// routeHash is the stable key→part hash (ID routeHashID): FNV-1a 64 over the
// key, finalized with the murmur3 fmix64 mixer so the low bits the part mask
// keeps are well spread even for short sequential keys. It is independent of
// the index hash inside each part: that one can change, routing cannot,
// since entries live where the hash at their creation put them.
func routeHash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// partOf routes a key to the index of the part that owns it. A runtime of
// one part never calls it.
func (r *Runtime) partOf(key []byte) int {
	return int(routeHash(key) & uint64(len(r.parts)-1))
}

// Parts returns the runtime's parts: the runtime itself when it has one.
// Each part is a runtime of one part with its own device. Close the
// runtime, not its parts.
func (r *Runtime) Parts() []*Runtime { return r.parts }

// ShardRecoveryDurations returns each part's open and recovery wall clock,
// from New or SimulateCrash (zero for a runtime from Attach or Load). The
// runtime's open takes about the longest of them when the parts recover in
// parallel, and their sum when something serializes them.
func (r *Runtime) ShardRecoveryDurations() []time.Duration {
	out := make([]time.Duration, len(r.parts))
	for i, p := range r.parts {
		out[i] = p.opened
	}
	return out
}

// Recovered reports whether the runtime attached to existing durable state
// (New on a populated WithDevice substrate, Attach, Load, SimulateCrash) —
// every part recovered an image — rather than formatting fresh.
func (r *Runtime) Recovered() bool {
	for _, p := range r.parts {
		if !p.attached {
			return false
		}
	}
	return true
}

// RecoveryStats aggregates the recovery passes of the parts (zero after a
// fresh New): counters sum, and Duration is the slowest part's pass, since
// the parts recover concurrently.
func (r *Runtime) RecoveryStats() RecoveryStats {
	var agg RecoveryStats
	for _, p := range r.parts {
		rs := p.recStats
		agg.ActiveAreas += rs.ActiveAreas
		agg.ObjectsChecked += rs.ObjectsChecked
		agg.Leaked += rs.Leaked
		agg.Duration = max(agg.Duration, rs.Duration)
	}
	return agg
}

// AvailableBytes estimates the free NVRAM capacity (uncarved space plus
// recycled pages) of the fullest part: keys spread near-uniformly, so that
// is where the next allocation fails. Callers implementing eviction policies
// poll it.
func (r *Runtime) AvailableBytes() uint64 {
	least := ^uint64(0)
	for _, p := range r.parts {
		least = min(least, p.store.Pool().AvailableBytes())
	}
	return least
}

// FreeBytes is the free capacity summed over the parts, where
// AvailableBytes is the fullest part's.
func (r *Runtime) FreeBytes() uint64 {
	var sum uint64
	for _, p := range r.parts {
		sum += p.store.Pool().AvailableBytes()
	}
	return sum
}

// SizeBytes returns the committed device capacity in bytes, summed over the
// parts. It increases through Grow and never decreases.
func (r *Runtime) SizeBytes() uint64 {
	var sum uint64
	for _, p := range r.parts {
		sum += p.dev.Size()
	}
	return sum
}

// MaxSizeBytes returns the growth reserve summed over the parts: the largest
// capacity Grow can reach. Equal to SizeBytes when there is no headroom.
func (r *Runtime) MaxSizeBytes() uint64 {
	var sum uint64
	for _, p := range r.parts {
		sum += p.dev.Reserve()
	}
	return sum
}

// Grow extends the runtime to total bytes: every part grows, concurrently,
// crash-atomically and with no interruption to concurrent operations, to its
// line-rounded share, and a directory's manifest is then rewritten with the
// new part size. It requires WithMaxSize headroom (or a growable backend
// with reserve), and is a no-op when total is at or below the current size.
// A kill -9 at any point leaves each part at its old or new capacity and the
// manifest at the old or new size; reopening adopts whichever committed, and
// running Grow again reconverges the stragglers.
func (r *Runtime) Grow(total uint64) error {
	if r.closed.Load() {
		return ErrClosed
	}
	r.growMu.Lock()
	defer r.growMu.Unlock()
	n := uint64(len(r.parts))
	per := ((total+n-1)/n + nvram.LineSize - 1) &^ uint64(nvram.LineSize-1)
	if err := inParallel(len(r.parts), "growing", func(i int) error { return r.parts[i].store.Pool().Grow(per) }); err != nil {
		return err
	}
	if r.poolDir != "" && per > r.man.ShardBytes {
		man := r.man
		man.ShardBytes = per
		if err := writeManifest(r.poolDir, man); err != nil {
			return err
		}
		r.man = man
	}
	return nil
}

// Drain flushes the link cache and reclaims retired memory across all
// operation contexts of every part. Requires quiescence.
func (r *Runtime) Drain() {
	for _, p := range r.parts {
		p.store.ForEachCtx(func(c *core.Ctx) { c.Shutdown() })
	}
}

// Reclaim seals and frees the memory retired on one operation context of
// each part that every thread has provably moved past, converting retired
// nodes into reusable slots immediately. Handy between eviction passes under
// memory pressure and in tests; regular operation reclaims incrementally on
// its own.
func (r *Runtime) Reclaim() {
	for _, p := range r.parts {
		if c, err := p.acquireErr(); err == nil {
			c.Epoch().FlushAll()
			p.release(c)
		}
	}
}

// Close drains the runtime, marks it closed (subsequent operations return
// or panic with ErrClosed) and releases every part's device backend — for
// file-backed runtimes that synchronously flushes the mappings, so after
// Close the backing files alone carry the state. Requires quiescence.
// Idempotent. Every part is attempted; the first error is returned.
func (r *Runtime) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	var first error
	for _, p := range r.parts {
		p.closed.Store(true)
		p.pool.close()
		p.stopFlushTimer()
		p.store.ForEachCtx(func(c *core.Ctx) { c.Shutdown() })
		if err := p.dev.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SimulateCrash power-fails every part's device (losing everything not
// written back), reboots, and recovers the parts concurrently. The receiver
// and all its structures are invalid afterwards (it is closed); use the
// returned runtime. For file-backed runtimes the on-disk crash path (process
// kill + reopen through New) is the stronger test.
func (r *Runtime) SimulateCrash() (*Runtime, error) {
	r.closed.Store(true)
	parts, err := eachPart(len(r.parts), "recovering", func(i int) (*Runtime, error) {
		return r.parts[i].crash()
	})
	if err != nil {
		return nil, err
	}
	return joinParts(parts, layout{dir: r.poolDir, man: r.man}), nil
}

// crash power-fails one part and attaches a new runtime to its device.
func (r *Runtime) crash() (*Runtime, error) {
	r.closed.Store(true)
	r.pool.close()
	r.stopFlushTimer()
	r.dev.Crash()
	return Attach(r.dev,
		WithSize(r.cfg.size),
		WithMaxSize(r.cfg.maxSize),
		WithWriteLatency(r.cfg.writeLatency),
		WithLinkCache(r.cfg.linkCache),
		WithDevice(r.cfg.device),
		WithDurability(r.cfg.durability),
		WithVolatile(r.cfg.volatile))
}
