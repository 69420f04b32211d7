// Package sharded runs N independent logfree Runtimes as one pool. The pool
// owns what only it knows — the topology and its manifest, Open/Adopt/Grow/
// Close over every shard, aggregate stats, and the stable hash that routes a
// byte key to its shard. Its maps are logfree's own: Pool.Map and
// Pool.OrderedMap open the named map on every shard and hand back one
// *logfree.ByteMap / *logfree.OrderedByteMap over N parts (logfree.JoinMaps),
// the same types, sessions and iter.Seq2 iterators a lone Runtime gives — a
// Runtime's map is the one-part case.
//
// Why a pool instead of one bigger runtime: every substrate of a single
// runtime — device write-back locks, allocator, epoch manager, skip-list
// index — is shared state that every operation touches. A pool multiplies
// the whole stack: each shard owns a private device, allocator, epochs and
// context pool, so shards share *nothing* on the write path and scale with
// cores (in the spirit of TQCache's ShardedCache worker-per-shard design).
// Per-shard structures are also 1/N the size, which shortens the dominant
// CPU cost of the single-runtime write path (ordered-index key-compare
// searches).
//
// Topology. The shard count is fixed at pool creation (power of two,
// default GOMAXPROCS rounded up) and routing is a stable hash of the full
// key (FNV-1a 64 finalized with the murmur3 fmix64 mixer), independent of
// any hash used inside logfree — the same key maps to the same shard in
// every process, on every backend, forever. A pool of one shard is a single
// image — the device handed to Open, as a lone logfree.Runtime would use it;
// a pool of more is a directory of per-shard images whose manifest persists
// the topology and is validated by Open, so a pool can never silently reopen
// with the wrong shard count or geometry (see WithDevice).
//
// Durability. Each shard fences independently: a Set that returned is
// durably linearized on its shard exactly as on a single runtime.
package sharded

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nvram"
	"repro/logfree"
)

const (
	// poolBase names the pool's files inside its directory: shard images are
	// "<poolBase>.shard-%03d" and the manifest is "<poolBase>.manifest".
	poolBase = "nvpool"
	// manifestMagic identifies a pool manifest.
	manifestMagic = "NVPOOL01"
	// manifestVersion is the current manifest layout version.
	manifestVersion = 1
	// routeHashID names the key→shard hash so a manifest written by a build
	// with different routing can never be opened: entries would already live
	// on the "wrong" shards.
	routeHashID = "fnv1a64-fmix64-v1"
	// maxShards bounds the topology (file naming uses three digits; far past
	// any sane core count either way).
	maxShards = 256
)

// config collects the pool options.
type config struct {
	shards       int
	shardSize    uint64
	maxShardSize uint64
	device       logfree.DeviceSpec
	durability   logfree.Durability
	writeLatency time.Duration
	maxThreads   int
	linkCache    bool
}

// Option configures a Pool.
type Option func(*config)

// WithShards sets the shard count, rounded up to a power of two (default:
// GOMAXPROCS rounded up). Opening an existing pool with an explicit count
// that disagrees with what is on disk (the manifest's count, or 1 for a
// single image) is an error; 0 adopts.
func WithShards(n int) Option { return func(c *config) { c.shards = n } }

// WithShardSize sets each shard's device capacity in bytes (default 64 MiB
// per shard — note: per shard, not pool-wide). Opening an existing
// file-backed pool with an explicit size that disagrees with its manifest
// is an error; 0 adopts.
func WithShardSize(bytes uint64) Option { return func(c *config) { c.shardSize = bytes } }

// WithMaxShardSize reserves per-shard growth headroom: every shard starts at
// WithShardSize bytes but Pool.Grow can extend it online up to this many
// (see logfree.WithMaxSize). When set, reopening an existing pool ADOPTS the
// shards' committed capacity — whatever the last durable grow reached —
// instead of erroring on a WithShardSize disagreement: an elastic pool's
// size is state, not configuration. Zero freezes shards at WithShardSize.
func WithMaxShardSize(bytes uint64) Option { return func(c *config) { c.maxShardSize = bytes } }

// WithDevice names the persistence substrate of the pool (default
// MemDevice: every shard in process). What the spec means depends on the
// shard count, and this is the one place that decides it:
//
//   - One shard: the spec IS the shard's device, handed to logfree.New
//     verbatim — FileDevice/DAXDevice name the single image file (or devdax
//     node), BackendDevice a caller-built backend. There is no manifest, so
//     an image written by a plain logfree.Runtime opens as a 1-shard pool
//     and vice versa.
//   - More than one: the spec's Path is the POOL DIRECTORY. Shards live
//     under it as "nvpool.shard-000", "nvpool.shard-001", ... plus a
//     manifest recording the topology (including the backend kind).
//     BackendDevice cannot describe N per-shard backends and is rejected.
//
// Open-or-create either way, and what is on disk wins over the request: a
// directory holding a manifest is validated and recovered (all shards in
// parallel), an existing non-directory is a single image, and an explicit
// WithShards that disagrees with either fails before anything is written.
// Only a path that does not exist yet is laid out by the requested count
// (the manifest write is a fresh directory's creation commit point).
func WithDevice(spec logfree.DeviceSpec) Option {
	return func(c *config) { c.device = spec }
}

// WithDurability sets every shard's acknowledged-operation policy; see
// logfree.WithDurability. Each shard applies it independently (per-shard
// fences, syncers and flush timers); cross-shard ordering is unaffected.
func WithDurability(d logfree.Durability) Option {
	return func(c *config) { c.durability = d }
}

// WithWriteLatency sets the simulated NVRAM write latency of every shard.
func WithWriteLatency(d time.Duration) Option {
	return func(c *config) { c.writeLatency = d }
}

// WithMaxThreads sets how many operation contexts each new shard formats:
// the most operations that run on a shard at once. See
// logfree.WithMaxThreads.
func WithMaxThreads(n int) Option { return func(c *config) { c.maxThreads = n } }

// WithLinkCache toggles the §4 link cache on every shard; see
// logfree.WithLinkCache (file-backed pools should leave it off, exactly as
// with a single file-backed runtime).
func WithLinkCache(on bool) Option { return func(c *config) { c.linkCache = on } }

// manifest is the durable topology record of a file-backed pool, written
// atomically (tmp + rename) after every shard file exists. Reopening
// validates it before touching any shard, so a pool can never come back
// with a different shard count, shard geometry, or routing hash than it was
// created with.
type manifest struct {
	Magic      string `json:"magic"`
	Version    int    `json:"version"`
	Shards     int    `json:"shards"`
	ShardBytes uint64 `json:"shard_bytes"`
	Hash       string `json:"hash"`
	// Backend records the shard backend kind ("file" or "dax"); empty in
	// manifests written before the DAX backend existed and means "file".
	Backend string `json:"backend,omitempty"`
}

// Pool is a set of independent logfree Runtimes with hash-routed byte keys.
// All exported methods are safe for concurrent use unless noted.
type Pool struct {
	rts  []*logfree.Runtime
	mask uint64

	// dir is the pool directory and man the topology record Grow rewrites
	// there; dir is empty for pools with no manifest (memory pools, single
	// images, adopted runtimes), where only man.ShardBytes is meaningful.
	dir string
	man manifest

	closed atomic.Bool
	growMu sync.Mutex      // serializes Grow (per-shard grows + manifest rewrite)
	recDur []time.Duration // per-shard open+recovery wall clock
}

// newPool wraps open runtimes (a power-of-two count) as a pool.
func newPool(rts []*logfree.Runtime, recDur []time.Duration) *Pool {
	return &Pool{rts: rts, mask: uint64(len(rts) - 1), recDur: recDur}
}

// Adopt wraps already-open runtimes as a pool, shard i = rts[i]: how a
// runtime opened some other way (logfree.Attach on a crashed device, a
// volatile runtime) gets the pool surface. The pool owns the runtimes from
// here on — Close closes them. The count must be a power of two; nothing is
// written, so an adopted pool has no manifest and reports zero
// ShardRecoveryDurations.
func Adopt(rts ...*logfree.Runtime) (*Pool, error) {
	if n := len(rts); n < 1 || n > maxShards || n&(n-1) != 0 {
		return nil, fmt.Errorf("sharded: adopting %d runtimes: not a power of two in [1,%d]", n, maxShards)
	}
	return newPool(rts, make([]time.Duration, len(rts))), nil
}

func buildConfig(opts []Option) config {
	c := config{}
	for _, o := range opts {
		o(&c)
	}
	return c
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

// validateManifest checks a loaded manifest against this build and the
// caller's explicit options (0 values adopt the manifest's).
func (m *manifest) validate(c *config) error {
	if m.Magic != manifestMagic {
		return fmt.Errorf("sharded: not a pool manifest (magic %q)", m.Magic)
	}
	if m.Version != manifestVersion {
		return fmt.Errorf("sharded: pool manifest layout version %d, want %d", m.Version, manifestVersion)
	}
	if m.Shards < 1 || m.Shards > maxShards || m.Shards&(m.Shards-1) != 0 {
		return fmt.Errorf("sharded: pool manifest shard count %d is not a power of two in [1,%d]", m.Shards, maxShards)
	}
	if m.ShardBytes == 0 {
		return fmt.Errorf("sharded: pool manifest shard capacity is zero")
	}
	if m.Hash != routeHashID {
		return fmt.Errorf("sharded: pool routed by hash %q, this build routes by %q", m.Hash, routeHashID)
	}
	if c.shards != 0 && nextPow2(c.shards) != m.Shards {
		return fmt.Errorf("sharded: pool formatted with %d shards, requested %d", m.Shards, nextPow2(c.shards))
	}
	if c.shardSize != 0 && c.maxShardSize == 0 && c.shardSize != m.ShardBytes {
		// Elastic pools (maxShardSize set) adopt the manifest's shard size:
		// the pool may have grown past any initial-size flag since creation.
		return fmt.Errorf("sharded: pool shards formatted for %d bytes, requested %d", m.ShardBytes, c.shardSize)
	}
	if c.device.Kind != logfree.DeviceMem {
		// An unspecified kind (zero config, manifest inspection) adopts; an
		// explicit one must match what the pool was formatted on.
		if got := m.backendKind(); got != c.device.Kind {
			return fmt.Errorf("sharded: pool formatted on %q shards, requested %q", got, c.device.Kind)
		}
	}
	return nil
}

// backendKind decodes the manifest's backend field (empty = file: manifests
// predating the DAX backend never recorded one).
func (m *manifest) backendKind() logfree.DeviceKind {
	if m.Backend == logfree.DeviceDAX.String() {
		return logfree.DeviceDAX
	}
	return logfree.DeviceFile
}

// readManifest loads and validates dir's manifest; ok=false means no
// manifest exists (fresh-create path).
func readManifest(dir string, c *config) (m manifest, ok bool, err error) {
	raw, err := os.ReadFile(manifestPath(dir))
	if os.IsNotExist(err) {
		return manifest{}, false, nil
	}
	if err != nil {
		return manifest{}, false, fmt.Errorf("sharded: read pool manifest: %w", err)
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return manifest{}, false, fmt.Errorf("sharded: corrupt pool manifest %s: %w", manifestPath(dir), err)
	}
	if err := m.validate(c); err != nil {
		return manifest{}, false, err
	}
	return m, true, nil
}

// writeManifest durably commits the pool's topology: tmp + fsync + rename,
// so the manifest either exists complete or not at all. Its appearance is
// the pool-creation commit point.
func writeManifest(dir string, m manifest) error {
	raw, err := json.Marshal(m)
	if err != nil {
		return err
	}
	tmp := manifestPath(dir) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("sharded: write pool manifest: %w", err)
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("sharded: write pool manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("sharded: sync pool manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("sharded: close pool manifest: %w", err)
	}
	if err := os.Rename(tmp, manifestPath(dir)); err != nil {
		return fmt.Errorf("sharded: commit pool manifest: %w", err)
	}
	return nil
}

// Open creates or reopens a pool. Shards open concurrently — on a
// file-backed pool that is also the parallel recovery path, each shard
// running its own attach sweep in its own goroutine. If any shard fails,
// every shard that did open is closed again (releasing its mapping and
// flock) before Open returns the error: a failed Open never leaks a locked
// backing file.
func Open(opts ...Option) (*Pool, error) {
	cfg := buildConfig(opts)
	if cfg.shards < 0 || cfg.shards > maxShards {
		return nil, fmt.Errorf("sharded: shard count %d out of range [0,%d]", cfg.shards, maxShards)
	}
	path := cfg.device.Path

	n := cfg.shards
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	n = nextPow2(n)

	// What the device means (see WithDevice). image names a device that is
	// ONE image and goes to the sole shard verbatim; dir is the directory of
	// a multi-shard pool. Neither is set for a memory pool.
	image, dir := "", ""
	if cfg.device.Kind == logfree.DeviceBackend {
		image = "the BackendDevice"
	} else if path != "" {
		switch st, err := os.Stat(path); {
		case err == nil && st.IsDir():
			dir = path
		case err == nil || n == 1: // an existing file or device node; or nothing yet, one shard asked
			image = path
		default: // nothing yet, several shards asked
			dir = path
		}
	}
	if image != "" && n != 1 {
		if cfg.shards != 0 {
			return nil, fmt.Errorf("sharded: %s is a single image (1 shard), requested %d shards", image, n)
		}
		n = 1
	}

	man := manifest{
		Magic: manifestMagic, Version: manifestVersion,
		ShardBytes: cfg.shardSize, Hash: routeHashID,
		Backend: cfg.device.Kind.String(),
	}
	attached := false
	if dir != "" {
		onDisk, ok, err := readManifest(dir, &cfg)
		switch {
		case err != nil:
			return nil, err
		case ok:
			// Reopen: the manifest owns the topology; missing shard files are
			// rejected here rather than silently recreated empty by the
			// open-or-create file backend below.
			man, n, attached = onDisk, onDisk.Shards, true
			for i := 0; i < n; i++ {
				if _, err := os.Stat(shardPath(dir, i)); err != nil {
					return nil, fmt.Errorf("sharded: pool manifest names %d shards but shard file %s is missing: %w",
						n, shardPath(dir, i), err)
				}
			}
		case n == 1:
			return nil, fmt.Errorf("sharded: %s is a directory, but a 1-shard pool is a single image file", dir)
		default:
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, fmt.Errorf("sharded: create pool directory: %w", err)
			}
		}
	}
	man.Shards = n

	shardOpts := func(i int) []logfree.Option {
		o := []logfree.Option{
			logfree.WithSize(man.ShardBytes), // 0: logfree's default when fresh, the image's own on reopen
			logfree.WithMaxSize(cfg.maxShardSize),
			logfree.WithLinkCache(cfg.linkCache),
			logfree.WithDurability(cfg.durability),
			logfree.WithWriteLatency(cfg.writeLatency),
			logfree.WithMaxThreads(cfg.maxThreads),
		}
		spec := cfg.device
		if dir != "" {
			spec = logfree.FileDevice(shardPath(dir, i))
			if cfg.device.Kind == logfree.DeviceDAX {
				spec = logfree.DAXDevice(shardPath(dir, i))
			}
		}
		return append(o, logfree.WithDevice(spec))
	}

	rts := make([]*logfree.Runtime, n)
	durs := make([]time.Duration, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			rts[i], errs[i] = logfree.New(shardOpts(i)...)
			durs[i] = time.Since(start)
			// Elastic reopen adopts each shard file's committed capacity (it
			// may exceed the manifest when a crash hit between the per-shard
			// grows and the manifest rewrite — Grow reconverges it), but a
			// shard SMALLER than the manifest promises is a swapped or
			// corrupted file, exactly the geometry mismatch the non-elastic
			// path rejects via the backend header check.
			if errs[i] == nil && attached && cfg.maxShardSize != 0 && rts[i].SizeBytes() < man.ShardBytes {
				errs[i] = fmt.Errorf("shard formatted for %d bytes, pool manifest promises %d", rts[i].SizeBytes(), man.ShardBytes)
				rts[i].Close()
				rts[i] = nil
			}
		}(i)
	}
	wg.Wait()
	p := newPool(rts, durs)
	for i, err := range errs {
		if err != nil {
			// Error-path hygiene: close every shard that DID open (logfree.New
			// already closed the device of the shard that failed), releasing
			// mappings and flocks, so a retry or a repair can open the files.
			p.Close()
			return nil, fmt.Errorf("sharded: opening shard %d of %d: %w", i, n, err)
		}
	}

	if man.ShardBytes == 0 {
		man.ShardBytes = rts[0].SizeBytes()
	}
	if dir != "" && !attached {
		if err := writeManifest(dir, man); err != nil {
			p.Close()
			return nil, err
		}
	}
	p.dir, p.man = dir, man
	return p, nil
}

// --- routing --------------------------------------------------------------

// routeHash is the stable key→shard hash (ID routeHashID): FNV-1a 64 over
// the key, finalized with the murmur3 fmix64 mixer so the low bits used by
// the mask are well distributed even for short sequential keys. It is
// deliberately independent of any hash inside logfree: the index hash can
// evolve per runtime, routing cannot (entries live where the hash of their
// creation put them).
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

// shardOf routes a key to its shard index (a 1-shard pool has nothing to
// hash for).
func (p *Pool) shardOf(key []byte) int {
	if p.mask == 0 {
		return 0
	}
	return int(routeHash(key) & p.mask)
}

// ShardOf exposes the routing for tests and diagnostics.
func (p *Pool) ShardOf(key []byte) int { return p.shardOf(key) }

// --- maps -----------------------------------------------------------------

// openParts opens the structure registered under name on every shard.
func openParts[M any](p *Pool, name string, open func(*logfree.Runtime) (M, error)) ([]M, error) {
	parts := make([]M, len(p.rts))
	for i, rt := range p.rts {
		m, err := open(rt)
		if err != nil {
			return nil, fmt.Errorf("sharded: opening %q on shard %d: %w", name, i, err)
		}
		parts[i] = m
	}
	return parts, nil
}

// Map opens or creates the byte-keyed durable map registered under name on
// every shard and joins the shards' maps into one, routed by shardOf (see
// logfree.JoinMaps). buckets sizes each SHARD's table (keys spread
// ~uniformly, so size it for len(keys)/Shards — a pool-wide budget divided
// by Shards).
func (p *Pool) Map(name string, buckets int) (*logfree.ByteMap, error) {
	parts, err := openParts(p, name, func(rt *logfree.Runtime) (*logfree.ByteMap, error) { return rt.Map(name, buckets) })
	if err != nil {
		return nil, err
	}
	return logfree.JoinMaps(p.shardOf, parts...), nil
}

// OrderedMap opens or creates the ordered byte-keyed durable map registered
// under name on every shard and joins them (see logfree.JoinOrderedMaps):
// iteration is in byte order across the whole pool.
func (p *Pool) OrderedMap(name string) (*logfree.OrderedByteMap, error) {
	parts, err := openParts(p, name, func(rt *logfree.Runtime) (*logfree.OrderedByteMap, error) { return rt.OrderedMap(name) })
	if err != nil {
		return nil, err
	}
	return logfree.JoinOrderedMaps(p.shardOf, parts...), nil
}

// --- pool surface ---------------------------------------------------------

// Shards reports the shard count.
func (p *Pool) Shards() int { return len(p.rts) }

// Runtimes exposes the per-shard runtimes (crash injection, stats; do not
// close them individually — Close the pool).
func (p *Pool) Runtimes() []*logfree.Runtime { return p.rts }

// Recovered reports whether the pool attached to existing durable state —
// every shard recovered an image (see logfree.Runtime.Recovered) — rather
// than formatting fresh. Memory-backed pools are fresh until SimulateCrash.
func (p *Pool) Recovered() bool {
	for _, rt := range p.rts {
		if !rt.Recovered() {
			return false
		}
	}
	return true
}

// RecoveryStats aggregates the shards' recovery passes: counters sum;
// Duration is the slowest shard's pass, which is the pool's recovery wall
// clock since shards recover concurrently.
func (p *Pool) RecoveryStats() logfree.RecoveryStats {
	var agg logfree.RecoveryStats
	for _, rt := range p.rts {
		rs := rt.RecoveryStats()
		agg.ActiveAreas += rs.ActiveAreas
		agg.ObjectsChecked += rs.ObjectsChecked
		agg.Leaked += rs.Leaked
		if rs.Duration > agg.Duration {
			agg.Duration = rs.Duration
		}
	}
	return agg
}

// ShardRecoveryDurations returns each shard's open+recovery wall clock from
// the Open call (index = shard). The pool's total open time approaches
// max(durations) when shards truly recover in parallel and sum(durations)
// when something serializes them.
func (p *Pool) ShardRecoveryDurations() []time.Duration {
	out := make([]time.Duration, len(p.recDur))
	copy(out, p.recDur)
	return out
}

// AvailableBytes estimates free capacity as the MINIMUM across shards: keys
// hash-spread near-uniformly, so the fullest shard is where the next
// allocation failure happens — eviction policies should act on it, not on
// the pool-wide sum.
func (p *Pool) AvailableBytes() uint64 {
	min := ^uint64(0)
	for _, rt := range p.rts {
		if a := rt.AvailableBytes(); a < min {
			min = a
		}
	}
	return min
}

// SizeBytes sums the shards' committed device capacities: the pool's total
// formatted bytes. It increases through Grow and never decreases.
func (p *Pool) SizeBytes() uint64 {
	var sum uint64
	for _, rt := range p.rts {
		sum += rt.SizeBytes()
	}
	return sum
}

// MaxSizeBytes sums the shards' growth reserves: the largest total capacity
// Grow can reach. Equal to SizeBytes when the pool has no headroom.
func (p *Pool) MaxSizeBytes() uint64 {
	var sum uint64
	for _, rt := range p.rts {
		sum += rt.MaxSizeBytes()
	}
	return sum
}

// FreeBytes sums the shards' free capacity — the pool-wide total, unlike
// AvailableBytes' min-across-shards eviction signal.
func (p *Pool) FreeBytes() uint64 {
	var sum uint64
	for _, rt := range p.rts {
		sum += rt.AvailableBytes()
	}
	return sum
}

// Grow extends the pool to total bytes: every shard grows (concurrently,
// crash-atomically, without interrupting operations) to its line-rounded
// 1/Nth share, then the manifest is rewritten with the new shard geometry.
// Requires WithMaxShardSize headroom. A no-op when total is at or below the
// current SizeBytes. A kill -9 anywhere leaves each shard at its old or new
// capacity and the manifest at the old or new geometry; the elastic reopen
// path adopts whichever committed, so recovery always sees a valid pool and
// re-running Grow reconverges the stragglers.
func (p *Pool) Grow(total uint64) error {
	if p.closed.Load() {
		return logfree.ErrClosed
	}
	p.growMu.Lock()
	defer p.growMu.Unlock()
	n := uint64(len(p.rts))
	per := (total + n - 1) / n
	per = (per + nvram.LineSize - 1) &^ uint64(nvram.LineSize-1)
	if per <= p.man.ShardBytes && p.SizeBytes() >= total {
		return nil
	}
	errs := make([]error, len(p.rts))
	var wg sync.WaitGroup
	for i, rt := range p.rts {
		wg.Add(1)
		go func(i int, rt *logfree.Runtime) {
			defer wg.Done()
			errs[i] = rt.Grow(per)
		}(i, rt)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("sharded: growing shard %d of %d: %w", i, len(p.rts), err)
		}
	}
	man := p.man
	man.ShardBytes = per
	if p.dir != "" {
		if err := writeManifest(p.dir, man); err != nil {
			return err
		}
	}
	p.man = man
	return nil
}

// Stats sums the shards' device counters. Requires quiescence (see
// nvram.Device.Stats).
func (p *Pool) Stats() nvram.Stats {
	var agg nvram.Stats
	for _, rt := range p.rts {
		st := rt.Device().Stats()
		agg.Clwbs += st.Clwbs
		agg.Fences += st.Fences
		agg.SyncWaits += st.SyncWaits
		agg.Evictions += st.Evictions
	}
	return agg
}

// Drain flushes deferred durability work on every shard. Requires
// quiescence.
func (p *Pool) Drain() {
	for _, rt := range p.rts {
		rt.Drain()
	}
}

// Reclaim converts recently retired memory into reusable slots on every
// shard (best effort; see logfree.Runtime.Reclaim).
func (p *Pool) Reclaim() {
	for _, rt := range p.rts {
		rt.Reclaim()
	}
}

// Close drains and closes every shard (file-backed shards flush their
// mappings synchronously, so afterwards the directory alone carries the
// pool). Requires quiescence. Idempotent. All shards are attempted; the
// first error is returned.
func (p *Pool) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	var first error
	for _, rt := range p.rts {
		if rt == nil { // a shard that never opened, on a failed Open or recovery
			continue
		}
		if err := rt.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// SimulateCrash power-fails every shard (losing all unwritten-back state),
// reboots and recovers them concurrently, and returns the recovered pool.
// The receiver and its structures are invalid afterwards.
// Works on both backends; for file-backed pools the on-disk crash path
// (process kill + reopen via Open) is the stronger test.
func (p *Pool) SimulateCrash() (*Pool, error) {
	p.closed.Store(true)
	n := len(p.rts)
	rts := make([]*logfree.Runtime, n)
	durs := make([]time.Duration, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, rt := range p.rts {
		wg.Add(1)
		go func(i int, rt *logfree.Runtime) {
			defer wg.Done()
			start := time.Now()
			rts[i], errs[i] = rt.SimulateCrash()
			durs[i] = time.Since(start)
		}(i, rt)
	}
	wg.Wait()
	p2 := newPool(rts, durs)
	for i, err := range errs {
		if err != nil {
			p2.Close()
			return nil, fmt.Errorf("sharded: recovering shard %d: %w", i, err)
		}
	}
	p2.dir, p2.man = p.dir, p.man
	return p2, nil
}
