// Command nvmemcached runs an NV-Memcached server (§6.5): a durable
// Memcached speaking the standard wire protocol — the full text command set
// (including cas/gets, append/prepend, noreply pipelining) and the binary
// protocol, auto-detected per connection from its first byte, so unmodified
// standard clients work in either mode — whose contents survive restarts of
// the process.
//
// The cache runs on one runtime of -shards independent parts (default 1,
// the paper's single hash table), each with its own device. Without a
// -pmem-* flag the parts live in process memory and die with it.
// Persistence modes:
//
//	nvmemcached -listen :11211 -mem 268435456 -pmem-file /var/lib/nvmc.pmem
//
// backs the NVRAM image with an mmap'd file: every acknowledged write is in
// the file's page cache the moment the operation returns, so the cache
// survives ANY process death — kill -9 included — and a restart with the
// same -pmem-file recovers it with no shutdown handshake. With -shards > 1
// the path names a directory of per-part images instead of one image file.
// The -durability policy picks the machine-crash story: "synced" (default)
// syncs in the background off the fence path, "strict" acknowledges writes
// only after a group-committed fdatasync, "buffered[:dur]" bounds how much
// acked work a crash can take back in exchange for mem-like fence cost.
//
//	nvmemcached -listen :11211 -mem 268435456 -pmem-dax /dev/dax0.0
//
// maps real persistent memory (a devdax device or fsdax file) directly:
// fences persist cache lines with CLWB+SFENCE, no syscalls — strict
// durability at memory speed. Over a regular file it degrades to the
// page-cache guarantee (still kill -9 safe).
package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/memcache"
	"repro/internal/nvram"
	"repro/internal/repl"
	"repro/logfree"
)

// hugePageField is the start-up line's record of whether the devices' volatile
// images were taken as huge-page candidates, beside the kernel's THP mode —
// accepted advice buys nothing under "never". One field, no spaces:
// hugepages=advised:282MiB,thp=madvise | refused:"invalid argument",thp=... |
// unsupported,thp=n/a (not linux) | none,thp=... (devices under 4 MiB).
func hugePageField(rts []*logfree.Runtime) string {
	var advised uint64
	var refusal error
	for _, rt := range rts {
		n, err := rt.Device().HugePages()
		advised += n
		if refusal == nil {
			refusal = err
		}
	}
	status := "none"
	switch {
	case errors.Is(refusal, errors.ErrUnsupported):
		status = "unsupported"
	case refusal != nil:
		status = fmt.Sprintf("refused:%q", refusal)
	case advised > 0:
		status = fmt.Sprintf("advised:%dMiB", advised>>20)
	}
	thp := "n/a"
	if b, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled"); err == nil {
		// "always [madvise] never": the bracketed word is the mode in force.
		if _, rest, ok := bytes.Cut(b, []byte("[")); ok {
			if mode, _, ok := bytes.Cut(rest, []byte("]")); ok {
				thp = string(mode)
			}
		}
	}
	return "hugepages=" + status + ",thp=" + thp
}

// residentField is the start-up line's record of how much of the devices'
// address space is resident: the populated prefixes summed over the shards
// (resident=34MiB). Memory becomes resident as each pool carves into it, 2 MiB
// at a time; a reopened image is resident up to its committed size.
func residentField(rts []*logfree.Runtime) string {
	var populated uint64
	for _, rt := range rts {
		n, _ := rt.Device().Populated()
		populated += n
	}
	return fmt.Sprintf("resident=%dMiB", populated>>20)
}

func main() {
	listen := flag.String("listen", "127.0.0.1:11211", "listen address")
	mem := flag.Uint64("mem", 256<<20, "simulated NVRAM bytes (split across the shards)")
	buckets := flag.Int("buckets", 1<<16, "hash table buckets (split across the shards)")
	conns := flag.Int("conns", 4096, "max concurrently served connections (excess connections wait, they are not refused)")
	pmemFile := flag.String("pmem-file", "", "file-backed NVRAM (mmap): kill -9 safe, no image save needed; a pool DIRECTORY when -shards > 1")
	pmemDAX := flag.String("pmem-dax", "", "real pmem NVRAM (DAX mmap + CLWB/SFENCE): a devdax device or fsdax file; a pool DIRECTORY when -shards > 1")
	durability := flag.String("durability", "synced", "acknowledged-write policy on durable devices: strict, synced, or buffered[:duration]")
	shards := flag.Int("shards", 1, "independent runtime shards (rounded up to a power of two) that keys hash-route across")
	latency := flag.Duration("latency", nvram.DefaultWriteLatency, "simulated NVRAM write latency")
	sweep := flag.Duration("sweep", 30*time.Second, "expiry sweep interval; each sweep is one crawl over the device in address order, removing the items past their deadline (0 disables the sweeper)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty disables)")
	replicateTo := flag.String("replicate-to", "", "accept warm-standby followers on this address (primary role; \"127.0.0.1:0\" picks a free port)")
	follow := flag.String("follow", "", "stream from the primary's replication address (follower role: read-only until promoted via SIGUSR1)")
	promote := flag.Bool("promote", false, "start a previously-killed follower's image as a writable primary (clears its replication resume point)")
	maxGrow := flag.Uint64("max-grow", 0, "online-growth reserve in bytes: under allocator pressure the pool doubles (crash-atomically) up to this cap before evicting; 0 disables growth")
	maxBytes := flag.Uint64("max-bytes", 0, "logical cache budget in bytes (entry overhead + key + value): writes past it evict items not used lately; 0 = unlimited")
	snapshotTo := flag.String("snapshot-to", "", "on SIGUSR1 (non-follower), stream a live point-in-time snapshot to this path (written to .tmp, then renamed)")
	restoreFrom := flag.String("restore-from", "", "restore a snapshot stream into the cache at startup (requires an empty cache)")
	flag.Parse()

	if *pmemFile != "" && *pmemDAX != "" {
		log.Fatalf("nvmemcached: -pmem-file and -pmem-dax are mutually exclusive")
	}
	pmemPath := *pmemFile
	device := logfree.FileDevice(pmemPath)
	if *pmemDAX != "" {
		pmemPath = *pmemDAX
		device = logfree.DAXDevice(pmemPath)
	}
	policy, err := logfree.ParseDurability(*durability)
	if err != nil {
		log.Fatalf("nvmemcached: %v", err)
	}
	if *replicateTo != "" && *follow != "" {
		log.Fatalf("nvmemcached: -replicate-to and -follow are mutually exclusive")
	}
	if *promote && *follow != "" {
		log.Fatalf("nvmemcached: -promote starts a standalone server; promote a LIVE follower with SIGUSR1 instead")
	}

	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof listening on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("nvmemcached: pprof server: %v", err)
			}
		}()
	}

	// The operation contexts stay few whatever the connection cap: a
	// command holds one only while the engine runs it, and a command that
	// finds all of them out waits for one, so thousands of connections share
	// at most 65 per shard. The count is formatted into the image; a
	// reopened image keeps its own.
	sessionSlots := *conns
	if sessionSlots > 64 {
		sessionSlots = 64
	}
	cfg := memcache.Config{
		MemoryBytes:  *mem,
		Buckets:      *buckets,
		MaxConns:     sessionSlots,
		WriteLatency: *latency,
		Device:       device,
		Durability:   policy,
		Shards:       *shards,
		MaxBytes:     *maxBytes,
		MaxGrowBytes: *maxGrow,
		// Logged so the crash matrix can reconcile a restart's recovered
		// capacity against the set of grow targets ever acknowledged.
		OnGrow: func(total uint64) { log.Printf("grew pool to %d bytes", total) },
	}

	where := "memory"
	if pmemPath != "" {
		where = pmemPath
		// Logged before the (potentially long) attach-and-sweep so the crash
		// matrix can kill -9 a recovery in flight and verify the next one.
		log.Printf("attaching to %s (%s device, durability %s)", pmemPath, device.Kind, policy)
	}
	start := time.Now()
	cache, err := memcache.New(cfg)
	if err != nil {
		log.Fatalf("nvmemcached: open %s: %v", where, err)
	}
	rt := cache.Runtime()
	parts := len(rt.Parts())
	if cache.Recovered() {
		rs := cache.RecoveryStats()
		log.Printf("recovered %d items from %s in %v (shards=%d, %d active areas, %d leaked objects freed)",
			cache.Stats().Items, where, time.Since(start).Round(time.Microsecond),
			parts, rs.ActiveAreas, rs.Leaked)
		// Machine-parseable parallelism evidence for crash_e2e.sh: total is
		// the sum of the per-part recovery wall clocks, max the slowest
		// part — parallel recovery keeps the runtime's actual open time near
		// max, not total.
		var total, max time.Duration
		for _, d := range rt.ShardRecoveryDurations() {
			total += d
			if d > max {
				max = d
			}
		}
		log.Printf("shard recovery: shards=%d total_ms=%d max_ms=%d",
			parts, total.Milliseconds(), max.Milliseconds())
	} else {
		log.Printf("fresh cache: %d MiB NVRAM in %s, shards=%d, %d buckets",
			*mem>>20, where, parts, *buckets)
	}
	log.Printf("pool bytes: total=%d %s %s", cache.SizeBytes(), hugePageField(rt.Parts()), residentField(rt.Parts()))

	if *restoreFrom != "" {
		f, err := os.Open(*restoreFrom)
		if err != nil {
			log.Fatalf("nvmemcached: restore: %v", err)
		}
		start := time.Now()
		n, err := cache.RestoreSnapshot(bufio.NewReaderSize(f, 1<<20))
		f.Close()
		if err != nil {
			log.Fatalf("nvmemcached: restore %s: %v", *restoreFrom, err)
		}
		log.Printf("restored %d items from snapshot %s in %v",
			n, *restoreFrom, time.Since(start).Round(time.Microsecond))
	}

	// dumpSnapshot streams a live snapshot in the background (the serving
	// loop keeps running); tmp+rename so a crashed dump never clobbers the
	// previous good snapshot. One dump at a time.
	var snapshotBusy atomic.Bool
	dumpSnapshot := func() {
		if !snapshotBusy.CompareAndSwap(false, true) {
			log.Printf("snapshot already in progress, SIGUSR1 ignored")
			return
		}
		go func() {
			defer snapshotBusy.Store(false)
			start := time.Now()
			tmp := *snapshotTo + ".tmp"
			f, err := os.Create(tmp)
			if err != nil {
				log.Printf("nvmemcached: snapshot: %v", err)
				return
			}
			w := bufio.NewWriterSize(f, 1<<20)
			n, err := cache.Snapshot(w)
			if err == nil {
				err = w.Flush()
			}
			if err == nil {
				err = f.Sync()
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err == nil {
				err = os.Rename(tmp, *snapshotTo)
			}
			if err != nil {
				os.Remove(tmp)
				log.Printf("nvmemcached: snapshot: %v", err)
				return
			}
			log.Printf("snapshot: %d items to %s in %v",
				n, *snapshotTo, time.Since(start).Round(time.Millisecond))
		}()
	}

	// Replication roles. Wired before the client listener so a follower is
	// read-only from its very first client connection, and logged before the
	// "listening on" line so scripts scraping the CLIENT address still grab
	// the last "listening on" match.
	var primary *repl.Primary
	var follower *repl.Follower
	switch {
	case *replicateTo != "":
		primary = repl.NewPrimary(cache, repl.Options{})
		if err := primary.Listen(*replicateTo); err != nil {
			log.Fatalf("nvmemcached: replication listen: %v", err)
		}
		cache.SetReplication(primary, func() memcache.ReplStats {
			st := primary.Stats()
			return memcache.ReplStats{State: st.State, Seq: st.Seq, LagOps: st.LagOps, Reconnects: st.Accepts}
		})
		log.Printf("replication: accepting followers on %s", primary.Addr())
	case *follow != "":
		follower = repl.NewFollower(*follow, cache, repl.FollowerOptions{})
		cache.SetReplication(nil, func() memcache.ReplStats {
			st := follower.Stats()
			return memcache.ReplStats{State: st.State, Seq: st.Seq, LagOps: st.LagOps, Reconnects: st.Reconnects}
		})
		go follower.Run()
		log.Printf("replication: following %s (read-only until promoted)", *follow)
	case *promote:
		if err := cache.SetReplMeta(0, 0); err != nil {
			log.Fatalf("nvmemcached: clear replication resume point: %v", err)
		}
		cache.SetReplication(nil, func() memcache.ReplStats {
			return memcache.ReplStats{State: "promoted"}
		})
		log.Printf("promoted: serving writes")
	}

	srv, err := memcache.NewServer(*listen, *conns, cache, cache.Stats)
	if err != nil {
		log.Fatalf("nvmemcached: listen: %v", err)
	}
	if follower != nil {
		srv.SetReadOnly(true)
	}
	log.Printf("listening on %s", srv.Addr())

	stopSweeper := func() {}
	startSweeper := func() {
		if *sweep > 0 {
			stopSweeper = cache.StartSweeper(*sweep)
			log.Printf("expiry sweeper running every %v", *sweep)
		}
	}
	if follower == nil {
		// A follower's expirations arrive through the stream (the primary
		// sweeps and replicates the deletes); its own sweeper starts at
		// promotion.
		startSweeper()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGUSR1, syscall.SIGUSR2)
loop:
	for s := range sig {
		switch s {
		case syscall.SIGUSR1:
			if follower == nil {
				if *snapshotTo != "" {
					dumpSnapshot()
				} else {
					log.Printf("SIGUSR1 ignored: not a follower")
				}
				continue
			}
			if err := follower.Promote(); err != nil {
				log.Fatalf("nvmemcached: promote: %v", err)
			}
			cache.SetReplication(nil, func() memcache.ReplStats {
				st := follower.Stats()
				return memcache.ReplStats{State: st.State, Seq: st.Seq, LagOps: st.LagOps, Reconnects: st.Reconnects}
			})
			srv.SetReadOnly(false)
			startSweeper()
			log.Printf("promoted: serving writes")
		case syscall.SIGUSR2:
			if primary == nil {
				log.Printf("SIGUSR2 ignored: not a primary")
				continue
			}
			log.Printf("replication: dropping followers (fault injection)")
			primary.DropFollowers()
		default:
			break loop
		}
	}
	log.Printf("shutting down")
	stopSweeper()
	if primary != nil {
		primary.Close()
	}
	if follower != nil {
		follower.Close()
	}
	srv.Close()
	items := cache.Stats().Items
	// The mapping already holds everything; Close just flushes it
	// synchronously and unmaps.
	if err := cache.Close(); err != nil {
		log.Fatalf("nvmemcached: close: %v", err)
	}
	log.Printf("closed with %d items in %s", items, where)
}
