package memcache

// File-backed NV-Memcached: a FileDevice turns the cache into a kill -9
// survivable server — these tests exercise the recovery path the crash_e2e
// script drives across real process boundaries, and the seam that decides
// what the device path means at one shard and at more.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/nvram"
	"repro/internal/pmem"
	"repro/logfree"
)

func fileConfig(path string, shards int) Config {
	return Config{MemoryBytes: 32 << 20, Buckets: 4096, MaxConns: 2, Shards: shards,
		Device: logfree.FileDevice(path)}
}

func TestFileCacheRecoversWithoutSave(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		cfg := fileConfig(filepath.Join(t.TempDir(), "mc.pmem"), shards)
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if c.Recovered() {
			t.Fatal("fresh file reported recovered")
		}
		const n = 300
		for i := 0; i < n; i++ {
			k := []byte(fmt.Sprintf("item-%03d", i))
			if err := c.Set(k, []byte(fmt.Sprintf("payload-%03d", i)), uint16(i), 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Set([]byte("ctr"), []byte("0"), 0, 0); err != nil {
			t.Fatal(err)
		}
		if v, err := c.Incr([]byte("ctr"), 7); err != nil || v != 7 {
			t.Fatalf("incr = %d, %v", v, err)
		}
		// Abandon without Close or SaveImage: the kill -9 model (Abandon drops
		// the single-owner file lock the way a process death does).
		for _, rt := range c.Runtime().Parts() {
			if err := rt.Device().Backend().(*nvram.FileBackend).Abandon(); err != nil {
				t.Fatal(err)
			}
		}

		c2, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !c2.Recovered() {
			t.Fatal("populated file not recovered")
		}
		auditRecovered(t, c2)
		if rs := c2.RecoveryStats(); rs.ObjectsChecked == 0 {
			t.Fatalf("aggregated recovery stats empty: %+v", rs)
		}
		if got := c2.Stats().Items; got != n+1 {
			t.Fatalf("recovered item count = %d, want %d", got, n+1)
		}
		for i := 0; i < n; i++ {
			k := []byte(fmt.Sprintf("item-%03d", i))
			v, flags, ok := c2.Get(k)
			if !ok || string(v) != fmt.Sprintf("payload-%03d", i) || flags != uint16(i) {
				t.Fatalf("item %d after reopen: %q flags=%d ok=%v", i, v, flags, ok)
			}
		}
		if v, err := c2.Incr([]byte("ctr"), 0); err != nil || v != 7 {
			t.Fatalf("counter after reopen = %d, %v; want 7", v, err)
		}
		if err := c2.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFileDeviceCostsTheSameCounts: the substrate changes what a sync wait
// costs, never how many there are. The same single-goroutine sequence on
// the simulated device and on a file ends with identical device counters.
func TestFileDeviceCostsTheSameCounts(t *testing.T) {
	run := func(dev logfree.DeviceSpec) nvram.Stats {
		c, err := New(Config{MemoryBytes: 32 << 20, Buckets: 4096, MaxConns: 2, Shards: 1,
			DisableLinkCache: true, Device: dev, Durability: logfree.Synced()})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := 0; i < 3000; i++ {
			k := []byte(fmt.Sprintf("key-%03d", i*7%500))
			switch i % 3 {
			case 0:
				if err := c.Set(k, []byte(fmt.Sprintf("value-%04d", i)), 0, 0); err != nil {
					t.Fatal(err)
				}
			case 1:
				c.Get(k)
			case 2:
				c.Delete(k)
			}
		}
		c.Flush()
		return c.Device().Stats()
	}
	mem := run(logfree.MemDevice())
	file := run(logfree.FileDevice(filepath.Join(t.TempDir(), "mc.pmem")))
	if mem.SyncWaits == 0 {
		t.Fatalf("sequence paid no sync waits: %+v", mem)
	}
	if mem != file {
		t.Fatalf("device counters differ by substrate: mem %+v, file %+v", mem, file)
	}
}

func TestFileCacheSurvivesServesAfterReopen(t *testing.T) {
	forShards(t, func(t *testing.T, shards int) {
		cfg := fileConfig(filepath.Join(t.TempDir(), "mc.pmem"), shards)
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Set([]byte("k"), []byte("v1"), 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		c2, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !c2.Recovered() {
			t.Fatal("reopened cache does not report Recovered")
		}
		// The recovered cache must keep serving writes (allocator, expiry index
		// and context pool all rebuilt over the mapped image).
		if err := c2.Set([]byte("k"), []byte("v2"), 0, 0); err != nil {
			t.Fatal(err)
		}
		if !c2.Delete([]byte("k")) {
			t.Fatal("delete of live key reported miss")
		}
		if _, _, ok := c2.Get([]byte("k")); ok {
			t.Fatal("deleted key still present")
		}
		if err := c2.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFileCacheOneShardIsThePlainImage pins the on-disk compatibility of the
// one-shard layout: the path is a regular file with no pool manifest beside
// it, in the format a plain logfree runtime writes — so an image formatted
// without any pool (as every release before the pool became the only engine
// did) opens through New and is recovered, not reformatted.
func TestFileCacheOneShardIsThePlainImage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mc.pmem")

	rt, err := logfree.New(logfree.WithDevice(logfree.FileDevice(path)), logfree.WithSize(32<<20))
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.Map(cacheMapName, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.SetItem([]byte("old"), []byte("image"), 5, 0); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	c, err := New(fileConfig(path, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.Recovered() {
		t.Fatal("plain logfree image was not recovered")
	}
	if v, fl, ok := c.Get([]byte("old")); !ok || string(v) != "image" || fl != 5 {
		t.Fatalf("item from the plain image: %q,%d,%v", v, fl, ok)
	}
	if st, err := os.Stat(path); err != nil || !st.Mode().IsRegular() {
		t.Fatalf("one-shard path is not a regular file: %v, %v", st, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("one-shard cache left %d entries beside its image (a manifest?): %v", len(entries), entries)
	}
}

// TestFileCacheShardCountMismatch: what is on disk wins over the request. A
// pool directory opened as one shard, and a single image opened as four,
// both fail naming the two counts — and leave every byte where it was.
func TestFileCacheShardCountMismatch(t *testing.T) {
	for _, tc := range []struct{ made, asked int }{{4, 1}, {1, 4}} {
		t.Run(fmt.Sprintf("made=%d,asked=%d", tc.made, tc.asked), func(t *testing.T) {
			root := t.TempDir()
			path := filepath.Join(root, "mc.pmem")
			c, err := New(fileConfig(path, tc.made))
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Set([]byte("k"), []byte("v"), 0, 0); err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			before := snapshotTree(t, root)

			c2, err := New(fileConfig(path, tc.asked))
			if err == nil {
				c2.Close()
				t.Fatalf("a %d-shard cache opened as %d shards", tc.made, tc.asked)
			}
			for _, count := range []int{tc.made, tc.asked} {
				if !strings.Contains(err.Error(), fmt.Sprint(count)) {
					t.Fatalf("error %q does not name shard count %d", err, count)
				}
			}
			after := snapshotTree(t, root)
			if len(after) != len(before) {
				t.Fatalf("failed open changed the file set: %d files before, %d after", len(before), len(after))
			}
			for name, data := range before {
				if !bytes.Equal(after[name], data) {
					t.Fatalf("failed open modified %s", name)
				}
			}

			c3, err := New(fileConfig(path, tc.made))
			if err != nil {
				t.Fatalf("reopen with the right count after the failed open: %v", err)
			}
			defer c3.Close()
			if v, _, ok := c3.Get([]byte("k")); !ok || string(v) != "v" {
				t.Fatalf("item after the failed open: %q,%v", v, ok)
			}
		})
	}
}

// snapshotTree reads every regular file under root, keyed by relative path.
func snapshotTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		out[rel] = data
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBackendDeviceShards: a caller-built backend is one image, so it runs a
// one-shard cache and cannot describe a wider pool.
func TestBackendDeviceShards(t *testing.T) {
	open := func(shards int) (*Cache, error) {
		fb, _, err := nvram.OpenFileBackend(filepath.Join(t.TempDir(), "mc.pmem"), 32<<20, 0)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(Config{MemoryBytes: 32 << 20, Buckets: 4096, MaxConns: 2, Shards: shards,
			Device: logfree.BackendDevice(fb)})
		if err != nil {
			fb.Close()
		}
		return c, err
	}
	c, err := open(1)
	if err != nil {
		t.Fatalf("BackendDevice at one shard: %v", err)
	}
	defer c.Close()
	if err := c.Set([]byte("k"), []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if v, _, ok := c.Get([]byte("k")); !ok || string(v) != "v" {
		t.Fatalf("Get on a BackendDevice cache: %q,%v", v, ok)
	}
	if c2, err := open(2); err == nil {
		c2.Close()
		t.Fatal("BackendDevice accepted at two shards")
	}
}

// TestFileCacheRefusesOtherLayoutVersion: a cache image of another durable
// layout is refused with pmem.ErrLayoutVersion instead of being recovered as
// this layout or reformatted.
func TestFileCacheRefusesOtherLayoutVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mc.pmem")
	c, err := New(fileConfig(path, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set([]byte("k"), []byte("v"), 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Version 0 is an image older than the word; the one before the current
	// is the last layout that shipped.
	for _, v := range []uint64{0, pmem.LayoutVersion - 1} {
		d, _, err := nvram.OpenFileDevice(path, nvram.Config{})
		if err != nil {
			t.Fatal(err)
		}
		d.Store(nvram.LineSize+24, v) // the pool header's layout-version word
		d.NewFlusher().Sync(nvram.LineSize + 24)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := New(fileConfig(path, 1)); !errors.Is(err, pmem.ErrLayoutVersion) {
			t.Fatalf("New on a version-%d image: %v, want pmem.ErrLayoutVersion", v, err)
		}
	}
}
