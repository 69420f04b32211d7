package logfree

// The durability surface: DeviceSpec constructors, ParseDurability, the
// policy-derived link-cache rule, runtimes on every device kind under every
// policy, and the buffered flush timer.

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/nvram"
)

func TestDeviceSpecConstructors(t *testing.T) {
	if MemDevice().Kind != DeviceMem {
		t.Fatal("MemDevice kind")
	}
	if d := FileDevice("/x"); d.Kind != DeviceFile || d.Path != "/x" {
		t.Fatalf("FileDevice = %+v", d)
	}
	if d := DAXDevice("/x"); d.Kind != DeviceDAX || d.Path != "/x" {
		t.Fatalf("DAXDevice = %+v", d)
	}
	// Empty/nil specs collapse to MemDevice so conditional wiring composes.
	for name, d := range map[string]DeviceSpec{
		"file-empty": FileDevice(""), "dax-empty": DAXDevice(""), "backend-nil": BackendDevice(nil),
	} {
		if d.Kind != DeviceMem {
			t.Errorf("%s: kind = %v, want mem", name, d.Kind)
		}
	}
	for k, want := range map[DeviceKind]string{
		DeviceMem: "mem", DeviceFile: "file", DeviceDAX: "dax", DeviceBackend: "backend",
	} {
		if got := k.String(); got != want {
			t.Errorf("DeviceKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestParseDurability(t *testing.T) {
	for in, want := range map[string]Durability{
		"":               Synced(),
		"synced":         Synced(),
		"strict":         Strict(),
		"buffered":       Buffered(0),
		"buffered:250ms": Buffered(250 * time.Millisecond),
	} {
		got, err := ParseDurability(in)
		if err != nil || got != want {
			t.Errorf("ParseDurability(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"eventual", "buffered:", "buffered:bogus", "buffered:-5ms", "buffered:0s"} {
		if _, err := ParseDurability(bad); err == nil {
			t.Errorf("ParseDurability(%q) succeeded", bad)
		}
	}
	// The flag round-trip: String() of a parsed policy re-parses to itself.
	for _, s := range []string{"strict", "synced", "buffered:250ms"} {
		p, _ := ParseDurability(s)
		rt, err := ParseDurability(p.String())
		if err != nil || rt != p {
			t.Errorf("round-trip %q -> %q -> %v, %v", s, p, rt, err)
		}
	}
	if got := Buffered(0).MaxStaleness(); got != nvram.DefaultMaxStaleness {
		t.Errorf("Buffered(0).MaxStaleness() = %v, want default %v", got, nvram.DefaultMaxStaleness)
	}
	if got := Strict().MaxStaleness(); got != 0 {
		t.Errorf("Strict().MaxStaleness() = %v, want 0", got)
	}
}

// The link cache is derived from device+policy: always honored on volatile
// substrates, and on durable ones only under Buffered — whose flush timer
// bounds the volatile links' exposure.
func TestEffectiveLinkCacheRule(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want bool
	}{
		{"mem", []Option{WithLinkCache(true)}, true},
		{"volatile", []Option{WithLinkCache(true), WithVolatile(true)}, true},
		{"file-synced", []Option{WithLinkCache(true), WithDevice(FileDevice("/x"))}, false},
		{"file-strict", []Option{WithLinkCache(true), WithDevice(FileDevice("/x")), WithDurability(Strict())}, false},
		{"file-buffered", []Option{WithLinkCache(true), WithDevice(FileDevice("/x")), WithDurability(Buffered(0))}, true},
		{"dax-synced", []Option{WithLinkCache(true), WithDevice(DAXDevice("/x"))}, false},
		{"dax-buffered", []Option{WithLinkCache(true), WithDevice(DAXDevice("/x")), WithDurability(Buffered(0))}, true},
		{"not-requested", []Option{WithDevice(FileDevice("/x")), WithDurability(Buffered(0))}, false},
	}
	for _, tc := range cases {
		cfg := buildConfig(tc.opts)
		if got := cfg.effectiveLinkCache(); got != tc.want {
			t.Errorf("%s: effectiveLinkCache = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// Every durability policy over a file device: write, reopen (abandoned, not
// closed — the kill -9 analogue), verify. The acknowledged-operation
// contract for process crashes is identical across policies; they differ
// only in machine-crash exposure, which an in-process test cannot model.
func TestFileDeviceAllPolicies(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy Durability
	}{
		{"strict", Strict()},
		{"synced", Synced()},
		{"buffered", Buffered(2 * time.Millisecond)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "rt.pmem")
			rt, err := New(WithDevice(FileDevice(path)), WithDurability(tc.policy), WithSize(8<<20))
			if err != nil {
				t.Fatal(err)
			}
			m, err := rt.Map("kv", 64)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				if err := m.Set(fileKey(i), fileVal(i)); err != nil {
					t.Fatal(err)
				}
			}
			// Abandon without Close — the kill -9 analogue. The buffered
			// flush timer must stop first: in-process its goroutine would
			// fault on the unmapped image (a real SIGKILL takes the whole
			// process with it).
			rt.stopFlushTimer()
			if err := rt.Device().Backend().(*nvram.FileBackend).Abandon(); err != nil {
				t.Fatal(err)
			}

			rt2, err := New(WithDevice(FileDevice(path)), WithDurability(tc.policy))
			if err != nil {
				t.Fatal(err)
			}
			defer rt2.Close()
			if !rt2.Recovered() {
				t.Fatal("reopen did not recover")
			}
			m2, err := rt2.Map("kv", 64)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				if v, ok := m2.Get(fileKey(i)); !ok || string(v) != string(fileVal(i)) {
					t.Fatalf("key %d lost across %s reopen: %q, %v", i, tc.name, v, ok)
				}
			}
		})
	}
}

// A DAX-device runtime: same open-or-recover contract as the file device
// (the two share the backing image format), flushing lines with CLWB/SFENCE
// instead of msync.
func TestDAXDeviceRuntime(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rt.pmem")
	rt, err := New(WithDevice(DAXDevice(path)), WithDurability(Strict()), WithSize(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.Map("kv", 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := m.Set(fileKey(i), fileVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	// A file-backend reopen of the DAX image: device kinds are a property of
	// the open, not the image.
	rt2, err := New(WithDevice(FileDevice(path)))
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	if !rt2.Recovered() {
		t.Fatal("file reopen of dax image did not recover")
	}
	m2, err := rt2.Map("kv", 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if v, ok := m2.Get(fileKey(i)); !ok || string(v) != string(fileVal(i)) {
			t.Fatalf("key %d lost crossing dax->file: %q, %v", i, v, ok)
		}
	}
}

// Buffered on a durable device enables the link cache and starts the flush
// timer; acked writes older than MaxStaleness must survive SimulateCrash
// because the timer already flushed their links.
func TestBufferedFlushTimerBoundsStaleness(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rt.pmem")
	const staleness = 5 * time.Millisecond
	rt, err := New(WithDevice(FileDevice(path)), WithDurability(Buffered(staleness)),
		WithLinkCache(true), WithSize(8<<20))
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.Map("kv", 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := m.Set(fileKey(i), fileVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Far beyond the staleness bound: the background timer must have flushed
	// the link cache by now, so the crash can lose nothing.
	time.Sleep(20 * staleness)

	rt2, err := rt.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	m2, err := rt2.Map("kv", 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if v, ok := m2.Get(fileKey(i)); !ok || string(v) != string(fileVal(i)) {
			t.Fatalf("acked write %d older than MaxStaleness lost in crash: %q, %v", i, v, ok)
		}
	}
}
