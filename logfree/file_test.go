package logfree

// File-backed runtimes: FileDevice/BackendDevice open-or-recover semantics and
// the kill -9 contract — everything acknowledged before an abrupt process
// death is present after reopening the backing file, with no image save.

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/nvram"
	"repro/internal/pmem"
)

func fileKey(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }
func fileVal(i int) []byte { return []byte(fmt.Sprintf("val-%04d", i)) }

// TestFileRuntimeAbandonRecover is the in-process kill -9 analogue: the
// first runtime is never closed or saved — the backing file must still hold
// every completed write when a second runtime opens it.
func TestFileRuntimeAbandonRecover(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rt.pmem")
	rt, err := New(WithDevice(FileDevice(path)), WithSize(16<<20))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Recovered() {
		t.Fatal("fresh file reported recovered")
	}
	m, err := rt.Map("kv", 256)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := m.Set(fileKey(i), fileVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	// No Close, no Save: abandon rt as a kill -9 would (dropping the
	// single-owner file lock the way a process death does).
	if err := rt.Device().Backend().(*nvram.FileBackend).Abandon(); err != nil {
		t.Fatal(err)
	}

	rt2, err := New(WithDevice(FileDevice(path))) // size adopted from the file
	if err != nil {
		t.Fatal(err)
	}
	if !rt2.Recovered() {
		t.Fatal("populated file not recovered")
	}
	m2, err := rt2.Map("kv", 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, ok := m2.Get(fileKey(i))
		if !ok || string(v) != string(fileVal(i)) {
			t.Fatalf("key %d after abandon+reopen: %q,%v", i, v, ok)
		}
	}
	if err := rt2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFileRuntimeCrashThenReopen chains both failure models: an in-process
// power failure (SimulateCrash) followed by a cross-"process" reopen of the
// backing file.
func TestFileRuntimeCrashThenReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rt.pmem")
	rt, err := New(WithDevice(FileDevice(path)), WithSize(16<<20))
	if err != nil {
		t.Fatal(err)
	}
	om, err := rt.OrderedMap("board")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := om.Set(fileKey(i), fileVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	rt2, err := rt.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	om2, err := rt2.OrderedMap("board")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := om2.Get(fileKey(42)); !ok || string(v) != "val-0042" {
		t.Fatalf("post-crash get: %q,%v", v, ok)
	}
	if err := rt2.Close(); err != nil {
		t.Fatal(err)
	}

	rt3, err := New(WithDevice(FileDevice(path)))
	if err != nil {
		t.Fatal(err)
	}
	om3, err := rt3.OrderedMap("board")
	if err != nil {
		t.Fatal(err)
	}
	prev := ""
	count := 0
	for k, v := range om3.Ascend() {
		if prev != "" && !(prev < string(k)) {
			t.Fatalf("scan out of order after reopen: %q then %q", prev, k)
		}
		prev = string(k)
		want := "val-" + strings.TrimPrefix(string(k), "key-")
		if string(v) != want {
			t.Fatalf("value mismatch after reopen: %q=%q", k, v)
		}
		count++
	}
	if count != 100 {
		t.Fatalf("reopened scan found %d keys, want 100", count)
	}
	if err := rt3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWithBackendOpenOrRecover: a caller-constructed backend holding a
// formatted pool is recovered, not reformatted.
func TestWithBackendOpenOrRecover(t *testing.T) {
	b := nvram.NewMemBackend(16 << 20)
	rt, err := New(WithDevice(BackendDevice(b)))
	if err != nil {
		t.Fatal(err)
	}
	if rt.Recovered() {
		t.Fatal("fresh backend reported recovered")
	}
	m, _ := rt.Map("kv", 64)
	if err := m.Set([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	rt2, err := New(WithDevice(BackendDevice(b)))
	if err != nil {
		t.Fatal(err)
	}
	if !rt2.Recovered() {
		t.Fatal("populated backend not recovered")
	}
	m2, _ := rt2.Map("kv", 64)
	if v, ok := m2.Get([]byte("a")); !ok || string(v) != "1" {
		t.Fatalf("backend round trip: %q,%v", v, ok)
	}
}

// TestFileOptionValidation: size mismatches and invalid option combinations
// fail loudly instead of silently reformatting someone's data.
func TestFileOptionValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rt.pmem")
	rt, err := New(WithDevice(FileDevice(path)), WithSize(16<<20))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := New(WithDevice(FileDevice(path)), WithSize(32<<20)); err == nil ||
		!strings.Contains(err.Error(), "formatted for") {
		t.Fatalf("size mismatch = %v, want formatted-for error", err)
	}
	if _, err := New(WithDevice(FileDevice(path)), WithVolatile(true)); err == nil {
		t.Fatal("FileDevice+WithVolatile accepted")
	}
}

// stampLayoutVersion makes the pool image at path read as one of layout
// version v: the pool header's layout-version word (its fourth, device
// address 88) becomes v. Version 0 is an image written before the header had
// that word, version 1 one whose pages hold the power-of-two size classes.
func stampLayoutVersion(t *testing.T, path string, v uint64) {
	t.Helper()
	d, _, err := nvram.OpenFileDevice(path, nvram.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d.Store(nvram.LineSize+24, v)
	d.NewFlusher().Sync(nvram.LineSize + 24)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFileRuntimeRefusesOtherLayoutVersion: an image of another durable
// layout is refused with ErrLayoutVersion (pmem.ErrLayoutVersion) and left
// as it is, not reformatted.
func TestFileRuntimeRefusesOtherLayoutVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rt.pmem")
	rt, err := New(WithDevice(FileDevice(path)), WithSize(16<<20))
	if err != nil {
		t.Fatal(err)
	}
	m, err := rt.Map("kv", 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Set(fileKey(1), fileVal(1)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	for v := uint64(0); v < pmem.LayoutVersion; v++ {
		stampLayoutVersion(t, path, v)
		for i := 0; i < 2; i++ { // the refused open leaves the image alone
			if _, err := New(WithDevice(FileDevice(path))); !errors.Is(err, ErrLayoutVersion) || !errors.Is(err, pmem.ErrLayoutVersion) {
				t.Fatalf("open %d of a version-%d image: %v, want pmem.ErrLayoutVersion", i, v, err)
			}
		}
	}
}
