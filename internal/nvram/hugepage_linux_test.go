//go:build linux

package nvram

import (
	"bytes"
	"os"
	"strconv"
	"testing"
)

// anonHugeKB reads AnonHugePages of this process from smaps_rollup.
func anonHugeKB(t *testing.T) uint64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/smaps_rollup")
	if err != nil {
		t.Skipf("no smaps_rollup: %v", err)
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if f := bytes.Fields(line); len(f) == 3 && string(f[0]) == "AnonHugePages:" {
			kb, err := strconv.ParseUint(string(f[1]), 10, 64)
			if err != nil {
				t.Fatalf("smaps_rollup: %q: %v", line, err)
			}
			return kb
		}
	}
	t.Skip("smaps_rollup has no AnonHugePages row")
	return 0
}

// On a kernel that offers transparent huge pages, a device's images end up on
// them: 64 MiB of words and as much persisted image, touched once per 4 KiB.
func TestDeviceImagesLandOnHugePages(t *testing.T) {
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil {
		t.Skipf("kernel without transparent huge pages: %v", err)
	}
	if !bytes.Contains(mode, []byte("[always]")) && !bytes.Contains(mode, []byte("[madvise]")) {
		t.Skipf("transparent huge pages are off: %s", bytes.TrimSpace(mode))
	}
	before := anonHugeKB(t)
	d := New(Config{Size: 64 << 20})
	advised, err := d.HugePages()
	if err != nil {
		t.Fatalf("the kernel refused the advice: %v", err)
	}
	// words lacks at most one huge page at either end; the per-line arrays
	// (4 MiB each) may add up to two whole pages apiece.
	if advised < 60<<20 || advised > 72<<20 {
		t.Fatalf("advised %d bytes of a 64 MiB device", advised)
	}
	f := d.NewFlusher()
	for a := Addr(4096); a < d.Size(); a += 4096 {
		d.Store(a, a)
		f.CLWB(a)
	}
	f.Fence()
	got := anonHugeKB(t) - before
	if got < 32<<10 {
		// Advised but not supplied: the host's free memory is fragmented or
		// under pressure. That is the host's state, not a defect here.
		t.Skipf("AnonHugePages grew by %d kB (advised %d kB): the kernel supplied too few huge pages to tell", got, advised>>10)
	}
	t.Logf("AnonHugePages grew by %d kB (advised %d kB)", got, advised>>10)
}
