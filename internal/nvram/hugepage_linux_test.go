//go:build linux

package nvram

import (
	"bytes"
	"os"
	"strconv"
	"testing"
)

// smapsKB reads one row of this process's smaps_rollup, in kB.
func smapsKB(t *testing.T, row string) uint64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/smaps_rollup")
	if err != nil {
		t.Skipf("no smaps_rollup: %v", err)
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if f := bytes.Fields(line); len(f) == 3 && string(f[0]) == row+":" {
			kb, err := strconv.ParseUint(string(f[1]), 10, 64)
			if err != nil {
				t.Fatalf("smaps_rollup: %q: %v", line, err)
			}
			return kb
		}
	}
	t.Skipf("smaps_rollup has no %s row", row)
	return 0
}

// On a kernel that offers transparent huge pages, a device's images end up on
// them: 64 MiB of words and as much persisted image, touched once per 4 KiB.
func TestDeviceImagesLandOnHugePages(t *testing.T) {
	if !imagesMapped {
		t.Skip("race-detector builds keep the images on the Go heap, unadvised")
	}
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil {
		t.Skipf("kernel without transparent huge pages: %v", err)
	}
	if !bytes.Contains(mode, []byte("[always]")) && !bytes.Contains(mode, []byte("[madvise]")) {
		t.Skipf("transparent huge pages are off: %s", bytes.TrimSpace(mode))
	}
	before := smapsKB(t, "AnonHugePages")
	d := New(Config{Size: 64 << 20})
	defer d.Close()
	advised, err := d.HugePages()
	if err != nil {
		t.Fatalf("the kernel refused the advice: %v", err)
	}
	// Every image is mapped on a huge-page boundary and advised whole: 64 MiB
	// of words and the two per-line arrays of 4 MiB each.
	if advised != 72<<20 {
		t.Fatalf("advised %d bytes of a 64 MiB device, want %d", advised, 72<<20)
	}
	f := d.NewFlusher()
	for a := Addr(4096); a < d.Size(); a += 4096 {
		d.Store(a, a)
		f.CLWB(a)
	}
	f.Fence()
	got := smapsKB(t, "AnonHugePages") - before
	if got < 32<<10 {
		// Advised but not supplied: the host's free memory is fragmented or
		// under pressure. That is the host's state, not a defect here.
		t.Skipf("AnonHugePages grew by %d kB (advised %d kB): the kernel supplied too few huge pages to tell", got, advised>>10)
	}
	t.Logf("AnonHugePages grew by %d kB (advised %d kB)", got, advised>>10)
}

// A crash restores its dirty lines and touches no other page: eight dirty
// lines on a 256 MiB device add at most a few huge pages of residency, where
// a restore of the whole image would fault all of it in.
func TestCrashTouchesOnlyDirtyLines(t *testing.T) {
	if !imagesMapped {
		t.Skip("race-detector builds keep the images on the Go heap")
	}
	const size = 256 << 20
	d := New(Config{Size: size})
	defer d.Close()
	for i := uint64(0); i < 8; i++ {
		d.Store(Addr(i*size/8+WordSize), i+1)
	}
	before := smapsKB(t, "Rss")
	d.Crash()
	after := smapsKB(t, "Rss")
	if after > before+8<<10 {
		t.Fatalf("Rss grew by %d kB across a crash of 8 dirty lines", after-before)
	}
	for i := uint64(0); i < 8; i++ {
		if v := d.Load(Addr(i*size/8 + WordSize)); v != 0 {
			t.Fatalf("unsynced store %d survived Crash: %d", i, v)
		}
	}
}
