package bench

import (
	"testing"

	"repro/internal/epoch"
)

// stressRun drives one 8-thread, 100%-update hash-table point with the
// epoch manager's double-retire tracking on. The tracker keeps every manager
// it sees reachable, so it is on for the run, not for the package: the
// figure smokes build some fifty devices of 128 MiB each, and tracked they
// stay resident together.
func stressRun(t *testing.T, impl Impl, size int) {
	t.Helper()
	defer epoch.EnableRetireDebug()()
	ops := 150_000
	if testing.Short() {
		ops = 20_000
	}
	if _, err := Run(Config{
		Structure: Hash, Impl: impl, Size: size, Threads: 8,
		UpdateRatio: 1.0, Ops: ops,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFig5StylePointStress reproduces the fig5 hash point that surfaced a
// page co-ownership bug: 8 threads, 50/50 updates, heavy reclamation churn.
func TestFig5StylePointStress(t *testing.T) {
	for i := 0; i < 3; i++ {
		stressRun(t, ImplLC, 4096)
	}
}

// TestHotKeyChurnStress maximizes helper/deleter unlink races: tiny key
// space, all threads colliding, both persistence modes.
func TestHotKeyChurnStress(t *testing.T) {
	for _, impl := range []Impl{ImplLP, ImplLC} {
		stressRun(t, impl, 32)
	}
}
