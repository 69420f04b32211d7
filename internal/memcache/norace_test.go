//go:build !race

package memcache

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = false
