//go:build !race

package nvram

// raceEnabled reports a race-detector build; see StorePrivate.
const raceEnabled = false
