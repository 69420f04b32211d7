package nvram

import "time"

// SyncMode selects how a FileBackend's background syncer treats the line
// ranges fences hand it (see SyncPolicy). The syncer replaced the old
// inline fence-time msync: fences enqueue dirty pages and the syncer
// goroutine coalesces them — across fences — into page-merged msync calls
// off the hot path. Kill -9 safety never depends on the msync at all (the
// shared mapping's page cache provides it); the modes differ only in when
// data reaches stable storage, i.e. what a MACHINE crash can lose.
type SyncMode uint8

const (
	// SyncEager flushes dirty ranges as soon as the syncer can get to them
	// (msync(MS_ASYNC), starting kernel writeback); fences never block on
	// the syncer. The default, and the kill -9 durability contract file
	// deployments have always had.
	SyncEager SyncMode = iota

	// SyncStrict makes every fence block until the syncer's durable
	// watermark covers it: the syncer msyncs the accumulated ranges and
	// issues one fdatasync, then releases every fence waiting at or below
	// that ticket (group commit — N concurrent fences share one storage
	// round-trip). Acknowledged operations survive machine crashes.
	SyncStrict

	// SyncBuffered lets dirty ranges accumulate for up to MaxStaleness
	// before the syncer flushes them with msync + fdatasync: bounded-
	// staleness machine-crash durability (a power failure can lose at most
	// the last MaxStaleness of acknowledged writes; kill -9 still loses
	// nothing). The file-deployment counterpart of the paper's §4 buffered
	// durable linearizability.
	SyncBuffered
)

func (m SyncMode) String() string {
	switch m {
	case SyncEager:
		return "eager"
	case SyncStrict:
		return "strict"
	case SyncBuffered:
		return "buffered"
	}
	return "unknown"
}

// SyncPolicy is a FileBackend's durability policy: the syncer mode plus the
// staleness bound of SyncBuffered.
type SyncPolicy struct {
	Mode SyncMode

	// MaxStaleness bounds how long a completed write-back may wait before
	// the syncer flushes it in SyncBuffered mode (ignored otherwise).
	// Zero means DefaultMaxStaleness.
	MaxStaleness time.Duration
}

// DefaultMaxStaleness is the SyncBuffered flush interval when the policy
// does not name one.
const DefaultMaxStaleness = 100 * time.Millisecond

func (p SyncPolicy) staleness() time.Duration {
	if p.MaxStaleness <= 0 {
		return DefaultMaxStaleness
	}
	return p.MaxStaleness
}

// SyncStats counts a FileBackend syncer's work since open: the ratio of
// Fdatasyncs to Tickets is what a durability policy costs in storage round
// trips, independent of what one costs on the machine at hand.
type SyncStats struct {
	Tickets    uint64 // fences that handed the syncer lines (SyncLines calls)
	Flushes    uint64 // flush rounds completed (each msyncs one merged batch)
	Fdatasyncs uint64 // flush rounds that ended in an fdatasync
}
