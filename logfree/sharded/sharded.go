// Package sharded holds the old names of a runtime of several parts, now
// logfree.Runtime opened with logfree.WithShards. It declares aliases only;
// new code uses logfree.
package sharded

import "repro/logfree"

// Pool is a runtime of 1..N parts.
type Pool = logfree.Runtime

var (
	// Open is logfree.New.
	Open = logfree.New
	// WithShards is logfree.WithShards.
	WithShards = logfree.WithShards
	// WithShardSize is logfree.WithSize, which sizes each part.
	WithShardSize = logfree.WithSize
	// WithWriteLatency is logfree.WithWriteLatency.
	WithWriteLatency = logfree.WithWriteLatency
	// WithLinkCache is logfree.WithLinkCache.
	WithLinkCache = logfree.WithLinkCache
	// WithMaxThreads is logfree.WithMaxThreads.
	WithMaxThreads = logfree.WithMaxThreads
)
