package main

// The metric catalog: every name the benchmark prints, with its unit. The
// tests hold this list and BENCHMARK.json to each other.

type metricDef struct {
	name   string
	unit   string
	higher bool    // end to end: true when a higher value is better
	bound  float64 // end to end: share of the base median it may worsen by
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", higher: true, bound: 0.25},
	{name: "get_p50_us", unit: "us", bound: 0.25},
	{name: "set_p50_us", unit: "us", bound: 0.25},
	{name: "cpu_us_per_op", unit: "us", bound: 0.25},
	{name: "space_amp", unit: "ratio", bound: 0.01},
	{name: "dram_bytes_per_item", unit: "B", bound: 0.05},
}

var perLayer = []metricDef{
	{name: "nvram.sync_waits_per_op", unit: "count"},
	{name: "nvram.fences_per_op", unit: "count"},
	{name: "nvram.clwbs_per_op", unit: "count"},
	{name: "nvram.ns_per_op", unit: "ns"},

	{name: "linkcache.adds_per_op", unit: "count"},
	{name: "linkcache.flushes_per_op", unit: "count"},
	{name: "linkcache.links_per_flush", unit: "count"},
	{name: "linkcache.nospace_ratio", unit: "ratio"},

	{name: "epoch.apt_alloc_hit_ratio", unit: "ratio"},
	{name: "epoch.apt_unlink_hit_ratio", unit: "ratio"},
	{name: "epoch.nodes_freed_per_op", unit: "count"},
	{name: "epoch.trims_per_op", unit: "count"},

	{name: "pmem.allocs_per_op", unit: "count"},
	{name: "pmem.frees_per_op", unit: "count"},
	{name: "pmem.pages_carved", unit: "count"},
	{name: "pmem.acq_partial_ratio", unit: "ratio"},

	{name: "core.ns_per_op", unit: "ns"},
	{name: "core.self_ns_per_op", unit: "ns"},

	{name: "logfree.ns_per_op", unit: "ns"},
	{name: "logfree.self_ns_per_op", unit: "ns"},
	{name: "logfree.sessions", unit: "count"},
	{name: "logfree.attach_ms", unit: "ms"},

	{name: "sharded.ns_per_op", unit: "ns"},
	{name: "sharded.self_ns_per_op", unit: "ns"},

	{name: "cache.ns_per_op", unit: "ns"},
	{name: "cache.self_ns_per_op", unit: "ns"},
	{name: "cache.get_p50_ns", unit: "ns"},
	{name: "cache.set_p50_ns", unit: "ns"},
	{name: "cache.hit_ratio", unit: "ratio"},
	{name: "cache.evictions_per_set", unit: "count"},
	{name: "cache.allocs_per_op", unit: "count"},
	{name: "cache.alloc_bytes_per_op", unit: "B"},
	{name: "cache.dram_fixed_mb", unit: "MB"},
	{name: "cache.recover_ms", unit: "ms"},
	{name: "cache.rebuild_ms", unit: "ms"},
	{name: "cache.recover_objects", unit: "count"},

	{name: "server.ns_per_op", unit: "ns"},
	{name: "server.self_ns_per_op", unit: "ns"},
	{name: "server.allocs_per_op", unit: "count"},
	{name: "server.rw_syscalls_per_op", unit: "count"},
	{name: "server.p50_us.r5k", unit: "us"},
	{name: "server.p50_us.r10k", unit: "us"},
	{name: "server.p50_us.r20k", unit: "us"},
	{name: "server.p99_us.r5k", unit: "us"},
	{name: "server.p99_us.r10k", unit: "us"},
	{name: "server.p99_us.r20k", unit: "us"},
	{name: "server.max_rate_ok", unit: "1/s"},
	{name: "server.gen_lag_p50_us", unit: "us"},

	{name: "repl.wait_acked_us_p50", unit: "us"},
	{name: "repl.wait_share", unit: "ratio"},
	{name: "repl.publishes_per_op", unit: "count"},
	{name: "repl.lag_ops_max", unit: "count"},
	{name: "repl.sheds", unit: "count"},
	{name: "repl.sync_ms", unit: "ms"},

	{name: "gen.ns_per_op", unit: "ns"},
	{name: "gen.share", unit: "ratio"},
	{name: "trace.overhead_ratio", unit: "ratio"},
}

// metrics is the set of values one run reports, keyed by catalog name.
type metrics map[string]float64

func findDef(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].name == name {
			return &defs[i]
		}
	}
	return nil
}
