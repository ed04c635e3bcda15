package main

// metric names a reported figure and its unit. BENCHMARK.json lists the same
// names and units; metrics_test.go keeps the two in step.
type metric struct {
	name, unit string
}

// endToEnd are the figures of an untraced run (--trace 0).
var endToEnd = []metric{
	{"refs_per_s", "refs/s"},
	{"cpu_ns_per_ref", "ns"},
	{"digest_p50_ms", "ms"},
	{"cycles_ratio", "ratio"},
	{"ttfo_refs", "refs"},
	{"alloc_bytes_per_ref", "B"},
	{"resident_heap_mib", "MiB"},
	{"setup_s", "s"},
	{"fail_ratio", "ratio"},
}

// perLayer are the figures of a traced run (--trace 1), grouped by the
// module the calls are timed in.
var perLayer = []metric{
	{"memsim.l1_miss_ratio", "ratio"},
	{"memsim.prefetches", "count"},
	{"memsim.accuracy", "ratio"},
	{"memsim.coverage", "ratio"},
	{"memsim.timely_ratio", "ratio"},
	{"memsim.detect_cycles_share", "ratio"},
	{"memsim.ns_per_ref", "ns"},

	{"matcher.observe_ns_per_ref", "ns"},
	{"matcher.comparisons_per_ref", "count"},
	{"matcher.hit_ratio", "ratio"},
	{"matcher.swaps", "count"},
	{"matcher.dfsm_states", "count"},
	{"matcher.dfsm_transitions", "count"},

	{"client.flush_ms", "ms"},
	{"client.wire_bytes_per_ref", "B"},
	{"client.dropped", "count"},
	{"client.retries", "count"},
	{"client.errors", "count"},
	{"client.self_ns_per_ref", "ns"},

	{"service.ingest_ms", "ms"},
	{"service.ingest_non2xx", "count"},
	{"service.stats_ms", "ms"},
	{"service.metrics_ms", "ms"},
	{"service.hotstreams_ms", "ms"},
	{"service.read_bytes", "B"},
	{"service.self_ns_per_ref", "ns"},

	{"sharded.digest_wait_ms", "ms"},
	{"sharded.burst_shed_ratio", "ratio"},
	{"sharded.collapse_ratio", "ratio"},
	{"sharded.resets", "count"},
	{"sharded.cycles_analyzed", "count"},
	{"sharded.analyses_failed", "count"},
	{"sharded.analyses_skipped", "count"},
	{"sharded.compress_ms", "ms"},
	{"sharded.analysis_ms", "ms"},
	{"sharded.max_cycle_stall_ms", "ms"},
	{"sharded.peak_grammar_symbols", "count"},
	{"sharded.banked_streams", "count"},
	{"sharded.self_ns_per_ref", "ns"},

	{"supervisor.poll_ms", "ms"},
	{"supervisor.optimize_ms", "ms"},
	{"supervisor.reoptimizations", "count"},
	{"supervisor.deoptimizations", "count"},
	{"supervisor.poll_errors", "count"},
	{"supervisor.swaps_per_mref", "count"},
	{"supervisor.self_ns_per_ref", "ns"},

	{"persist.snapshot_ms", "ms"},
	{"persist.snapshot_bytes", "B"},
	{"persist.self_ns_per_ref", "ns"},

	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.mallocs_per_ref", "count"},

	{"harness.self_ns_per_ref", "ns"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.self_sum_error", "ratio"},
	{"trace.digest_p99_ms", "ms"},
	{"trace.digest_samples", "count"},
}
