package main

// The metric names below are BENCHMARK.json's; the test holds the two
// lists equal. Every workload reports every end-to-end metric, each with
// the meaning its row in README.md gives.

var endToEndUnit = map[string]string{
	"setup_s":      "s",
	"live_heap_mb": "MB",
	"qps":          "1/s",
	"op_p50_ms":    "ms",
}

type metricDef struct{ name, unit string }

// perLayer lists the per-layer metrics in report order. A layer that does
// no work on a workload reports 0 there.
var perLayer = []metricDef{
	{"netgen.generate_ms", "ms"},
	{"apclassifier.build_ms", "ms"},
	{"aptree.build_ms", "ms"},
	{"checkpoint.save_ms", "ms"},
	{"checkpoint.restore_ms", "ms"},
	{"checkpoint.size_kb", "KB"},

	{"aptree.classify_ns", "ns"},
	{"aptree.classify_batch_ns", "ns"},
	{"aptree.flat_fallback_ratio", "ratio"},
	{"aptree.atoms", "count"},
	{"aptree.predicates", "count"},
	{"aptree.avg_depth", "count"},

	{"network.walk_ns", "ns"},
	{"network.cache_hit_ratio", "ratio"},

	{"server.handler_us", "us"},
	{"server.decode_us", "us"},
	{"server.encode_us", "us"},
	{"server.self_us", "us"},
	{"loopback.transport_us", "us"},

	{"cluster.route_us", "us"},
	{"cluster.shard_wait_us", "us"},
	{"cluster.self_us", "us"},
	{"cluster.retries", "count"},
	{"cluster.shard_errors", "count"},

	{"rule.cone_us", "us"},
	{"apclassifier.delta_apply_us", "us"},
	{"aptree.update_us", "us"},
	{"aptree.flat_build_us", "us"},
	{"aptree.publishes", "count"},
	{"aptree.delta_splits", "count"},
	{"aptree.delta_merges", "count"},
	{"aptree.touched_leaves", "count"},
	{"bdd.apply_ops", "count"},
	{"bdd.nodes_allocated", "count"},
	{"bdd.cache_hit_ratio", "ratio"},
	{"bdd.gc_runs", "count"},
	{"server.max_stall_ms", "ms"},

	{"verify.new_ms", "ms"},
	{"verify.loops_ms", "ms"},
	{"verify.reach_ms", "ms"},
	{"verify.pairs", "count"},

	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_pause_ms", "ms"},
	{"loadgen.op_tail_ms", "ms"},
	{"loadgen.late_ms", "ms"},
	{"host.ncpu", "count"},
	{"host.gomaxprocs", "count"},
	{"host.calib_ms", "ms"},
	{"host.noisy_slices", "count"},
	{"trace.overhead_ratio", "ratio"},
}
