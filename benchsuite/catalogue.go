package main

// metricDef is one row of the metric catalogue. BENCHMARK.json at the
// repository root lists the same rows (TestBenchmarkJSONMatchesCatalogue).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system would see, measured with
// tracing off, each reported per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"verdict_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"allocs_per_item", "count", "lower", 0.02},
	{"alloc_bytes_per_item", "B", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the traced run's metrics, grouped by the module they
// attribute cost to. A workload reports 0 for the layers it bypasses.
var perLayer = []metricDef{
	// spec packages (raftmongo, locking, arrayot) through wrapped closures
	{Name: "spec.next_calls", Unit: "count", Better: "lower"},
	{Name: "spec.successors", Unit: "count", Better: "lower"},
	{Name: "spec.next_busy_s", Unit: "s", Better: "lower"},
	{Name: "spec.next_ns_per_successor", Unit: "ns", Better: "lower"},
	{Name: "spec.next_allocs_per_successor", Unit: "count", Better: "lower"},
	{Name: "spec.invariant_busy_s", Unit: "s", Better: "lower"},
	{Name: "spec.encode_ns_per_state", Unit: "ns", Better: "lower"},
	{Name: "spec.encode_bytes_per_state", Unit: "B", Better: "lower"},
	{Name: "spec.key_ns_per_state", Unit: "ns", Better: "lower"},
	{Name: "spec.decode_ns_per_state", Unit: "ns", Better: "lower"},
	{Name: "spec.orbit_busy_s", Unit: "s", Better: "lower"},
	{Name: "spec.orbit_images_per_state", Unit: "count", Better: "lower"},
	{Name: "spec.matches_calls", Unit: "count", Better: "lower"},
	{Name: "spec.matches_busy_s", Unit: "s", Better: "lower"},
	// tla engine, codec, fingerprint
	{Name: "tla.distinct_states", Unit: "count", Better: "lower"},
	{Name: "tla.transitions", Unit: "count", Better: "lower"},
	{Name: "tla.depth", Unit: "count", Better: "lower"},
	{Name: "tla.claim_fresh_ratio", Unit: "ratio", Better: "higher"},
	{Name: "tla.fingerprint_ns_per_state", Unit: "ns", Better: "lower"},
	{Name: "tla.fingerprint_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "tla.residual_busy_s", Unit: "s", Better: "lower"},
	{Name: "tla.residual_share", Unit: "ratio", Better: "lower"},
	{Name: "tla.speedup_w2", Unit: "ratio", Better: "higher"},
	{Name: "tla.level_count", Unit: "count", Better: "lower"},
	{Name: "tla.level_width_max", Unit: "count", Better: "lower"},
	{Name: "tla.steals", Unit: "count", Better: "lower"},
	{Name: "tla.steal_fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},
	// tla partial-order reduction, spilling visited store, arena
	{Name: "tla.por_ample_states", Unit: "count", Better: "higher"},
	{Name: "tla.por_deferred_transitions", Unit: "count", Better: "higher"},
	{Name: "tla.por_planner_rejects", Unit: "count", Better: "lower"},
	{Name: "tla.spill_runs_sealed", Unit: "count", Better: "lower"},
	{Name: "tla.spill_merge_joins", Unit: "count", Better: "lower"},
	{Name: "tla.spill_merge_busy_s", Unit: "s", Better: "lower"},
	{Name: "tla.spill_bytes_sealed", Unit: "B", Better: "lower"},
	{Name: "tla.arena_segments_spilled", Unit: "count", Better: "lower"},
	// tla trace checker, trace, mbtc, replset + fuzzer
	{Name: "tla.trace_ms_per_event", Unit: "ms", Better: "lower"},
	{Name: "tla.trace_frontier_max", Unit: "count", Better: "lower"},
	{Name: "tla.trace_frontier_mean", Unit: "count", Better: "lower"},
	{Name: "tla.trace_successors_per_event", Unit: "count", Better: "lower"},
	{Name: "tla.trace_match_ratio", Unit: "ratio", Better: "higher"},
	{Name: "trace.events", Unit: "count", Better: "higher"},
	{Name: "trace.process_s", Unit: "s", Better: "lower"},
	{Name: "mbtc.observations_s", Unit: "s", Better: "lower"},
	{Name: "mbtc.check_share", Unit: "ratio", Better: "lower"},
	{Name: "replset.run_traced_s", Unit: "s", Better: "lower"},
	// tla DOT writer and parser, mbtcg, ot, otgo
	{Name: "mbtcg.check_s", Unit: "s", Better: "lower"},
	{Name: "tla.dot_write_s", Unit: "s", Better: "lower"},
	{Name: "tla.dot_write_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "tla.dot_parse_s", Unit: "s", Better: "lower"},
	{Name: "tla.dot_parse_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "mbtcg.from_dot_s", Unit: "s", Better: "lower"},
	{Name: "mbtcg.dot_bytes", Unit: "B", Better: "lower"},
	{Name: "mbtcg.cases", Unit: "count", Better: "higher"},
	{Name: "ot.run_ref_s", Unit: "s", Better: "lower"},
	{Name: "otgo.run_s", Unit: "s", Better: "lower"},
	// checkd
	{Name: "checkd.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "checkd.small_job_ms", Unit: "ms", Better: "lower"},
	{Name: "checkd.service_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "checkd.poll_requests", Unit: "count", Better: "lower"},
	{Name: "checkd.retries", Unit: "count", Better: "lower"},
	{Name: "checkd.verdict_tail_s", Unit: "s", Better: "lower"},
	{Name: "checkd.verdict_tail_p", Unit: "%", Better: "higher"},
	// the harness itself
	{Name: "bench.prepare_s", Unit: "s", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.failed_share", Unit: "ratio", Better: "lower"},
}
