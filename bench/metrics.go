package main

// metricDef names one reported metric. The two catalogues below are the
// benchmark's contract with BENCHMARK.json: an untraced run prints exactly
// the endToEnd metrics, a traced run exactly the perLayer ones, every
// workload prints all of them, and bench_test.go checks both lists against
// the file in both directions.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd is what a user of the simulator sees. An "operation" is the
// workload's unit of work: one round of its scheme runs (steady-db2,
// stall-llc600), one 18×7 pass (sweep-cold, sweep-rerun) or one HTTP request
// (serve-mixed). Every operation of a simulation workload does the same
// simulated work, so a throughput such as simulated MIPS would only restate
// op_p50_ms.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", "lower"},   // median operation latency
	{"setup_s", "s", "lower"},      // median set-up time before the first timed operation
	{"resident_mb", "MB", "lower"}, // resident memory after a final garbage collection
}

// perLayer splits host time by module. The traced run measures them on the
// workload's own configurations; README.md says which end-to-end metric each
// should move.
var perLayer = []metricDef{
	{"program.generate_ms", "ms", "lower"},
	{"program.walker_ns_per_step", "ns", "lower"},
	{"scheme.build_ms", "ms", "lower"},
	{"scheme.clone_ms", "ms", "lower"},
	{"scheme.publish_ms", "ms", "lower"},
	{"sim.warm_ms", "ms", "lower"},
	{"sim.cell_p50_ms", "ms", "lower"},
	{"sim.cell_p90_ms", "ms", "lower"},
	{"boomsim.matrix_idle_pct", "%", "lower"},
	{"frontend.ns_per_instr", "ns", "lower"},
	{"frontend.ns_per_ticked_cycle", "ns", "lower"},
	{"frontend.skipped_cycle_pct", "%", "higher"},
	{"frontend.cpi", "cycles", "lower"},
	{"frontend.unattributed_pct", "%", "lower"},
	{"bpu.predict_update_ns", "ns", "lower"},
	{"bpu.predict_update_calls_per_kinstr", "calls/kinstr", "lower"},
	{"bpu.predict_update_est_pct", "%", "lower"},
	{"btb.lookup_ns", "ns", "lower"},
	{"btb.lookup_calls_per_kinstr", "calls/kinstr", "lower"},
	{"btb.lookup_est_pct", "%", "lower"},
	{"btb.predecode_ns", "ns", "lower"},
	{"btb.predecode_calls_per_kinstr", "calls/kinstr", "lower"},
	{"btb.predecode_est_pct", "%", "lower"},
	{"core.handle_ns", "ns", "lower"},
	{"core.handle_calls_per_kinstr", "calls/kinstr", "lower"},
	{"core.handle_est_pct", "%", "lower"},
	{"cache.demand_ns", "ns", "lower"},
	{"cache.demand_calls_per_kinstr", "calls/kinstr", "lower"},
	{"cache.demand_est_pct", "%", "lower"},
	{"cache.next_event_ns", "ns", "lower"},
	{"cache.next_event_calls_per_kinstr", "calls/kinstr", "lower"},
	{"cache.next_event_est_pct", "%", "lower"},
	{"prefetch.retire_ns", "ns", "lower"},
	{"prefetch.retire_calls_per_kinstr", "calls/kinstr", "lower"},
	{"prefetch.retire_est_pct", "%", "lower"},
	{"server.hit_p50_ms", "ms", "lower"},
	{"server.miss_p50_ms", "ms", "lower"},
	{"server.tail_ms", "ms", "lower"},
	{"server.encode_us", "us", "lower"},
	{"server.response_kb", "KB", "lower"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.flight_shared", "count", "higher"},
	{"server.rejected", "count", "lower"},
	{"server.sim_ns_per_instr", "ns", "lower"},
	{"process.alloc_mb_per_op", "MB", "lower"},
	{"process.gc_per_op", "count", "lower"},
	{"trace_overhead_pct", "%", "lower"},
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}
