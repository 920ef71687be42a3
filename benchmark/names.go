package main

// The metric catalogue. BENCHMARK.json at the repository root lists the
// same names, units and directions; bench_test.go fails when they differ.

// metricDef names one metric, its unit and which way is better.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of the plain run, the same on every workload.
// Their regression bounds live in BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"pass_host_s", "s", "lower"},
	{"allocs_per_req", "allocs", "lower"},
	{"alloc_kb_per_req", "KiB", "lower"},
	{"live_heap_mb", "MiB", "lower"},
	{"sim_goodput_tok_s", "tok/sim_s", "higher"},
	{"sim_p50_latency_s", "sim_s", "lower"},
	{"sim_p95_latency_s", "sim_s", "lower"},
	{"sim_slo_attainment", "ratio", "higher"},
	{"sim_top1_acc", "ratio", "higher"},
	{"sim_served_frac", "ratio", "higher"},
}

// perLayer are the metrics of the traced run, named <module>.<metric>.
var perLayer = []metricDef{
	{"workload.generate_s", "s", "lower"},

	{"cluster.new_s", "s", "lower"},
	{"cluster.run_self_s", "s", "lower"},
	{"cluster.route_calls", "count", "lower"},
	{"cluster.route_s", "s", "lower"},
	{"cluster.route_ns_per_call", "ns", "lower"},
	{"cluster.requeues", "count", "lower"},
	{"cluster.imbalance_cv", "ratio", "lower"},
	{"cluster.utilization_mean", "ratio", "lower"},
	{"cluster.prefix_hit_ratio", "ratio", "higher"},

	{"core.run_self_s", "s", "lower"},
	{"core.host_us_per_iteration", "us", "lower"},
	{"core.iterations", "count", "lower"},
	{"core.slices_per_req", "count", "lower"},
	{"core.tokens_decoded", "tok", "lower"},
	{"core.spec_tokens", "tok", "higher"},
	{"core.spec_retained_ratio", "ratio", "higher"},
	{"core.recomputed_tokens", "tok", "lower"},
	{"core.gen_sim_s", "sim_s", "lower"},
	{"core.ver_sim_s", "sim_s", "lower"},
	{"core.transfer_sim_s", "sim_s", "lower"},
	{"core.speedup_vs_baseline", "ratio", "higher"},

	{"search.select_calls", "count", "lower"},
	{"search.select_s", "s", "lower"},
	{"sched.pick_calls", "count", "lower"},
	{"sched.pick_s", "s", "lower"},
	{"sched.estimate_ns_per_call", "ns", "lower"},
	{"engine.decode_round_ns", "ns", "lower"},
	{"alloc.optimize_us_per_call", "us", "lower"},

	{"kvcache.hit_ratio", "ratio", "higher"},
	{"kvcache.evicted_tokens", "tok", "lower"},
	{"kvcache.acquire_ns_per_token", "ns", "lower"},
	{"kvcache.allocs_per_acquire", "allocs", "lower"},

	{"memplane.hit_ratio", "ratio", "higher"},
	{"memplane.evicted_tokens", "tok", "lower"},
	{"memplane.reprefill_sim_s", "sim_s", "lower"},
	{"memplane.occupancy_mean", "ratio", "lower"},
	{"memplane.admit_ns_per_call", "ns", "lower"},
	{"memplane.sync_ns_per_call", "ns", "lower"},

	{"control.ticks", "count", "lower"},
	{"control.scale_ups", "count", "lower"},
	{"control.scale_downs", "count", "lower"},
	{"control.tick_s", "s", "lower"},

	{"metrics.summarize_s", "s", "lower"},
	{"metrics.sketch_add_ns", "ns", "lower"},
	{"metrics.sketch_rel_err", "ratio", "lower"},

	{"obs.spans", "count", "lower"},
	{"obs.spans_per_req", "count", "lower"},
	{"obs.emit_ns", "ns", "lower"},
	{"obs.collect_s", "s", "lower"},
	{"obs.attribute_s", "s", "lower"},
	{"obs.perfetto_s", "s", "lower"},
	{"obs.overhead_ratio", "ratio", "lower"},
	{"obs.attr_queue_frac", "ratio", "lower"},
	{"obs.attr_service_frac", "ratio", "higher"},
	{"obs.attr_reprefill_frac", "ratio", "lower"},
	{"obs.attr_straggler_frac", "ratio", "lower"},
	{"obs.attr_preemption_frac", "ratio", "lower"},

	{"host.calib_s", "s", "lower"},
	{"host.cpu_s_per_pass", "s", "lower"},
	{"host.gc_cycles_per_pass", "count", "lower"},
	{"host.gc_pause_ms_per_pass", "ms", "lower"},
	{"bench.pass_spread", "ratio", "lower"},
	{"bench.trace_overhead_ratio", "ratio", "lower"},
}

var (
	perLayerNames = names(perLayer)
	perLayerUnits = units(perLayer)
)

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	return out
}

func units(defs []metricDef) map[string]string {
	out := make(map[string]string, len(defs))
	for _, d := range defs {
		out[d.name] = d.unit
	}
	return out
}
