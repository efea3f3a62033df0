package main

// declared is one metric as BENCHMARK.json lists it.
type declared struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the service sees; every run
// without --trace reports all of them. The latency tail (p90, p99) is a
// per-layer metric: on the shared two-vCPU reference VM it moved by a
// third to a half between runs of the same code on the serve
// workloads, set by the host's stalls rather than by the service.
var endToEnd = []declared{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"throughput_ops_s", "ops/s", "higher"},
	{"subopt_mean", "ratio", "lower"},
	{"subopt_max", "ratio", "lower"},
	{"heap_mb", "MiB", "lower"},
}

// strategyOrder fixes the per-strategy metric names; it matches the
// strategy registry, which the workloads check at start-up.
var strategyOrder = []string{"planbouquet", "spillbound", "alignedbound", "parqo", "robustmap", "adaptiveswitch"}

// perLayer are the traced run's metrics. perfbench/LAYERS.md gives for
// each the end-to-end metric and workload it should move.
var perLayer = func() []declared {
	d := []declared{
		{"server.handler_p50_us", "us", "lower"},
		{"server.handler_p99_us", "us", "lower"},
		{"server.transport_p50_us", "us", "lower"},
		{"server.outcome_hit_ratio", "ratio", "higher"},
		{"server.outcome_lookups", "count", "higher"},
		{"server.outcome_inserts", "count", "lower"},
		{"server.outcome_evictions", "count", "lower"},
		{"server.forwards", "count", "lower"},
		{"server.compiles", "count", "lower"},
		{"ring.hop_p50_us", "us", "lower"},
	}
	for _, s := range strategyOrder {
		d = append(d, declared{"core.discover_us." + s, "us", "lower"})
	}
	d = append(d,
		declared{"core.discoveries", "count", "higher"},
		declared{"core.steps_per_discovery", "count", "lower"},
		declared{"core.self_us", "us", "lower"},
		declared{"core.compile_ms", "ms", "lower"},
		declared{"core.prepare_ms", "ms", "lower"},
		declared{"core.artifact_hit_ratio", "ratio", "higher"},
		declared{"core.artifact_lookups", "count", "higher"},
		declared{"ess.build_ms.EQ", "ms", "lower"},
		declared{"ess.build_ms.4D_Q91", "ms", "lower"},
		declared{"ess.build_ms.5D_Q19", "ms", "lower"},
		declared{"ess.build_ms.6D_Q91", "ms", "lower"},
		declared{"ess.dp_calls", "count", "lower"},
		declared{"ess.recost_calls", "count", "lower"},
		declared{"ess.fallback_rate", "ratio", "lower"},
		declared{"ess.source_us", "us", "lower"},
		declared{"ess.lazy_settled", "count", "lower"},
		declared{"ess.lazy_contour_hit_ratio", "ratio", "higher"},
		declared{"ess.refine_rounds", "count", "lower"},
		declared{"ess.refined_points", "count", "lower"},
		declared{"ess.epoch", "count", "lower"},
		declared{"exec.full_us", "us", "lower"},
		declared{"exec.spill_us", "us", "lower"},
		declared{"exec.runs", "count", "lower"},
		declared{"exec.kill_frac", "ratio", "lower"},
		declared{"exec.cost_units", "units", "lower"},
		declared{"cost_units_per_s", "units/s", "higher"},
		declared{"datagen.populate_s", "s", "lower"},
		declared{"stats.build_s", "s", "lower"},
		declared{"query.sign_us", "us", "lower"},
		declared{"latency_p90_ms", "ms", "lower"},
		declared{"latency_p99_ms", "ms", "lower"},
		declared{"loadgen.late_p99_ms", "ms", "lower"},
		declared{"loadgen.samples", "count", "higher"},
		declared{"loadgen.p99_quantile", "ratio", "higher"},
		declared{"trace.overhead_frac", "ratio", "lower"},
		declared{"failed_frac", "ratio", "lower"},
	)
	for _, l := range []string{"total", "transport", "server", "ring", "compile", "core", "ess", "exec", "unattributed"} {
		d = append(d, declared{"attr." + l + "_us", "us", "lower"})
	}
	return d
}()
