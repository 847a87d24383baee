package main

// metricDef names a reported metric. The lists below are the benchmark's
// schema; BENCHMARK.json repeats them (with bounds), and a test keeps the
// two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are what a user of the system sees, reported by untraced runs
// of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"max_rss_mb", "MiB", "lower"},
}

// perLayer are reported by traced runs of every workload. A layer the
// workload does not exercise reports 0: the layer did no work there.
var perLayer = []metricDef{
	// experiment: spans around the benchmark's own calls.
	{"experiment.panel.fig1_flocklab.ms", "ms", "lower"},
	{"experiment.panel.fig1_dcube.ms", "ms", "lower"},
	{"experiment.panel.baseline.ms", "ms", "lower"},
	{"experiment.panel.scalability.ms", "ms", "lower"},
	{"experiment.panel.coverage.ms", "ms", "lower"},
	{"experiment.cell.busy_ms.p50", "ms", "lower"},
	{"experiment.cell.busy_ms.p95", "ms", "lower"},
	{"experiment.cell.busy_ms.sum", "ms", "lower"},
	{"experiment.cell.wait_ms.p50", "ms", "lower"},
	{"experiment.cell.wait_ms.p95", "ms", "lower"},
	{"experiment.emit_lag_ms.p50", "ms", "lower"},
	{"experiment.emit_lag_ms.p95", "ms", "lower"},
	{"experiment.expand.ms", "ms", "lower"},
	{"experiment.cells_computed", "count", "lower"},
	{"experiment.cache_hits", "count", "higher"},
	// core: probes on the workload's own inputs.
	{"core.run_bootstrap.ms", "ms", "lower"},
	{"core.run_round.us", "us", "lower"},
	{"core.run_round_lanes.us_per_trial", "us", "lower"},
	{"core.run_round_lanes.bytes_per_trial", "B", "lower"},
	{"core.sharing_chain_len", "count", "lower"},
	// seckey, shamir/field.
	{"seckey.seal_vector.ns", "ns", "lower"},
	{"seckey.open_vector.ns", "ns", "lower"},
	{"seckey.pair_key.ns", "ns", "lower"},
	{"seckey.seal_vector.allocs", "count", "lower"},
	{"shamir.split_vec.ns", "ns", "lower"},
	{"shamir.reconstruct_vec.ns", "ns", "lower"},
	// phy / glossy / minicast kernels.
	{"minicast.run_arena.ns", "ns", "lower"},
	{"glossy.run_arena.ns", "ns", "lower"},
	{"phy.receive_fast.ns", "ns", "lower"},
	{"minicast.run_lanes.ns_per_trial", "ns", "lower"},
	{"glossy.run_lanes.ns_per_trial", "ns", "lower"},
	{"phy.receive_mask.ns", "ns", "lower"},
	// hepda baseline.
	{"hepda.run_round.ms", "ms", "lower"},
	// cache and store.
	{"cache.get.us", "us", "lower"},
	{"cache.put.us", "us", "lower"},
	{"cache.entry_bytes", "B", "lower"},
	{"store.bytes_per_row", "B", "lower"},
	{"store.open.ms", "ms", "lower"},
	// service, seen from the benchmark's HTTP client.
	{"service.submit.ms", "ms", "lower"},
	{"service.queue_wait.ms", "ms", "lower"},
	{"service.results.ms", "ms", "lower"},
	{"service.http_errors", "count", "lower"},
	{"service.job_p50_ms", "ms", "lower"},
	{"service.job_p95_ms", "ms", "lower"},
	{"service.job_samples", "count", "higher"},
	{"service.big_job_s", "s", "lower"},
	{"service.resubmit_s", "s", "lower"},
	{"service.small_jobs_during_big", "count", "higher"},
	// dispatch, seen from the workers' HTTP clients.
	{"dispatch.grant_wait.ms", "ms", "lower"},
	{"dispatch.heartbeat.ms", "ms", "lower"},
	{"dispatch.heartbeats", "count", "lower"},
	{"dispatch.upload.ms", "ms", "lower"},
	{"dispatch.done_to_terminal.ms", "ms", "lower"},
	// tracing itself.
	{"trace.overhead.wall_s", "s", "lower"},
	{"trace.overhead.setup_s", "s", "lower"},
	{"trace.spans", "count", "lower"},
}
