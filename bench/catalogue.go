package main

import "fmt"

// endToEndUnit names the six end-to-end metrics every untraced run reports.
var endToEndUnit = map[string]string{
	"setup_s":          "s",
	"throughput_ops_s": "ops/s",
	"latency_p50_ms":   "ms",
	"latency_tail_ms":  "ms",
	"cpu_ms_per_op":    "ms",
	"rss_p90_mb":       "MB",
}

// workloadNames lists the workloads in suite order.
var workloadNames = []string{"repro-cli", "api-small", "api-large", "mc-study", "cluster-durable"}

func newWorkload(name string, cfg config) (workload, error) {
	switch name {
	case "repro-cli":
		return &cliWorkload{cfg: cfg}, nil
	case "api-small":
		return &apiWorkload{cfg: cfg}, nil
	case "api-large":
		return &apiWorkload{cfg: cfg, large: true}, nil
	case "mc-study":
		return &mcWorkload{cfg: cfg}, nil
	case "cluster-durable":
		return &clusterWorkload{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// layerMetric is one per-layer metric: every traced run prints all of them,
// and the ones whose Home is another workload read 0 there (Home "" marks the
// metrics every workload measures for itself).
type layerMetric struct {
	Name, Unit, Home string
}

// perLayer is the per-layer catalogue, in ladder order. BENCHMARK.json lists
// the same names; README.md says which end-to-end metric each should move.
var perLayer = []layerMetric{
	{"dag.generate_us", "us", "api-small"},
	{"dag.import_json_us", "us", "api-small"},
	{"profiler.fit_profile_ms", "ms", "repro-cli"},
	{"profiler.fit_empirical_ms", "ms", "repro-cli"},
	{"perfmodel.tasktime_ns", "ns", "repro-cli"},
	{"simgrid.solve_contended_us", "us", "api-small"},
	{"simgrid.allocs_per_run", "count", "api-small"},
	{"tgrid.run_small_us", "us", "api-small"},
	{"tgrid.run_large_us", "us", "api-large"},
	{"tgrid.bind_us", "us", "api-small"},
	{"tgrid.replay_small_us", "us", "api-small"},
	{"tgrid.replay_large_us", "us", "api-large"},
	{"tgrid.allocs_per_replay", "count", "api-small"},
	{"sched.build_hcpa_small_us", "us", "api-small"},
	{"sched.build_mcpa_small_us", "us", "api-small"},
	{"sched.build_hcpa_large_us", "us", "api-large"},
	{"sched.scratch_build_small_us", "us", "api-small"},
	{"sched.allocs_per_scratch_build", "count", "api-small"},
	{"cluster.execute_us", "us", "repro-cli"},
	{"experiments.newlab_ms", "ms", "repro-cli"},
	{"experiments.study_ms.fig1", "ms", "repro-cli"},
	{"experiments.study_ms.ablation", "ms", "repro-cli"},
	{"experiments.study_ms.scaling", "ms", "repro-cli"},
	{"experiments.study_ms.sensitivity", "ms", "repro-cli"},
	{"experiments.study_ms.rest", "ms", "repro-cli"},
	{"experiments.winner_mispredictions", "count", "repro-cli"},
	{"experiments.makespan_err_median_pct", "%", "repro-cli"},
	{"campaign.prepare_ms", "ms", "repro-cli"},
	{"campaign.cell_ms", "ms", "repro-cli"},
	{"campaign.merge_ms", "ms", "repro-cli"},
	{"campaign.frame_bytes", "bytes", "repro-cli"},
	{"robust.cell_resched_ms", "ms", "mc-study"},
	{"robust.cell_replay_ms", "ms", "mc-study"},
	{"robust.merge_ms", "ms", "mc-study"},
	{"robust.frame_bytes", "bytes", "mc-study"},
	{"robust.resched_trialruns_s", "1/s", "mc-study"},
	{"robust.replay_trialruns_s", "1/s", "mc-study"},
	{"arrival.prepare_ms", "ms", "repro-cli"},
	{"arrival.cell_ms", "ms", "repro-cli"},
	{"arrival.merge_ms", "ms", "repro-cli"},
	{"service.registry_get_ns", "ns", "api-small"},
	{"service.registry_cold_fit_ms", "ms", "api-small"},
	{"service.schedule_direct_us", "us", "api-small"},
	{"service.simulate_direct_us", "us", "api-small"},
	{"service.simulate_batch_direct_ms", "ms", "api-large"},
	{"service.json_decode_us", "us", "api-small"},
	{"service.json_encode_us", "us", "api-small"},
	{"service.handler_us", "us", "api-small"},
	{"service.http_roundtrip_us", "us", "api-small"},
	{"service.http_overhead_share", "ratio", "api-small"},
	{"service.batch_roundtrip_ms", "ms", "api-large"},
	{"service.batch_engine_share", "ratio", "api-large"},
	{"service.batch_json_ms", "ms", "api-large"},
	{"service.job_queue_ms", "ms", "mc-study"},
	{"service.status_get_us", "us", "api-small"},
	{"service.metrics_scrape_us", "us", "api-small"},
	{"service.durable.cell_overhead_ms", "ms", "cluster-durable"},
	{"service.durable.job_overhead_ms", "ms", "cluster-durable"},
	{"service.durable.status_get_us", "us", "cluster-durable"},
	{"service.durable.cell_split_share", "ratio", "cluster-durable"},
	{"service.durable.protocol_share", "ratio", "cluster-durable"},
	{"store.submit_us", "us", "cluster-durable"},
	{"store.claim_us", "us", "cluster-durable"},
	{"store.renew_us", "us", "cluster-durable"},
	{"store.complete_us", "us", "cluster-durable"},
	{"store.job_read_us", "us", "cluster-durable"},
	{"store.plan_cells_us", "us", "cluster-durable"},
	{"store.claim_cell_us", "us", "cluster-durable"},
	{"store.complete_cell_and_claim_us", "us", "cluster-durable"},
	{"store.cell_results_us", "us", "cluster-durable"},
	{"store.refresh_1k_ms", "ms", "cluster-durable"},
	{"store.refresh_10k_ms", "ms", "cluster-durable"},
	{"store.open_10k_ms", "ms", "cluster-durable"},
	{"store.compact_10k_ms", "ms", "cluster-durable"},
	{"store.claim_us_2handles", "us", "cluster-durable"},
	{"store.claim_us_8handles", "us", "cluster-durable"},
	{"store.wal_bytes_per_cell", "bytes", "cluster-durable"},
	{"store.fsyncs_per_cell", "count", "cluster-durable"},
	{"runtime.allocs_per_op", "count", ""},
	{"runtime.alloc_kb_per_op", "KB", ""},
	{"runtime.gc_cycles", "count", ""},
	{"runtime.gc_pause_ms", "ms", ""},
	{"trace.overhead_share", "ratio", ""},
	{"trace.coverage_share", "ratio", ""},
}
