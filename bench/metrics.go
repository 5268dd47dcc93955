package main

// metricDef declares one metric exactly as BENCHMARK.json does; the test
// suite holds the two in agreement.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the parent's median the metric may worsen by; 0 for per-layer metrics
}

// endToEnd are the four numbers a user of the simulator pays in, measured
// with tracing off, the same four on every workload. The bounds are the
// widest the contract allows: on the shared 2-vCPU build host ten
// back-to-back runs of one binary spread (IQR/median) by 3–22 % on the
// timing metrics and by up to 20 % on peak RSS (README.md, "Steadiness"),
// so a tighter bound would reject the parent commit against itself.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"run_s", "s", "lower", 0.25},
	{"msgs_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// perLayer is the ladder the traced run emits, one module per prefix.
// Every metric is replayed at the profile of the workload being traced
// (see profileOf), so the same name reads as a different row per workload.
var perLayer = []metricDef{
	{"bench.trace_overhead_ratio", "ratio", "lower", 0},
	{"bench.dieouts", "count", "lower", 0},

	{"facade.self_ns_per_msg", "ns", "lower", 0},
	{"facade.self_us_per_run", "us", "lower", 0},
	{"facade.result_mismatches", "count", "lower", 0},

	{"runpool.dispatch_ns_per_run", "ns", "lower", 0},
	{"runpool.busy_share", "ratio", "higher", 0},
	{"runpool.rep_s_p50", "s", "lower", 0},
	{"runpool.rep_s_p99", "s", "lower", 0},

	{"core.exec_ns_per_msg", "ns", "lower", 0},
	{"core.residual_ns_per_msg", "ns", "lower", 0},
	{"core.residual_share", "ratio", "lower", 0},
	{"core.lease_us", "us", "lower", 0},
	{"core.warm_allocs_per_run", "count", "lower", 0},
	{"core.warm_bytes_per_run", "B", "lower", 0},
	{"core.component_us_per_run", "us", "lower", 0},
	{"core.msgbits_ns_per_op", "ns", "lower", 0},
	{"core.shard_speedup", "ratio", "higher", 0},
	{"core.shard1_overhead_ratio", "ratio", "lower", 0},
	{"core.shard_cold_over_warm", "ratio", "lower", 0},
	{"core.shard_barriers_per_run", "count", "lower", 0},
	{"core.shard_events_per_barrier", "count", "higher", 0},

	{"stream.exec_ns_per_entry_perid", "ns", "lower", 0},
	{"stream.exec_ns_per_entry_batch", "ns", "lower", 0},
	{"stream.residual_ns_per_entry_perid", "ns", "lower", 0},
	{"stream.residual_ns_per_entry_batch", "ns", "lower", 0},
	{"stream.entries_per_wire_msg", "ratio", "higher", 0},
	{"stream.warm_allocs_per_run", "count", "lower", 0},
	{"stream.ledger_open", "count", "lower", 0},
	{"stream.repair_misses", "count", "lower", 0},

	{"protocols.pbcast_us_per_run", "us", "lower", 0},
	{"protocols.lpbcast_us_per_run", "us", "lower", 0},
	{"protocols.antientropy_us_per_run", "us", "lower", 0},
	{"protocols.rdg_us_per_run", "us", "lower", 0},
	{"protocols.lrg_us_per_run", "us", "lower", 0},
	{"scenario.self_us_per_cell", "us", "lower", 0},
	{"scenario.cells_per_s", "1/s", "higher", 0},

	{"simnet.send_ns_per_msg", "ns", "lower", 0},
	{"simnet.self_ns_per_msg", "ns", "lower", 0},
	{"simnet.sendtag_ns_per_msg", "ns", "lower", 0},
	{"simnet.sendbatch_ns_per_entry_b1", "ns", "lower", 0},
	{"simnet.sendbatch_ns_per_entry_b16", "ns", "lower", 0},
	{"simnet.sendbatch_ns_per_entry_b256", "ns", "lower", 0},
	{"simnet.sendbatch_ns_per_batch_b16", "ns", "lower", 0},
	{"simnet.drop_share", "ratio", "lower", 0},
	{"simnet.boxed_sends", "count", "lower", 0},
	{"simnet.slabs_in_use_end", "count", "lower", 0},
	{"simnet.inflight_end", "count", "lower", 0},

	{"sim.peak_pending", "count", "lower", 0},
	{"sim.calendar_ns_per_event", "ns", "lower", 0},
	{"sim.heap_ns_per_event", "ns", "lower", 0},
	{"sim.closure_ns_per_event", "ns", "lower", 0},
	{"sim.cancel_ns_per_event", "ns", "lower", 0},
	{"sim.every_ns_per_tick", "ns", "lower", 0},

	{"membership.sample_ns_per_target", "ns", "lower", 0},
	{"membership.partial_sample_ns_per_target", "ns", "lower", 0},
	{"xrand.sample_excl_ns_per_target", "ns", "lower", 0},
	{"xrand.uint64_ns", "ns", "lower", 0},
	{"dist.poisson_ns_per_draw", "ns", "lower", 0},
	{"topology.kout_build_us", "us", "lower", 0},
	{"topology.sample_ns_per_target", "ns", "lower", 0},

	{"bitset.random_ns_per_op", "ns", "lower", 0},
	{"bitset.reset_us", "us", "lower", 0},
	{"bitset.count_us", "us", "lower", 0},
	{"failure.fill_exact_us", "us", "lower", 0},

	{"graph.giant_us_per_run", "us", "lower", 0},
	{"genfunc.reliability_us_per_call", "us", "lower", 0},
	{"genfunc.model_gap_max", "ratio", "lower", 0},
	{"genfunc.model_gap_rmse", "ratio", "lower", 0},

	{"obs.probe_overhead_ratio", "ratio", "lower", 0},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
