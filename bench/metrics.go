package main

// metricDef declares one metric. BENCHMARK.json repeats these tables
// (the smoke test asserts the two agree), because the driver reads the
// JSON and the harness reads the Go.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system sees, on every workload. A
// cycle is one pass over the workload's operations (see workloads.go),
// so every metric is defined, and never zero, on every workload. Bound
// is the share of the parent's median by which a later change may
// worsen the metric before it is rejected.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cycle_p50_ms", "ms", "lower", 0.20},
	{"cycles_per_s", "1/s", "higher", 0.20},
	{"cpu_ms_per_cycle", "ms", "lower", 0.20},
	{"alloc_kb_per_cycle", "kB", "lower", 0.10},
	{"live_heap_mb", "MB", "lower", 0.10},
}

// perLayer lists the diagnostics of the traced run, named after the
// module they measure. A metric reads 0 on a workload that bypasses its
// layer. Counts ("count", "ratio") come from fixed probe operations and
// repeat exactly for one seed; timings are medians.
var perLayer = []metricDef{
	// Per-operation end-to-end latencies through chainsplit.DB: the
	// numbers cycle_p50_ms is made of, with the tail beside each median.
	{"chainsplit.sg_p50_ms", "ms", "lower", 0},
	{"chainsplit.scsg_p50_ms", "ms", "lower", 0},
	{"chainsplit.short_p50_ms", "ms", "lower", 0},
	{"chainsplit.append_p50_ms", "ms", "lower", 0},
	{"chainsplit.isort_p50_ms", "ms", "lower", 0},
	{"chainsplit.qsort_p50_ms", "ms", "lower", 0},
	{"chainsplit.write_p50_ms", "ms", "lower", 0},
	{"chainsplit.replicate_p50_ms", "ms", "lower", 0},
	{"chainsplit.recovery_s", "s", "lower", 0},
	{"chainsplit.append_growth_exp", "exp", "lower", 0},
	{"chainsplit.isort_growth_exp", "exp", "lower", 0},
	{"chainsplit.sg_tail_ms", "ms", "lower", 0},
	{"chainsplit.scsg_tail_ms", "ms", "lower", 0},
	{"chainsplit.short_tail_ms", "ms", "lower", 0},
	{"chainsplit.append_tail_ms", "ms", "lower", 0},
	{"chainsplit.isort_tail_ms", "ms", "lower", 0},
	{"chainsplit.qsort_tail_ms", "ms", "lower", 0},
	{"chainsplit.write_tail_ms", "ms", "lower", 0},
	{"chainsplit.replicate_tail_ms", "ms", "lower", 0},
	{"chainsplit.query_overhead_us", "us", "lower", 0},
	{"admission.acquire_ns", "ns", "lower", 0},
	{"admission.queued", "count", "lower", 0},
	{"admission.shed", "count", "lower", 0},

	{"lang.parse_query_us", "us", "lower", 0},
	{"lang.parse_list_query_us", "us", "lower", 0},
	{"lang.parse_program_ms", "ms", "lower", 0},

	{"adorn.analysis_us", "us", "lower", 0},
	{"chain.compile_us", "us", "lower", 0},
	{"chain.split_us", "us", "lower", 0},
	{"cost.split_path_us", "us", "lower", 0},

	{"magic.rewrite_us", "us", "lower", 0},
	{"magic.rewrite_small_us", "us", "lower", 0},
	{"magic.rewrite_growth_exp", "exp", "lower", 0},
	{"magic.rules_out", "count", "lower", 0},
	{"magic.magic_tuples", "count", "lower", 0},
	{"magic.scsg_split_derived", "count", "lower", 0},
	{"magic.scsg_follow_derived", "count", "lower", 0},

	{"seminaive.eval_ms", "ms", "lower", 0},
	{"seminaive.eval_short_us", "us", "lower", 0},
	{"seminaive.eval_w2_ms", "ms", "lower", 0},
	{"seminaive.rounds", "count", "lower", 0},
	{"seminaive.derived", "count", "lower", 0},
	{"seminaive.matches", "count", "lower", 0},
	{"seminaive.derived_per_match", "ratio", "higher", 0},

	{"relation.insert_ns", "ns", "lower", 0},
	{"relation.contains_ns", "ns", "lower", 0},
	{"relation.lookup_ns", "ns", "lower", 0},
	{"relation.join_us", "us", "lower", 0},
	{"relation.snapshot_us", "us", "lower", 0},

	{"counting.append_ms", "ms", "lower", 0},
	{"counting.isort_ms", "ms", "lower", 0},
	{"counting.travel_ms", "ms", "lower", 0},
	{"counting.contexts", "count", "lower", 0},
	{"counting.edges", "count", "lower", 0},
	{"counting.up_joins", "count", "lower", 0},

	{"topdown.qsort_ms", "ms", "lower", 0},
	{"topdown.steps", "count", "lower", 0},
	{"topdown.calls", "count", "lower", 0},
	{"topdown.table_hit_ratio", "ratio", "higher", 0},

	{"term.unify_list_256_ns", "ns", "lower", 0},
	{"term.unify_list_1024_ns", "ns", "lower", 0},
	{"term.unify_growth_exp", "exp", "lower", 0},
	{"term.intlist_ns_per_elem", "ns", "lower", 0},
	{"term.append_key_ns_per_elem", "ns", "lower", 0},
	{"term.dict_terms", "count", "lower", 0},

	{"partial.filter_us", "us", "lower", 0},
	{"partial.push_us", "us", "lower", 0},

	{"core.load_tuples_mem_ms", "ms", "lower", 0},
	{"core.load_text_ms", "ms", "lower", 0},
	{"core.sort_answers_us", "us", "lower", 0},
	{"core.edb_lookup_us", "us", "lower", 0},
	{"core.explain_us", "us", "lower", 0},
	{"core.query_unattributed_share", "ratio", "lower", 0},

	{"wal.encode_us", "us", "lower", 0},
	{"wal.append_nosync_us", "us", "lower", 0},
	{"wal.append_sync_us", "us", "lower", 0},
	{"wal.fsync_us", "us", "lower", 0},
	{"wal.snapshot_ms", "ms", "lower", 0},
	{"wal.open_ms", "ms", "lower", 0},
	{"wal.snapshot_stall_ms", "ms", "lower", 0},
	{"wal.appends", "count", "lower", 0},
	{"wal.snapshots", "count", "lower", 0},
	{"wal.bytes_per_fact", "B", "lower", 0},

	{"replica.apply_ms", "ms", "lower", 0},
	{"replica.bootstrap_ms", "ms", "lower", 0},
	{"replica.records_shipped", "count", "lower", 0},
	{"replica.ship_bytes_per_fact", "B", "lower", 0},
}
