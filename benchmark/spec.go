package main

// The metric directory: every name the benchmark emits, with its unit,
// direction and (for end-to-end metrics) regression bound. BENCHMARK.json
// at the repository root states the same directory for the driver;
// spec_test.go fails when the two disagree.

// metricSpec describes one metric.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Exact  bool    // per-layer only: a seed-deterministic count that must repeat bitwise
}

// workloadSpec names one workload and why it exists.
type workloadSpec struct {
	Name string
	Why  string
}

var workloads = []workloadSpec{
	{"diimm_ic", "DIIMM under IC on in-process workers: RR generation is about 95% of wall, so a sampling-kernel change must show here and nowhere else"},
	{"diimm_lt_tcp", "DIIMM under LT over TCP loopback at k=200: generation drops to about half, index build, NEWGREEDI map stage, master reduce and the wire carry the rest"},
	{"serve_certified", "restored daemon, every query misses the cache and runs select plus prefix-certify on the resident sample: zero shared work, zero RR generation"},
	{"serve_update", "dynamic daemon with graph updates beside cached reads: requests share almost all work, so HTTP/JSON, cache, sketch and sample repair dominate"},
}

// endToEnd lists the metrics a user of the system sees. Every workload
// reports every one of them (README.md says what each means per
// workload). Bounds are at least twice the spread between ten runs on
// the 2-core reference box (README.md has the table), whose speed drifts
// by several percent over minutes: every timing needs the contract's
// widest bound, the counts get three times their spread.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "wire_bytes", Unit: "B", Better: "lower", Bound: 0.10},
	{Name: "spread_nodes", Unit: "nodes", Better: "higher", Bound: 0.03},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.15},
}

// perLayer lists the single-layer metrics of the traced run; the layer
// is the package name before the first dot. A metric that does not
// apply to a workload reads 0 there.
var perLayer = []metricSpec{
	{Name: "graph.open_s", Unit: "s", Better: "lower"},
	{Name: "graph.csr_bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "graph.apply_updates_s", Unit: "s", Better: "lower"},

	{Name: "rrset.gen_sets_per_s", Unit: "1/s", Better: "higher"},
	{Name: "rrset.gen_ns_per_probe", Unit: "ns", Better: "lower"},
	{Name: "rrset.gen_edge_probes", Unit: "count", Better: "lower", Exact: true},
	{Name: "rrset.avg_set_size", Unit: "nodes", Better: "lower", Exact: true},
	{Name: "rrset.gen_alloc_bytes_per_set", Unit: "B", Better: "lower"},
	{Name: "rrset.index_build_s", Unit: "s", Better: "lower"},
	{Name: "rrset.index_entries", Unit: "count", Better: "lower", Exact: true},
	{Name: "rrset.wire_encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "rrset.wire_decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "rrset.resident_bytes", Unit: "B", Better: "lower", Exact: true},

	{Name: "coverage.select_s", Unit: "s", Better: "lower"},
	{Name: "coverage.delta_pairs", Unit: "count", Better: "lower", Exact: true},
	{Name: "coverage.covered_sets", Unit: "count", Better: "higher", Exact: true},
	{Name: "coverage.master_reduce_s", Unit: "s", Better: "lower"},

	{Name: "cluster.generate_s", Unit: "s", Better: "lower"},
	{Name: "cluster.oracle_initial_degrees_s", Unit: "s", Better: "lower"},
	{Name: "cluster.oracle_select_s", Unit: "s", Better: "lower"},
	{Name: "cluster.gen_critical_s", Unit: "s", Better: "lower"},
	{Name: "cluster.gen_total_s", Unit: "s", Better: "lower"},
	{Name: "cluster.sel_critical_s", Unit: "s", Better: "lower"},
	{Name: "cluster.master_compute_s", Unit: "s", Better: "lower"},
	{Name: "cluster.comm_s", Unit: "s", Better: "lower"},
	{Name: "cluster.rpc_calls", Unit: "count", Better: "lower", Exact: true},
	{Name: "cluster.rounds", Unit: "count", Better: "lower", Exact: true},
	{Name: "cluster.bytes_sent", Unit: "B", Better: "lower", Exact: true},
	{Name: "cluster.bytes_recv", Unit: "B", Better: "lower", Exact: true},
	{Name: "cluster.delta_bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "cluster.rpc_wall_s", Unit: "s", Better: "lower"},
	{Name: "cluster.rpc_failed", Unit: "count", Better: "lower", Exact: true},

	{Name: "imm.rounds", Unit: "count", Better: "lower", Exact: true},
	{Name: "imm.theta", Unit: "count", Better: "lower", Exact: true},
	{Name: "imm.certify_us", Unit: "us", Better: "lower"},

	{Name: "core.run_s", Unit: "s", Better: "lower"},
	{Name: "core.child_coverage", Unit: "fraction", Better: "higher"},
	{Name: "core.cpu_s", Unit: "s", Better: "lower"},

	{Name: "serve.query_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.handler_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.http_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cache_hit_share", Unit: "fraction", Better: "higher"},
	{Name: "serve.reuse_share", Unit: "fraction", Better: "higher"},
	{Name: "serve.grow_rounds", Unit: "count", Better: "lower", Exact: true},
	{Name: "serve.rejected_429", Unit: "count", Better: "lower"},
	{Name: "serve.degraded_503", Unit: "count", Better: "lower"},
	{Name: "serve.warm_s", Unit: "s", Better: "lower"},
	{Name: "serve.update_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.repaired_sets", Unit: "count", Better: "lower", Exact: true},
	{Name: "serve.update_http_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.update_http_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "serve.read_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.read_p95_idle_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.read_p95_during_update_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.read_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.spread_mc_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "sketch.build_s", Unit: "s", Better: "lower"},
	{Name: "sketch.bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "sketch.estimate_us", Unit: "us", Better: "lower"},

	{Name: "mutate.validate_s", Unit: "s", Better: "lower"},
	{Name: "mutate.plan_s", Unit: "s", Better: "lower"},
	{Name: "mutate.affected_sets", Unit: "count", Better: "lower", Exact: true},

	{Name: "store.checkpoint_s", Unit: "s", Better: "lower"},
	{Name: "store.checkpoint_mb", Unit: "MB", Better: "lower", Exact: true},
	{Name: "store.restore_s", Unit: "s", Better: "lower"},
	{Name: "store.restore_mb_per_s", Unit: "MB/s", Better: "higher"},

	{Name: "bench.trace_overhead", Unit: "fraction", Better: "lower"},
	{Name: "bench.loadgen_late_ms_p99", Unit: "ms", Better: "lower"},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}
