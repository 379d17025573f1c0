package main

// The names in this file are the benchmark's contract: BENCHMARK.json lists
// the same workloads and metrics (a test holds the two together), and later
// changes cite them.

// workloadSpec is one named workload.
type workloadSpec struct {
	name   string
	zipf   bool // Zipf(1.1) draws instead of uniform
	churn  bool // a writer and one adapt run against the window
	slices int  // how many slices the window is cut into
	build  func(*env) (*target, error)
	// layers is the traced run's pass over the layers on this workload's
	// own request path.
	layers func(*layerPass) error
}

var workloads = []workloadSpec{
	{name: "embedded-mixed", slices: steadySlices, build: buildEmbedded, layers: (*layerPass).embedded},
	{name: "serve-hot", zipf: true, slices: steadySlices, build: buildServeHot, layers: (*layerPass).served},
	{name: "router-scatter", slices: steadySlices, build: buildRouter, layers: (*layerPass).routed},
	{name: "serve-churn", churn: true, slices: 1, build: buildServeChurn, layers: (*layerPass).churned},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// endToEndSpec is one end-to-end metric: every untraced run of every
// workload reports it. bound is the share of the parent's median by which it
// may get worse before a change counts as a regression.
type endToEndSpec struct {
	name, unit string
	bound      float64
	higher     bool // more is better
}

// Every timed metric carries the contract's largest bound. Ten runs of one
// commit on the two-core guest this was sized on spread by 2–6% of the median
// while the guest keeps one speed, and the guest changes speed by up to a
// third for minutes at a time (README.md, Noise); a bound below three times
// the spread would reject changes for the neighbour's behaviour.
var endToEnd = []endToEndSpec{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "qps", unit: "1/s", bound: 0.25, higher: true},
	{name: "query_p50_us", unit: "us", bound: 0.25},
	{name: "query_p99_us", unit: "us", bound: 0.25},
	{name: "q1_mean_us", unit: "us", bound: 0.25},
	{name: "q2_mean_us", unit: "us", bound: 0.25},
	{name: "q3_mean_us", unit: "us", bound: 0.25},
	{name: "qmixed_mean_us", unit: "us", bound: 0.25},
	{name: "heap_bytes_per_node", unit: "B", bound: 0.05},
	{name: "write_ms", unit: "ms", bound: 0.25},
	{name: "adapt_s", unit: "s", bound: 0.25},
	{name: "recover_s", unit: "s", bound: 0.25},
}

func endToEndByName(name string) (endToEndSpec, bool) {
	for _, m := range endToEnd {
		if m.name == name {
			return m, true
		}
	}
	return endToEndSpec{}, false
}

// layerSpec names one per-layer metric with its unit, the end-to-end metric
// it is expected to move and the workload it should move it on — the
// prediction written down before anything is optimised. The traced run of
// workload on measures it, and so does every other traced run whose
// workload's requests cross the layer; a run reports 0 for a layer they do
// not cross.
type layerSpec struct {
	name, unit string
	moves, on  string
}

var perLayer = []layerSpec{
	// xmlgraph
	{"xmlgraph.parse_s", "s", "setup_s", "embedded-mixed"},
	{"xmlgraph.clone_ms", "ms", "write_ms", "serve-churn"},
	{"xmlgraph.append_ms", "ms", "write_ms", "serve-churn"},
	{"xmlgraph.heap_bytes_per_node", "B", "heap_bytes_per_node", "embedded-mixed"},
	// core
	{"core.build_s", "s", "setup_s", "embedded-mixed"},
	{"core.extract_ms", "ms", "setup_s", "embedded-mixed"},
	{"core.update_ms", "ms", "setup_s", "embedded-mixed"},
	{"core.freeze_ms", "ms", "setup_s", "embedded-mixed"},
	{"core.refresh_ms", "ms", "write_ms", "serve-churn"},
	{"core.lookup_ns", "ns", "q1_mean_us", "embedded-mixed"},
	{"core.fastpath_share", "ratio", "q1_mean_us", "embedded-mixed"},
	{"core.extent_bytes_per_edge", "B", "heap_bytes_per_node", "embedded-mixed"},
	{"core.gapex_nodes", "count", "heap_bytes_per_node", "embedded-mixed"},
	{"core.required_paths", "count", "heap_bytes_per_node", "embedded-mixed"},
	// query
	{"query.parse_ns", "ns", "query_p50_us", "embedded-mixed"},
	{"query.eval_q1_us", "us", "q1_mean_us", "embedded-mixed"},
	{"query.eval_q2_us", "us", "q2_mean_us", "embedded-mixed"},
	{"query.eval_q3_us", "us", "q3_mean_us", "embedded-mixed"},
	{"query.eval_qmixed_us", "us", "qmixed_mean_us", "embedded-mixed"},
	{"query.cost_per_query", "count", "query_p50_us", "embedded-mixed"},
	{"query.examined_per_result", "ratio", "query_p50_us", "embedded-mixed"},
	{"query.plan_cache_hit_rate", "ratio", "query_p50_us", "embedded-mixed"},
	{"query.leg_cache_hit_rate", "ratio", "query_p50_us", "embedded-mixed"},
	{"query.backward_plans", "count", "query_p50_us", "embedded-mixed"},
	{"query.hash_stage_share", "ratio", "query_p50_us", "embedded-mixed"},
	{"query.pool_exhausted", "count", "query_p99_us", "embedded-mixed"},
	// extentblock
	{"extentblock.bytes_per_edge", "B", "heap_bytes_per_node", "embedded-mixed"},
	{"extentblock.eval_ratio", "ratio", "query_p50_us", "embedded-mixed"},
	{"extentblock.block_skips_per_query", "count", "query_p50_us", "embedded-mixed"},
	// storage
	{"storage.datatable_build_ms", "ms", "setup_s", "embedded-mixed"},
	{"storage.datatable_lookups_per_q3", "count", "q3_mean_us", "embedded-mixed"},
	{"storage.persist_s", "s", "setup_s", "serve-churn"},
	{"storage.checkpoint_s", "s", "setup_s", "serve-churn"},
	{"storage.disk_bytes_per_node", "B", "recover_s", "serve-churn"},
	{"storage.wal_fsync_ms", "ms", "write_ms", "serve-churn"},
	{"storage.wal_bytes_per_write", "B", "write_ms", "serve-churn"},
	{"storage.wal_fsyncs_per_write", "count", "write_ms", "serve-churn"},
	{"storage.open_dir_s", "s", "recover_s", "serve-churn"},
	{"storage.replayed_records", "count", "recover_s", "serve-churn"},
	// apex (facade)
	{"apex.query_us", "us", "query_p50_us", "embedded-mixed"},
	{"apex.materialize_us", "us", "query_p50_us", "embedded-mixed"},
	{"apex.nodes_per_result", "count", "query_p50_us", "embedded-mixed"},
	{"apex.insert_ms", "ms", "write_ms", "serve-churn"},
	{"apex.delete_ms", "ms", "write_ms", "serve-churn"},
	{"apex.adapt_ms", "ms", "adapt_s", "serve-churn"},
	{"apex.recover_tail_s", "s", "recover_s", "serve-churn"},
	// server
	{"server.handler_hit_us", "us", "query_p50_us", "serve-hot"},
	{"server.handler_miss_us", "us", "query_p50_us", "serve-churn"},
	{"server.self_miss_us", "us", "query_p50_us", "serve-churn"},
	{"server.transport_us", "us", "query_p50_us", "serve-hot"},
	{"server.reported_wall_us", "us", "query_p50_us", "serve-hot"},
	{"server.bytes_per_response", "B", "qps", "serve-hot"},
	{"server.requests_per_op", "ratio", "qps", "serve-hot"},
	{"server.cache_hit_rate", "ratio", "qps", "serve-hot"},
	{"server.cache_evictions", "count", "qps", "serve-hot"},
	{"server.shed", "count", "qps", "serve-hot"},
	// shard
	{"shard.partition_s", "s", "setup_s", "router-scatter"},
	{"shard.replicated_units", "count", "heap_bytes_per_node", "router-scatter"},
	{"shard.backend_queries_per_op", "ratio", "qps", "router-scatter"},
	{"shard.router_handler_us", "us", "query_p50_us", "router-scatter"},
	{"shard.gather_us", "us", "query_p50_us", "router-scatter"},
	{"shard.slowest_backend_us", "us", "query_p50_us", "router-scatter"},
	{"shard.scatter_overhead_us", "us", "query_p50_us", "router-scatter"},
	{"shard.merge_us", "us", "query_p50_us", "router-scatter"},
	{"shard.result_skew", "ratio", "query_p99_us", "router-scatter"},
	// Guards and harness cost: no program layer owns these.
	{"controller.adapts", "count", "qps", "serve-churn"},
	{"churn.writes", "count", "qps", "serve-churn"},
	{"datagen.generate_s", "s", "setup_s", "embedded-mixed"},
	{"workload.generate_s", "s", "setup_s", "embedded-mixed"},
	{"trace.window_p50_us", "us", "query_p50_us", "embedded-mixed"},
	{"trace.client_p50_us", "us", "query_p50_us", "embedded-mixed"},
	{"trace.negative_self_layers", "count", "query_p50_us", "embedded-mixed"},
}

func layerByName(name string) (layerSpec, bool) {
	for _, m := range perLayer {
		if m.name == name {
			return m, true
		}
	}
	return layerSpec{}, false
}
