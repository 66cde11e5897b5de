package main

// metricDef is one row of the benchmark's metric tables. BENCHMARK.json
// carries the same rows (bench_test.go holds the two in agreement); bound is
// the share of the baseline median by which the metric may worsen.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a caller of the system sees. Every workload reports every
// row (the benchmark contract gates each pairing), so each is defined on
// both kinds of workload; README.md gives the two definitions side by side.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"plan_norm_ms", "norm-ms", lower, 0.20},
	{"req_p50_norm_us", "us", lower, 0.20},
	{"req_per_s_norm", "req/s", higher, 0.20},
	{"plan_alloc_mb", "MB", lower, 0.01},
	{"plan_allocs_k", "kallocs", lower, 0.01},
	{"sim_iter_ms", "sim-ms", lower, 0},
	{"gpu_peak_gb", "GB", lower, 0},
	{"comm_gb", "GB", lower, 0},
	{"peak_rss_mb", "MB", lower, 0.25},
}

// perLayer is the ledger: one group of rows per module, measured by timing
// calls into that module's public functions from this package. A row that
// does not apply to a workload reads 0 there. The bounds are not gated by
// the driver; `-compare` applies the non-zero ones.
var perLayer = []metricDef{
	{"models.build_ms", "ms", lower, 0},

	{"coarsen.coarsen_ms", "ms", lower, 0},
	{"coarsen.groups", "count", lower, 0},
	{"coarsen.vars", "count", lower, 0},
	{"coarsen.max_frontier", "count", lower, 0},

	{"dp.solve_cold_ms", "ms", lower, 0},
	{"dp.solve_warm_ms", "ms", lower, 0},
	{"dp.price_hits", "count", higher, 0},
	{"dp.price_misses", "count", lower, 0},
	{"dp.states", "count", lower, 0},
	{"dp.configs", "count", lower, 0},
	{"dp.alloc_mb", "MB", lower, 0},

	{"recursive.partition_ms", "ms", lower, 0},
	{"recursive.orderings", "count", lower, 0},
	{"recursive.expanded", "count", lower, 0},
	{"recursive.pruned", "count", higher, 0},
	{"recursive.dp_solves", "count", lower, 0},
	{"recursive.flat_dp_solves", "count", lower, 0},
	{"recursive.alloc_mb", "MB", lower, 0},

	{"hybrid.partition_ms", "ms", lower, 0},
	{"hybrid.boundary_sets", "count", lower, 0},
	{"hybrid.expanded", "count", lower, 0},
	{"hybrid.pruned", "count", higher, 0},
	{"hybrid.leaves", "count", lower, 0},
	{"hybrid.segments", "count", lower, 0},
	{"hybrid.dp_solves", "count", lower, 0},
	{"hybrid.lb_queries", "count", lower, 0},
	{"hybrid.alloc_mb", "MB", lower, 0},

	{"graphgen.generate_ms", "ms", lower, 0},
	{"memplan.plan_ms", "ms", lower, 0},
	{"sim.run_ms", "ms", lower, 0},

	{"plan.encode_ms", "ms", lower, 0},
	{"plan.decode_ms", "ms", lower, 0},
	{"plan.bytes", "B", lower, 0},

	{"core.partition_ms", "ms", lower, 0},
	{"core.unattributed_share", "share", lower, 0},

	{"service.parse_us", "us", lower, 0},
	{"service.digest_us", "us", lower, 0},
	{"service.cache_get_us", "us", lower, 0},
	{"service.cache_put_us", "us", lower, 0},
	{"service.lookup_hit_us", "us", lower, 0},
	{"service.lookup_store_us", "us", lower, 0},
	{"service.handler_hit_us", "us", lower, 0},
	{"service.submit_wait_ms", "ms", lower, 0},
	{"service.queue_wait_ms", "ms", lower, 0},
	{"service.run_ms", "ms", lower, 0},

	{"store.get_us", "us", lower, 0},
	{"store.put_us", "us", lower, 0},

	{"http.overhead_us", "us", lower, 0},

	{"span.coarsen_self_ms", "ms", lower, 0},
	{"span.recursive.step_self_ms", "ms", lower, 0},
	{"span.dp.solve_self_ms", "ms", lower, 0},
	{"span.dp.pricing_self_ms", "ms", lower, 0},
	{"span.order.search_self_ms", "ms", lower, 0},
	{"span.order.expand_self_ms", "ms", lower, 0},
	{"span.hybrid.level_self_ms", "ms", lower, 0},
	{"span.hybrid.segment_self_ms", "ms", lower, 0},
	{"trace.overhead_share", "ratio", lower, 0},

	// The server's own GET /metrics after a serve run.
	{"service.hits", "count", higher, 0},
	{"service.misses", "count", lower, 0},
	{"service.coalesced", "count", lower, 0},
	{"service.store_served", "count", higher, 0},
	{"service.jobs_done", "count", lower, 0},
	{"service.hit_ratio", "ratio", higher, 0},
	{"service.search_p50_ms", "ms", lower, 0},

	// Serving metrics that exist on serve-* only, so they cannot be
	// end-to-end rows; `-compare` still applies these bounds.
	{"req_p99_norm_us", "us", lower, 0.15},
	{"miss_p50_norm_ms", "ms", lower, 0.15},

	// Wall clock as read, never gated: the *_norm_* rows divided these by
	// the adjacent calibration.
	{"raw.plan_ms", "ms", lower, 0},
	{"raw.req_per_s", "req/s", higher, 0},
	{"raw.req_p50_us", "us", lower, 0},
	{"raw.req_p99_us", "us", lower, 0},
	{"raw.miss_p50_ms", "ms", lower, 0},
	{"raw.calib_ms", "ms", lower, 0},
}

// value is one reported measurement.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line of output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report fills a result's metrics from measured values: every row of defs,
// zero where the workload measured nothing for it.
func report(defs []metricDef, got map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: got[d.Name], Unit: d.Unit}
	}
	return out
}
