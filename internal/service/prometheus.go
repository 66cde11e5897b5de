package service

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus renders the service's metrics in the Prometheus text
// exposition format (version 0.0.4) — the `GET /metrics?format=prometheus`
// body. It is a second view over the same counters the JSON Snapshot
// reports: every family is derived from Snapshot fields plus the search
// latency summary, so the two endpoints can never disagree.
func (s *Service) WritePrometheus(w io.Writer) error {
	snap := s.Metrics()
	count, sum := s.metrics.latencySummary()
	p50, p99 := s.metrics.percentiles()

	var b strings.Builder
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
			name, help, name, name, formatPromFloat(v))
	}

	counter("tofu_requests_cache_hits_total", "Requests answered from the plan cache.", snap.Hits)
	counter("tofu_requests_cache_misses_total", "Requests that started or joined a search.", snap.Misses)
	counter("tofu_requests_coalesced_total", "Requests that joined an in-flight identical search.", snap.Coalesced)
	counter("tofu_requests_rejected_total", "Requests bounced by queue backpressure.", snap.Rejected)
	counter("tofu_requests_tenant_rejected_total", "Requests bounced by per-tenant quota.", snap.TenantRejected)
	counter("tofu_jobs_done_total", "Searches completed successfully.", snap.JobsDone)
	counter("tofu_jobs_failed_total", "Searches that errored.", snap.JobsFailed)

	gauge("tofu_searches_in_flight", "Searches running right now.", float64(snap.InFlight))
	gauge("tofu_queue_len", "Queued-but-not-running search jobs.", float64(snap.QueueLen))
	gauge("tofu_queue_cap", "Search queue capacity.", float64(snap.QueueCap))
	gauge("tofu_cache_entries", "Plans resident in the LRU.", float64(snap.CacheLen))
	gauge("tofu_cache_entries_cap", "Plan LRU entry capacity.", float64(snap.CacheCap))
	gauge("tofu_cache_bytes", "Plan LRU resident payload bytes.", float64(snap.CacheBytes))
	gauge("tofu_uptime_seconds", "Seconds since the service started.", snap.UptimeSec)

	gauge("tofu_store_enabled", "1 when a persistent plan store is configured.", boolGauge(snap.StoreEnabled))
	counter("tofu_store_puts_total", "Plans written through to the persistent store.", snap.StorePuts)
	counter("tofu_store_hits_total", "Persistent-store entry reads served.", snap.StoreHits)
	counter("tofu_store_misses_total", "Persistent-store entry reads missed.", snap.StoreMisses)
	counter("tofu_store_corrupt_total", "Persistent-store entries quarantined by checksum.", snap.StoreCorrupt)
	counter("tofu_store_quarantined_total", "Corrupt store entries preserved as forensic .corrupt files.", snap.StoreQuarantined)
	counter("tofu_store_served_total", "Requests answered from persistent-store bytes.", snap.StoreServed)
	counter("tofu_store_bad_plan_total", "Checksum-valid store entries rejected by plan verification.", snap.StoreBadPlan)
	counter("tofu_store_put_errors_total", "Persistent-store write-through failures.", snap.StorePutErrors)

	gauge("tofu_pricing_models", "Model buckets resident in the pricing-reuse cache.", float64(snap.PricingModels))
	counter("tofu_pricing_hits_total", "Per-slot pricing cache hits across all searches.", snap.PricingHits)
	counter("tofu_pricing_misses_total", "Per-slot pricing cache builds across all searches.", snap.PricingMisses)
	counter("tofu_pricing_model_hits_total", "Pricing bucket-level model hits.", snap.PricingModelHits)
	counter("tofu_pricing_model_misses_total", "Pricing bucket-level model creations.", snap.PricingModelMiss)
	counter("tofu_pricing_table_hits_total", "Dense slot-table memo reuses across all searches.", snap.PricingTableHits)
	counter("tofu_pricing_table_misses_total", "Dense slot tables filled across all searches.", snap.PricingTableMiss)
	gauge("tofu_pricing_table_bytes", "Bytes of dense slot tables resident in the pricing-reuse cache.", float64(snap.PricingTableBytes))

	counter("tofu_search_orderings_total", "Candidate factor-to-level orderings examined.", snap.SearchOrderings)
	counter("tofu_search_steps_total", "Branch-and-bound nodes expanded.", snap.SearchSteps)
	counter("tofu_search_pruned_total", "Branch-and-bound nodes pruned.", snap.SearchPruned)
	counter("tofu_search_dp_steps_total", "DP steps computed, swept or replayed.", snap.SearchDPSteps)
	counter("tofu_search_dp_steps_flat_total", "DP steps a flat enumeration would have run.", snap.SearchDPStepsFlat)
	counter("tofu_search_degraded_total", "Searches stopped by their deadline with a served incumbent.", snap.SearchDegraded)
	counter("tofu_search_cancelled_total", "Searches cancelled before any incumbent existed.", snap.SearchCancelled)
	counter("tofu_requests_deadline_rejected_total", "Deadline-bounded requests refused at admission.", snap.DeadlineRejected)

	// The latency summary: window percentiles as quantile legs, lifetime
	// count and sum — the Prometheus idiom for a client-side histogram.
	const lat = "tofu_search_duration_seconds"
	fmt.Fprintf(&b, "# HELP %s Wall-clock duration of completed searches.\n# TYPE %s summary\n", lat, lat)
	fmt.Fprintf(&b, "%s{quantile=\"0.5\"} %s\n", lat, formatPromFloat(p50.Seconds()))
	fmt.Fprintf(&b, "%s{quantile=\"0.99\"} %s\n", lat, formatPromFloat(p99.Seconds()))
	fmt.Fprintf(&b, "%s_sum %s\n", lat, formatPromFloat(sum.Seconds()))
	fmt.Fprintf(&b, "%s_count %d\n", lat, count)

	_, err := io.WriteString(w, b.String())
	return err
}

// formatPromFloat renders a float the way Prometheus parses fastest: bare
// integers stay integral, everything else is shortest-round-trip.
func formatPromFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
