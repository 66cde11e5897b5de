package service

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"tofu/internal/recursive"
	"tofu/internal/store"
)

// latWindow is how many recent search latencies the percentile window keeps.
const latWindow = 1024

// Metrics counts the service's cache and queue behavior and keeps a sliding
// window of search latencies for the percentile gauges. Everything is
// monotonic counters plus one ring buffer, so the hot path is a handful of
// atomic adds.
type Metrics struct {
	hits      atomic.Int64 // requests answered from the plan cache
	misses    atomic.Int64 // requests that started (or joined) a search
	coalesced atomic.Int64 // requests that joined an in-flight search
	rejected  atomic.Int64 // requests bounced by queue backpressure (429)
	jobsDone  atomic.Int64 // searches completed successfully
	jobsFail  atomic.Int64 // searches that errored
	inFlight  atomic.Int64 // searches running right now

	// Ordering-search effort, summed over topology-aware searches: the
	// candidate spaces seen, branch-and-bound nodes expanded (search
	// steps) and pruned, DP steps computed (swept or replayed by the step
	// memo), and the DP steps a flat enumeration would have run instead.
	searchOrderings   atomic.Int64
	searchSteps       atomic.Int64
	searchPruned      atomic.Int64
	searchDPSteps     atomic.Int64
	searchDPStepsFlat atomic.Int64

	// Anytime-search outcomes: searches whose deadline stopped them with an
	// incumbent (degraded), searches cancelled before any incumbent existed,
	// and deadline-bounded submissions rejected at admission because the
	// queue's estimated wait already exceeded their whole budget.
	searchDegraded     atomic.Int64
	searchCancelled    atomic.Int64
	deadlineInfeasible atomic.Int64

	// Persistent-store serving path: requests answered from the store, and
	// checksum-valid entries rejected by plan verification.
	storeServed  atomic.Int64
	storeBadPlan atomic.Int64

	// Per-tenant quota rejections.
	tenantRejected atomic.Int64

	mu     sync.Mutex
	lat    [latWindow]time.Duration
	n      int           // total observations (ring index = n % latWindow)
	latSum time.Duration // lifetime sum (Prometheus summary _sum)
}

func (m *Metrics) observeOrderingSearch(st recursive.SearchStats) {
	if st.Orderings == 0 {
		return // no ordering search: a flat machine or explicit factors
	}
	m.searchOrderings.Add(int64(st.Orderings))
	m.searchSteps.Add(int64(st.Expanded))
	m.searchPruned.Add(int64(st.Pruned))
	// A step the step memo replayed is still a step: counting sweeps alone
	// would make the family incomparable with search_dp_steps_flat.
	m.searchDPSteps.Add(int64(st.DPSolves + st.Replays))
	m.searchDPStepsFlat.Add(int64(st.FlatDPSolves))
}

func (m *Metrics) observeSearch(d time.Duration) {
	m.mu.Lock()
	m.lat[m.n%latWindow] = d
	m.n++
	m.latSum += d
	m.mu.Unlock()
}

// latencyStats is one locked read of the search-latency window: the lifetime
// count and sum (the Prometheus summary's _count and _sum legs) and the
// window's p50 and p99 (its quantile legs; zero while the window is empty).
type latencyStats struct {
	count         int64
	sum, p50, p99 time.Duration
}

func (m *Metrics) latency() latencyStats {
	m.mu.Lock()
	st := latencyStats{count: int64(m.n), sum: m.latSum}
	buf := make([]time.Duration, min(m.n, latWindow))
	copy(buf, m.lat[:])
	m.mu.Unlock()
	if len(buf) == 0 {
		return st
	}
	slices.Sort(buf)
	st.p50 = buf[int(0.50*float64(len(buf)-1))]
	st.p99 = buf[int(0.99*float64(len(buf)-1))]
	return st
}

// Snapshot is the /metrics document and the single definition of every
// metric the service exports. Each field carries its JSON key (`json`), its
// Prometheus family name and type (`prom:"name,type"`) and the family's HELP
// text (`help`); WritePrometheus renders the families by walking these tags.
// The two fields without a `prom` tag, search_p50_ms and search_p99_ms, are
// the quantile legs of the tofu_search_duration_seconds summary. Field order
// is the JSON key order, and so the exposition's family order.
type Snapshot struct {
	Hits          int64 `json:"hits" prom:"tofu_requests_cache_hits_total,counter" help:"Requests answered from the plan cache."`
	Misses        int64 `json:"misses" prom:"tofu_requests_cache_misses_total,counter" help:"Requests that started or joined a search."`
	Coalesced     int64 `json:"coalesced" prom:"tofu_requests_coalesced_total,counter" help:"Requests that joined an in-flight identical search."`
	Rejected      int64 `json:"rejected" prom:"tofu_requests_rejected_total,counter" help:"Requests bounced by queue backpressure."`
	JobsDone      int64 `json:"jobs_done" prom:"tofu_jobs_done_total,counter" help:"Searches completed successfully."`
	JobsFailed    int64 `json:"jobs_failed" prom:"tofu_jobs_failed_total,counter" help:"Searches that errored."`
	InFlight      int64 `json:"in_flight" prom:"tofu_searches_in_flight,gauge" help:"Searches running right now."`
	QueueLen      int   `json:"queue_len" prom:"tofu_queue_len,gauge" help:"Queued-but-not-running search jobs."`
	QueueCap      int   `json:"queue_cap" prom:"tofu_queue_cap,gauge" help:"Search queue capacity."`
	CacheLen      int   `json:"cache_len" prom:"tofu_cache_entries,gauge" help:"Plans resident in the LRU."`
	CacheCap      int   `json:"cache_cap" prom:"tofu_cache_entries_cap,gauge" help:"Plan LRU entry capacity."`
	CacheBytes    int64 `json:"cache_bytes" prom:"tofu_cache_bytes,gauge" help:"Plan LRU resident payload bytes."`
	CacheBytesCap int64 `json:"cache_bytes_cap" prom:"tofu_cache_bytes_cap,gauge" help:"Plan LRU payload byte budget (0 = entries-only bound)."`
	// Store* report the persistent plan store (all zero when none is
	// configured): the store's own entry reads, writes and quarantines, then
	// the service-level split of what it did with the bytes. Forensic copies
	// stop at the store's per-digest cap, so StoreQuarantined can trail
	// StoreCorrupt.
	StoreEnabled     bool  `json:"store_enabled" prom:"tofu_store_enabled,gauge" help:"1 when a persistent plan store is configured."`
	StorePuts        int64 `json:"store_puts" prom:"tofu_store_puts_total,counter" help:"Plans written through to the persistent store."`
	StoreHits        int64 `json:"store_hits" prom:"tofu_store_hits_total,counter" help:"Persistent-store entry reads served."`
	StoreMisses      int64 `json:"store_misses" prom:"tofu_store_misses_total,counter" help:"Persistent-store entry reads missed."`
	StoreCorrupt     int64 `json:"store_corrupt" prom:"tofu_store_corrupt_total,counter" help:"Persistent-store entries quarantined by checksum."`
	StoreQuarantined int64 `json:"store_quarantined" prom:"tofu_store_quarantined_total,counter" help:"Corrupt store entries preserved as forensic .corrupt files."`
	StoreServed      int64 `json:"store_served" prom:"tofu_store_served_total,counter" help:"Requests answered from persistent-store bytes."`
	StoreBadPlan     int64 `json:"store_bad_plan" prom:"tofu_store_bad_plan_total,counter" help:"Checksum-valid store entries rejected by plan verification."`
	StorePutErrors   int64 `json:"store_put_errors" prom:"tofu_store_put_errors_total,counter" help:"Persistent-store write-through failures."`
	TenantRejected   int64 `json:"tenant_rejected" prom:"tofu_requests_tenant_rejected_total,counter" help:"Requests bounced by per-tenant quota."`
	// Search* report cumulative topology-aware ordering-search effort and
	// the anytime outcomes of every search.
	SearchOrderings   int64 `json:"search_orderings" prom:"tofu_search_orderings_total,counter" help:"Candidate factor-to-level orderings examined."`
	SearchSteps       int64 `json:"search_steps" prom:"tofu_search_steps_total,counter" help:"Branch-and-bound nodes expanded."`
	SearchPruned      int64 `json:"search_pruned" prom:"tofu_search_pruned_total,counter" help:"Branch-and-bound nodes pruned."`
	SearchDPSteps     int64 `json:"search_dp_steps" prom:"tofu_search_dp_steps_total,counter" help:"DP steps computed, swept or replayed."`
	SearchDPStepsFlat int64 `json:"search_dp_steps_flat" prom:"tofu_search_dp_steps_flat_total,counter" help:"DP steps a flat enumeration would have run."`
	SearchDegraded    int64 `json:"search_degraded" prom:"tofu_search_degraded_total,counter" help:"Searches stopped by their deadline with a served incumbent."`
	SearchCancelled   int64 `json:"search_cancelled" prom:"tofu_search_cancelled_total,counter" help:"Searches cancelled before any incumbent existed."`
	DeadlineRejected  int64 `json:"deadline_rejected" prom:"tofu_requests_deadline_rejected_total,counter" help:"Deadline-bounded requests refused at admission."`
	// SearchP50Ms and SearchP99Ms are the latency summary's quantile legs.
	SearchP50Ms float64 `json:"search_p50_ms"`
	SearchP99Ms float64 `json:"search_p99_ms"`
	UptimeSec   float64 `json:"uptime_sec" prom:"tofu_uptime_seconds,gauge" help:"Seconds since the service started."`
}

// Metrics snapshots the counters and gauges.
func (s *Service) Metrics() Snapshot {
	return s.snapshot(s.metrics.latency())
}

// snapshot assembles a Snapshot around one read of the latency window, so
// WritePrometheus's summary legs and quantile fields agree.
func (s *Service) snapshot(lat latencyStats) Snapshot {
	var st store.Stats
	if s.cfg.Store != nil {
		st = s.cfg.Store.Stats()
	}
	return Snapshot{
		Hits:              s.metrics.hits.Load(),
		Misses:            s.metrics.misses.Load(),
		Coalesced:         s.metrics.coalesced.Load(),
		Rejected:          s.metrics.rejected.Load(),
		JobsDone:          s.metrics.jobsDone.Load(),
		JobsFailed:        s.metrics.jobsFail.Load(),
		InFlight:          s.metrics.inFlight.Load(),
		QueueLen:          len(s.queue),
		QueueCap:          s.cfg.QueueDepth,
		CacheLen:          s.cache.Len(),
		CacheCap:          s.cfg.CacheSize,
		CacheBytes:        s.cache.Bytes(),
		CacheBytesCap:     s.cfg.CacheBytes,
		StoreEnabled:      s.cfg.Store != nil,
		StorePuts:         st.Puts,
		StoreHits:         st.Hits,
		StoreMisses:       st.Misses,
		StoreCorrupt:      st.Corrupt,
		StoreQuarantined:  st.Quarantined,
		StoreServed:       s.metrics.storeServed.Load(),
		StoreBadPlan:      s.metrics.storeBadPlan.Load(),
		StorePutErrors:    st.PutErrors,
		TenantRejected:    s.metrics.tenantRejected.Load(),
		SearchOrderings:   s.metrics.searchOrderings.Load(),
		SearchSteps:       s.metrics.searchSteps.Load(),
		SearchPruned:      s.metrics.searchPruned.Load(),
		SearchDPSteps:     s.metrics.searchDPSteps.Load(),
		SearchDPStepsFlat: s.metrics.searchDPStepsFlat.Load(),
		SearchDegraded:    s.metrics.searchDegraded.Load(),
		SearchCancelled:   s.metrics.searchCancelled.Load(),
		DeadlineRejected:  s.metrics.deadlineInfeasible.Load(),
		SearchP50Ms:       lat.p50.Seconds() * 1e3,
		SearchP99Ms:       lat.p99.Seconds() * 1e3,
		UptimeSec:         time.Since(s.started).Seconds(),
	}
}
