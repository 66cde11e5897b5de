package service

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tofu/internal/recursive"
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
		return // flat machine or topology-blind search
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

// latencySummary returns the lifetime observation count and sum — the
// _count/_sum legs of the Prometheus search-duration summary (the window
// percentiles are its quantile legs).
func (m *Metrics) latencySummary() (count int64, sum time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(m.n), m.latSum
}

// percentiles returns (p50, p99) over the window, zero when empty.
func (m *Metrics) percentiles() (time.Duration, time.Duration) {
	m.mu.Lock()
	k := m.n
	if k > latWindow {
		k = latWindow
	}
	buf := make([]time.Duration, k)
	copy(buf, m.lat[:k])
	m.mu.Unlock()
	if k == 0 {
		return 0, 0
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	idx := func(p float64) int {
		i := int(p * float64(k-1))
		return i
	}
	return buf[idx(0.50)], buf[idx(0.99)]
}

// Snapshot is the expvar-style /metrics document.
type Snapshot struct {
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Coalesced  int64 `json:"coalesced"`
	Rejected   int64 `json:"rejected"`
	JobsDone   int64 `json:"jobs_done"`
	JobsFailed int64 `json:"jobs_failed"`
	InFlight   int64 `json:"in_flight"`
	QueueLen   int   `json:"queue_len"`
	QueueCap   int   `json:"queue_cap"`
	CacheLen   int   `json:"cache_len"`
	CacheCap   int   `json:"cache_cap"`
	// CacheBytes is the LRU's resident payload; CacheBytesCap its byte
	// budget (0 = entries-only bound).
	CacheBytes    int64 `json:"cache_bytes"`
	CacheBytesCap int64 `json:"cache_bytes_cap"`
	// Store* report the persistent plan store (all zero when none is
	// configured): entry reads served/missed/quarantined by the store
	// itself, plus the service-level split — requests answered from store
	// bytes, checksum-valid entries rejected by plan verification, and
	// write-through failures.
	StoreEnabled bool  `json:"store_enabled"`
	StorePuts    int64 `json:"store_puts"`
	StoreHits    int64 `json:"store_hits"`
	StoreMisses  int64 `json:"store_misses"`
	StoreCorrupt int64 `json:"store_corrupt"`
	// StoreQuarantined counts corrupt entries preserved as .corrupt.<n>
	// forensic files (the per-digest cap drops the overflow; those still
	// count in StoreCorrupt).
	StoreQuarantined int64 `json:"store_quarantined"`
	StoreServed      int64 `json:"store_served"`
	StoreBadPlan     int64 `json:"store_bad_plan"`
	StorePutErrors   int64 `json:"store_put_errors"`
	// TenantRejected counts per-tenant quota 429s (before global
	// backpressure).
	TenantRejected int64 `json:"tenant_rejected"`
	// Pricing* report the cross-request pricing-reuse layer: resident model
	// buckets, per-slot pricing hits vs builds across all searches, and
	// bucket-level model hits vs creations, and the dense slot-table memo's
	// reuses vs fills with the bytes its resident tables occupy.
	PricingModels     int   `json:"pricing_models"`
	PricingModelCap   int   `json:"pricing_model_cap"`
	PricingHits       int64 `json:"pricing_hits"`
	PricingMisses     int64 `json:"pricing_misses"`
	PricingModelHits  int64 `json:"pricing_model_hits"`
	PricingModelMiss  int64 `json:"pricing_model_misses"`
	PricingTableHits  int64 `json:"pricing_table_hits"`
	PricingTableMiss  int64 `json:"pricing_table_misses"`
	PricingTableBytes int64 `json:"pricing_table_bytes"`
	// Search* report cumulative topology-aware ordering-search effort: the
	// candidate orderings examined, branch-and-bound nodes expanded (search
	// steps) and pruned, DP steps computed (swept, or replayed by the step
	// memo) and what a flat enumeration would have cost.
	SearchOrderings   int64 `json:"search_orderings"`
	SearchSteps       int64 `json:"search_steps"`
	SearchPruned      int64 `json:"search_pruned"`
	SearchDPSteps     int64 `json:"search_dp_steps"`
	SearchDPStepsFlat int64 `json:"search_dp_steps_flat"`
	// SearchDegraded counts searches the deadline stopped with a served
	// incumbent; SearchCancelled counts searches cancelled before any
	// incumbent existed; DeadlineRejected counts deadline-bounded requests
	// refused at admission because the queue could not meet their budget.
	SearchDegraded   int64   `json:"search_degraded"`
	SearchCancelled  int64   `json:"search_cancelled"`
	DeadlineRejected int64   `json:"deadline_rejected"`
	SearchP50Ms      float64 `json:"search_p50_ms"`
	SearchP99Ms      float64 `json:"search_p99_ms"`
	UptimeSec        float64 `json:"uptime_sec"`
}
