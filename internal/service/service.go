package service

import (
	"context"
	"errors"
	"log/slog"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tofu/internal/cancel"
	"tofu/internal/store"
)

// Errors the submission path reports; the HTTP layer maps them to status
// codes (429 and 503).
var (
	// ErrQueueFull is queue backpressure: the job queue is at capacity and
	// the caller should retry later.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrTenantQuota is per-tenant backpressure: this tenant already has its
	// full quota of jobs queued or running, even though the global queue may
	// have room. Checked before ErrQueueFull so one tenant's burst reads as
	// its own 429, not everyone's.
	ErrTenantQuota = errors.New("service: tenant over job quota")
	// ErrShuttingDown rejects new work while in-flight jobs drain.
	ErrShuttingDown = errors.New("service: shutting down")
	// ErrDeadlineInfeasible rejects a deadline-bounded request whose budget
	// the queue demonstrably cannot meet; the HTTP layer maps it to 503 with
	// a Retry-After estimate.
	ErrDeadlineInfeasible = errors.New("service: queue cannot meet the request deadline")
)

// Cancellation reasons the service injects into a job's token; both are
// recognized by cancel.IsCancellation, so the layers below return their best
// incumbent (or a clean cancellation error) instead of wedging.
var (
	watchdogReason = cancel.NewReason("service: watchdog fired: search exceeded the per-job budget")
	shutdownReason = cancel.NewReason("service: shutting down: search cancelled by the drain deadline")
)

// DegradedPolicy values: what the HTTP layer does with a plan the deadline
// stopped early.
const (
	// DegradedServe returns the incumbent with a `Tofu-Degraded: true`
	// response header — the anytime contract, and the default.
	DegradedServe = "serve"
	// DegradedFail turns degraded results into 503s; callers that must have
	// the proven optimum retry with a larger budget.
	DegradedFail = "fail"
)

// Config sizes the service.
type Config struct {
	// CacheSize bounds the plan LRU (entries; default 128).
	CacheSize int
	// CacheBytes additionally bounds the plan LRU's payload bytes
	// (0 = entries-only).
	CacheBytes int64
	// Store, when set, layers a persistent content-addressed plan store
	// under the LRU: misses fall through to it (bytes verified against the
	// request digest before serving) and finished searches write through to
	// it. Replicas sharing one store directory serve each other's plans.
	Store *store.Store
	// TenantQuota bounds each tenant's queued-plus-running jobs
	// (0 = no per-tenant limit). Tenants over quota get ErrTenantQuota
	// before the global queue is consulted.
	TenantQuota int
	// Workers is the search worker-pool size (default: half of GOMAXPROCS,
	// at least 1 — each search is itself parallel).
	Workers int
	// QueueDepth bounds queued-but-not-running jobs; a full queue rejects
	// with ErrQueueFull (default 64).
	QueueDepth int
	// SyncWait is how long POST /v1/partition waits for a search before
	// flipping to the async 202 reply (default 2s).
	SyncWait time.Duration
	// Parallelism is each search's DP worker count (0 = GOMAXPROCS).
	Parallelism int
	// PricingCacheSize bounds the cross-request pricing-reuse LRU to this
	// many distinct models (default 32). Warm requests for a cached model —
	// at any worker count or topology — skip most of the symbolic pricing.
	PricingCacheSize int
	// Compute overrides the search itself — the test seam. nil means
	// ComputePlan.
	Compute func(Request) ([]byte, error)
	// ComputeCancel is Compute with the job's cancellation token — the seam
	// for tests that exercise deadlines, the watchdog and the drain path.
	// Takes precedence over Compute when both are set.
	ComputeCancel func(Request, *cancel.Token) ([]byte, error)
	// DefaultDeadline bounds every search that does not carry its own
	// deadline_ms (0 = unbounded). Requests with deadline_ms keep theirs.
	DefaultDeadline time.Duration
	// Watchdog caps any single search's run time regardless of its deadline
	// (0 = none). A fired watchdog cancels the search through the same
	// anytime path as a deadline, so a wedged job degrades instead of
	// pinning a worker forever.
	Watchdog time.Duration
	// DegradedPolicy is what the HTTP layer does with deadline-stopped
	// incumbents: DegradedServe (default) or DegradedFail.
	DegradedPolicy string
	// ShutdownGrace is how long Shutdown waits after cancelling still-running
	// searches before giving up on the drain (default 2s).
	ShutdownGrace time.Duration
	// Logger, when set, receives structured request and job-lifecycle
	// records (log/slog). nil — the default — logs nothing.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0) / 2
		if c.Workers < 1 {
			c.Workers = 1
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.SyncWait <= 0 {
		c.SyncWait = 2 * time.Second
	}
	if c.PricingCacheSize <= 0 {
		c.PricingCacheSize = 32
	}
	if c.DegradedPolicy == "" {
		c.DegradedPolicy = DegradedServe
	}
	if c.ShutdownGrace <= 0 {
		c.ShutdownGrace = 2 * time.Second
	}
	return c
}

// Service is the partition-as-a-service core: cache in front, singleflight
// dedup in the middle, a bounded worker pool and queue behind. The HTTP
// layer (Handler) is a thin translation onto these methods, so tests and
// in-process callers get the identical semantics.
type Service struct {
	cfg     Config
	cache   *Cache
	pricing *PricingCaches
	metrics *Metrics
	started time.Time
	reqSeq  atomic.Int64 // access-log trace-id counter

	mu        sync.Mutex
	closed    bool
	inflight  map[string]*Job // digest -> the job every identical request joins
	jobs      map[string]*Job // id -> job, finished jobs retained (bounded)
	doneIDs   []string        // finished job ids, oldest first (retention ring)
	doneBytes int64           // plan bytes held by the jobs in doneIDs
	tenants   map[string]int  // tenant -> queued-plus-running jobs
	seq       int64

	queue chan *Job
	wg    sync.WaitGroup
}

// New starts a service and its worker pool. A configured store is not read
// here: entries are read, verified and quarantined lazily, one per Lookup.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		cache:    NewCacheBytes(cfg.CacheSize, cfg.CacheBytes),
		pricing:  NewPricingCaches(cfg.PricingCacheSize),
		metrics:  &Metrics{},
		started:  time.Now(),
		inflight: make(map[string]*Job),
		jobs:     make(map[string]*Job),
		tenants:  make(map[string]int),
		queue:    make(chan *Job, cfg.QueueDepth),
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// itoa6 zero-pads a sequence number to six digits (trace and job ids).
func itoa6(n int64) string {
	s := strconv.FormatInt(n, 10)
	for len(s) < 6 {
		s = "0" + s
	}
	return s
}

// Shutdown drains: new submissions are rejected, every queued and running
// job finishes, then the worker pool exits. If the context expires before a
// polite drain completes, every queued and running search is cancelled
// through its token — the anytime path hands back degraded incumbents, a
// genuinely wedged Compute seam is simply abandoned — and the pool gets
// Config.ShutdownGrace to unwind. Only a job that ignores its token past
// the grace makes Shutdown return ctx.Err(); a bounded drain can no longer
// be stalled by one stuck search.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	for _, j := range s.inflight {
		j.token.Cancel(shutdownReason)
	}
	s.mu.Unlock()
	grace := time.NewTimer(s.cfg.ShutdownGrace)
	defer grace.Stop()
	select {
	case <-drained:
		return nil
	case <-grace.C:
		return ctx.Err()
	}
}

// Draining reports whether Shutdown has begun (healthz turns 503).
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}
