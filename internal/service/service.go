package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tofu/internal/cancel"
	"tofu/internal/plan"
	"tofu/internal/recursive"
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

// JobState is the lifecycle of an async search job.
type JobState string

const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// Job is one deduplicated search: every concurrent request for the same
// digest shares a single Job (singleflight), and the async API polls it by
// ID.
type Job struct {
	id     string
	digest string
	req    Request
	// tenant is the quota bucket holding a slot for this job ("" = none).
	tenant string

	// done closes when the search finishes (either way); val/err/degraded
	// are only read after done.
	done     chan struct{}
	val      []byte
	err      error
	degraded bool

	// token cancels the job's search: the deadline and watchdog arm it when
	// the job starts running, and Shutdown trips it on every queued or
	// running job when the drain deadline expires. nil only on the synthetic
	// cache-hit jobs, which never run.
	token *cancel.Token

	mu       sync.Mutex
	state    JobState
	created  time.Time
	started  time.Time
	finished time.Time
}

// ID is the job's opaque identifier.
func (j *Job) ID() string { return j.id }

// Digest is the request content digest the job answers.
func (j *Job) Digest() string { return j.digest }

// Done closes when the search finishes.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the serialized plan (or search error); it must only be
// called after Done is closed.
func (j *Job) Result() ([]byte, error) { return j.val, j.err }

// Degraded reports that the plan is a deadline-stopped incumbent rather
// than the proven optimum; like Result, it must only be called after Done.
func (j *Job) Degraded() bool { return j.degraded }

// Status is the JSON view of a job for GET /v1/jobs/{id}.
type Status struct {
	ID      string   `json:"id"`
	Digest  string   `json:"digest"`
	State   JobState `json:"state"`
	Error   string   `json:"error,omitempty"`
	PlanURL string   `json:"plan_url,omitempty"`
	// QueuedMs and RunMs break down where the job's wall-clock went.
	QueuedMs float64 `json:"queued_ms"`
	RunMs    float64 `json:"run_ms,omitempty"`
	// Degraded marks a done job whose plan is a deadline-stopped incumbent.
	Degraded bool `json:"degraded,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{ID: j.id, Digest: j.digest, State: j.state}
	switch j.state {
	case JobQueued:
		st.QueuedMs = time.Since(j.created).Seconds() * 1e3
	case JobRunning:
		st.QueuedMs = j.started.Sub(j.created).Seconds() * 1e3
		st.RunMs = time.Since(j.started).Seconds() * 1e3
	case JobDone, JobFailed:
		st.QueuedMs = j.started.Sub(j.created).Seconds() * 1e3
		st.RunMs = j.finished.Sub(j.started).Seconds() * 1e3
	}
	if j.state == JobDone {
		st.PlanURL = "/v1/plans/" + j.digest
		st.Degraded = j.degraded
	}
	if j.state == JobFailed && j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

func (j *Job) setState(s JobState) {
	j.mu.Lock()
	now := time.Now()
	j.state = s
	switch s {
	case JobRunning:
		j.started = now
	case JobDone, JobFailed:
		j.finished = now
	}
	j.mu.Unlock()
}

// maxRetainedJobs and maxRetainedBytes bound the finished-job index, by
// count and by the plan bytes the jobs hold, so a long-lived daemon's job
// map cannot grow without bound (1024 plans of a few megabytes each would
// pin gigabytes beside a 128-entry LRU); pollers of evicted jobs re-POST.
const (
	maxRetainedJobs  = 1024
	maxRetainedBytes = 32 << 20
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

// Lookup answers from the warm layers: the in-memory LRU first, then the
// persistent store (when configured). Store bytes are verified to answer
// the digest — plan.Verify, every check of plan.ReadJSONExpect without
// building the plan, on top of the store's own checksum — before being
// promoted into the LRU and served.
func (s *Service) Lookup(digest string) ([]byte, bool) {
	val, ok := s.cache.Get(digest)
	if ok {
		s.metrics.hits.Add(1)
		return val, ok
	}
	if s.cfg.Store == nil {
		return nil, false
	}
	_, val, err := s.cfg.Store.Get(digest)
	if err != nil {
		return nil, false
	}
	if _, err := plan.Verify(val, digest); err != nil {
		// Checksum-valid but not a plan answering this digest: a writer
		// bug, not bit rot. Don't serve it; the search recomputes.
		s.metrics.storeBadPlan.Add(1)
		return nil, false
	}
	s.cache.Put(digest, val)
	s.metrics.hits.Add(1)
	s.metrics.storeServed.Add(1)
	return val, true
}

// SubmitKind says how Submit resolved a request: a fresh search, a join
// onto an in-flight identical search, or a cache hit that landed between
// the caller's Lookup and the submission.
type SubmitKind int

const (
	SubmitNew SubmitKind = iota
	SubmitJoined
	SubmitCached
)

// Submit routes a cache miss: join the in-flight job for the same digest if
// one exists (SubmitJoined), otherwise enqueue a new search (SubmitNew). A
// full queue returns ErrQueueFull; a draining service returns
// ErrShuttingDown. The caller must have Normalized the request (digest must
// be its Digest).
func (s *Service) Submit(req Request, digest string) (job *Job, kind SubmitKind, err error) {
	return s.SubmitTenant(req, digest, "")
}

// SubmitTenant is Submit under a tenant's quota: when Config.TenantQuota is
// set and the tenant already has that many jobs queued or running, the
// submission is rejected with ErrTenantQuota — before the global queue is
// consulted, so one tenant's burst cannot read as fleet-wide backpressure.
// Joining an in-flight search is always free: the work already exists.
func (s *Service) SubmitTenant(req Request, digest, tenant string) (job *Job, kind SubmitKind, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, SubmitNew, ErrShuttingDown
	}
	// Re-check the cache under the lock: a search may have finished between
	// the caller's Lookup and here, and its job already left inflight.
	if _, ok := s.cache.Get(digest); ok {
		s.metrics.hits.Add(1)
		return s.finishedJobFor(digest), SubmitCached, nil
	}
	if j, ok := s.inflight[digest]; ok {
		s.metrics.coalesced.Add(1)
		s.metrics.misses.Add(1)
		return j, SubmitJoined, nil
	}
	if tenant != "" && s.cfg.TenantQuota > 0 && s.tenants[tenant] >= s.cfg.TenantQuota {
		s.metrics.tenantRejected.Add(1)
		return nil, SubmitNew, fmt.Errorf("%w (tenant %q, quota %d)", ErrTenantQuota, tenant, s.cfg.TenantQuota)
	}
	s.seq++
	j := &Job{
		id:      fmt.Sprintf("j%06d-%s", s.seq, shortDigest(digest)),
		digest:  digest,
		req:     req,
		tenant:  tenant,
		done:    make(chan struct{}),
		token:   cancel.New(),
		state:   JobQueued,
		created: time.Now(),
	}
	select {
	case s.queue <- j:
	default:
		s.metrics.rejected.Add(1)
		return nil, SubmitNew, ErrQueueFull
	}
	if tenant != "" {
		s.tenants[tenant]++
	}
	s.inflight[digest] = j
	s.jobs[j.id] = j
	s.metrics.misses.Add(1)
	return j, SubmitNew, nil
}

// finishedJobFor returns the retained finished job for a digest if one is
// still indexed, or a synthetic done job wrapping the cached bytes — so
// Submit's cache re-check hands every caller a waitable Job either way.
func (s *Service) finishedJobFor(digest string) *Job {
	for _, id := range s.doneIDs {
		if j := s.jobs[id]; j != nil && j.digest == digest && j.err == nil {
			return j
		}
	}
	val, _ := s.cache.Get(digest)
	j := &Job{
		id: "cached-" + shortDigest(digest), digest: digest,
		done: make(chan struct{}), state: JobDone, val: val,
	}
	close(j.done)
	return j
}

func shortDigest(d string) string {
	if len(d) >= 15 {
		return d[7:15]
	}
	return d
}

// itoa6 zero-pads a sequence number to six digits (trace and job ids).
func itoa6(n int64) string {
	s := strconv.FormatInt(n, 10)
	for len(s) < 6 {
		s = "0" + s
	}
	return s
}

// RecoverPlan returns a finished-but-evicted plan from the retained job
// index, re-inserting it into the cache. It is the async API's backstop: a
// plan computed for a 202'd client must survive cache churn at least until
// its job is evicted from the (larger, time-ordered) job index — otherwise
// the client's completed search would be lost and re-run. Degraded plans
// are recoverable too (their 202'd clients still deserve the incumbent)
// but stay out of the cache, so fresh requests re-search.
func (s *Service) RecoverPlan(digest string) (val []byte, degraded, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.doneIDs) - 1; i >= 0; i-- {
		if j := s.jobs[s.doneIDs[i]]; j != nil && j.digest == digest && j.err == nil {
			if !j.degraded {
				s.cache.Put(digest, j.val)
			}
			s.metrics.hits.Add(1)
			return j.val, j.degraded, true
		}
	}
	return nil, false, false
}

// Job finds a job by ID (running or retained-finished).
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// InFlight returns the live job for a digest, if any.
func (s *Service) InFlight(digest string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.inflight[digest]
	return j, ok
}

// Wait blocks for a job up to d (or ctx cancellation). timedOut reports the
// async flip: the job keeps running and the caller should poll it.
func (s *Service) Wait(ctx context.Context, j *Job, d time.Duration) (val []byte, err error, timedOut bool) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-j.done:
		val, err = j.Result()
		return val, err, false
	case <-t.C:
		return nil, nil, true
	case <-ctx.Done():
		return nil, ctx.Err(), true
	}
}

// worker runs queued searches until the queue closes at shutdown.
func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.run(j)
	}
}

// DeadlineFor resolves a request's effective search budget: its own
// deadline_ms when set, else the server's default (0 = unbounded).
func (s *Service) DeadlineFor(req Request) time.Duration {
	if req.DeadlineMs > 0 {
		return time.Duration(req.DeadlineMs) * time.Millisecond
	}
	return s.cfg.DefaultDeadline
}

// EstimatedWait predicts how long a newly queued job sits before a worker
// picks it up: the queued backlog paced by the p50 search latency across the
// pool. Zero when the latency window is empty — no evidence, no rejection.
func (s *Service) EstimatedWait() time.Duration {
	p50, _ := s.metrics.percentiles()
	if p50 == 0 {
		return 0
	}
	return time.Duration(len(s.queue)) * p50 / time.Duration(s.cfg.Workers)
}

// CheckDeadline is the admission control for deadline-bounded requests: when
// the queue's estimated wait already exceeds the request's whole budget, the
// search would start degraded-or-worse, so the submission is rejected with
// ErrDeadlineInfeasible (503 + Retry-After at the HTTP layer) instead of
// burning a worker on it. Unbounded requests always pass.
func (s *Service) CheckDeadline(req Request) (wait time.Duration, err error) {
	d := s.DeadlineFor(req)
	if d <= 0 {
		return 0, nil
	}
	wait = s.EstimatedWait()
	if wait > d {
		s.metrics.deadlineInfeasible.Add(1)
		return wait, fmt.Errorf("%w (estimated wait %v > budget %v)", ErrDeadlineInfeasible, wait, d)
	}
	return wait, nil
}

func (s *Service) run(j *Job) {
	j.setState(JobRunning)
	s.metrics.inFlight.Add(1)
	start := time.Now()

	// Arm the anytime machinery: the request's (or server-default) deadline
	// and the watchdog both trip the same token the search polls. Stopping
	// the timers on exit keeps finished jobs from firing stale cancels.
	if d := s.DeadlineFor(j.req); d > 0 {
		stop := j.token.CancelAfter(d, cancel.ErrDeadline)
		defer stop()
	}
	if s.cfg.Watchdog > 0 {
		stop := j.token.CancelAfter(s.cfg.Watchdog, watchdogReason)
		defer stop()
	}

	search := s.cfg.Compute
	if s.cfg.ComputeCancel != nil {
		search = func(r Request) ([]byte, error) { return s.cfg.ComputeCancel(r, j.token) }
	}
	if search == nil {
		// The submission path already normalized the request and computed
		// its digest; skip both on the worker. The search shares the
		// model's pricing bucket across requests and reports its effort
		// into /metrics.
		search = func(r Request) ([]byte, error) {
			var st recursive.SearchStats
			val, err := compute(r, j.digest, s.cfg.Parallelism, s.pricing.For(r.Model), &st, j.token)
			s.metrics.observeOrderingSearch(st)
			return val, err
		}
	}
	val, err := search(j.req)
	elapsed := time.Since(start)
	s.metrics.observeSearch(elapsed)
	s.metrics.inFlight.Add(-1)

	// A degraded plan is a real, valid answer — but not the proven optimum,
	// so it is served to its callers and never written into the cache or the
	// store: the next identical request re-runs the search for a chance at
	// the full result instead of pinning the incumbent forever. The bytes
	// are verified once, here; the header is all the rest of the path reads.
	degraded := false
	if err == nil {
		if hdr, perr := plan.Verify(val, ""); perr == nil {
			degraded = hdr.Degraded
			if !degraded {
				s.persist(j, val, hdr)
			}
		}
	}
	if err == nil && degraded {
		s.metrics.searchDegraded.Add(1)
	}
	if err != nil && cancel.IsCancellation(err) {
		s.metrics.searchCancelled.Add(1)
	}

	if lg := s.cfg.Logger; lg != nil {
		if err != nil {
			lg.Warn("search failed", "job", j.id, "digest", j.digest,
				"dur_ms", float64(elapsed.Microseconds())/1e3, "err", err.Error())
		} else {
			lg.Info("search done", "job", j.id, "digest", j.digest,
				"dur_ms", float64(elapsed.Microseconds())/1e3, "plan_bytes", len(val), "degraded", degraded)
		}
	}

	s.mu.Lock()
	j.val, j.err, j.degraded = val, err, degraded
	if err == nil {
		if !degraded {
			s.cache.Put(j.digest, val)
		}
		s.metrics.jobsDone.Add(1)
	} else {
		s.metrics.jobsFail.Add(1)
	}
	if j.tenant != "" {
		if s.tenants[j.tenant]--; s.tenants[j.tenant] <= 0 {
			delete(s.tenants, j.tenant)
		}
	}
	delete(s.inflight, j.digest)
	s.retainFinishedLocked(j)
	s.mu.Unlock()

	if err == nil {
		j.setState(JobDone)
	} else {
		j.setState(JobFailed)
	}
	close(j.done)
}

// persist writes a finished, verified plan through to the persistent store
// (when configured). The store is a best-effort accelerator: run's
// verification guards against a Compute seam returning non-plan bytes, and a
// store write failure costs the fleet a future recompute, not this request.
func (s *Service) persist(j *Job, val []byte, hdr plan.Header) {
	if s.cfg.Store == nil {
		return
	}
	md, err := modelDigest(j.req.Model)
	if err != nil {
		return
	}
	_ = s.cfg.Store.Put(store.Meta{ //tofu:allow-errdrop the store counts its own put failures; a failed write costs a future recompute, not this request
		Digest:      j.digest,
		ModelDigest: md,
		Workers:     hdr.Workers,
		Steps:       storeStepsFromHeader(hdr),
	}, val)
}

// storeStepsFromHeader extracts a verified plan's realized ordering in the
// store's header form.
func storeStepsFromHeader(h plan.Header) []store.Step {
	out := make([]store.Step, len(h.Steps))
	for i, st := range h.Steps {
		out[i] = store.Step{Factor: st.Ways, Level: st.Level}
	}
	return out
}

func (s *Service) retainFinishedLocked(j *Job) {
	s.doneIDs = append(s.doneIDs, j.id)
	s.doneBytes += int64(len(j.val))
	// The newest job always stays: its caller may not have collected it yet.
	for len(s.doneIDs) > maxRetainedJobs || (s.doneBytes > maxRetainedBytes && len(s.doneIDs) > 1) {
		if old := s.jobs[s.doneIDs[0]]; old != nil {
			s.doneBytes -= int64(len(old.val))
		}
		delete(s.jobs, s.doneIDs[0])
		s.doneIDs = s.doneIDs[1:]
	}
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

// Metrics snapshots the counters and gauges.
func (s *Service) Metrics() Snapshot {
	p50, p99 := s.metrics.percentiles()
	ph, pm, mh, mm := s.pricing.PricingStats()
	th, tm, tb := s.pricing.TableStats()
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
		PricingModels:     s.pricing.Models(),
		PricingModelCap:   s.cfg.PricingCacheSize,
		PricingHits:       ph,
		PricingMisses:     pm,
		PricingModelHits:  mh,
		PricingModelMiss:  mm,
		PricingTableHits:  th,
		PricingTableMiss:  tm,
		PricingTableBytes: tb,
		SearchOrderings:   s.metrics.searchOrderings.Load(),
		SearchSteps:       s.metrics.searchSteps.Load(),
		SearchPruned:      s.metrics.searchPruned.Load(),
		SearchDPSteps:     s.metrics.searchDPSteps.Load(),
		SearchDPStepsFlat: s.metrics.searchDPStepsFlat.Load(),
		SearchDegraded:    s.metrics.searchDegraded.Load(),
		SearchCancelled:   s.metrics.searchCancelled.Load(),
		DeadlineRejected:  s.metrics.deadlineInfeasible.Load(),
		SearchP50Ms:       p50.Seconds() * 1e3,
		SearchP99Ms:       p99.Seconds() * 1e3,
		UptimeSec:         time.Since(s.started).Seconds(),
	}
}
