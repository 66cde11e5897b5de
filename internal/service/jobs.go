package service

import (
	"context"
	"sync"
	"time"

	"tofu/internal/cancel"
	"tofu/internal/plan"
	"tofu/internal/recursive"
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
// async flip: the job keeps running and the caller should poll it. A job
// that has already finished never flips, however short d is: select picks
// at random among ready cases, and a finished synthetic cache job is not in
// the job index, so its caller could not poll it.
func (s *Service) Wait(ctx context.Context, j *Job, d time.Duration) (val []byte, err error, timedOut bool) {
	select {
	case <-j.done:
		val, err = j.Result()
		return val, err, false
	default:
	}
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
	if search == nil {
		// The submission path already normalized the request and computed
		// its digest; skip both on the worker. The search reports its
		// effort into /metrics.
		search = func(r Request) ([]byte, error) {
			var st recursive.SearchStats
			val, err := compute(r, j.digest, s.cfg.Parallelism, &st, j.token)
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
