package service

import (
	"fmt"
	"time"

	"tofu/internal/cancel"
)

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
// Degraded jobs are skipped: the cache only ever holds a proven optimum, and
// an older incumbent for the same digest must not stand in for it.
func (s *Service) finishedJobFor(digest string) *Job {
	for _, id := range s.doneIDs {
		if j := s.jobs[id]; j != nil && j.digest == digest && j.err == nil && !j.degraded {
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
	p50 := s.metrics.latency().p50
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
