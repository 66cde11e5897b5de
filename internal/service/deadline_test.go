package service

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"tofu/internal/cancel"
	"tofu/internal/models"
	"tofu/internal/plan"
)

// degradedPlanJSON builds a minimal valid plan serialization carrying the
// Degraded marker — what the anytime search returns when its budget
// expires with an incumbent in hand.
func degradedPlanJSON(t *testing.T) []byte {
	t.Helper()
	raw, err := json.Marshal(plan.Export{
		Workers:  8,
		Steps:    []plan.StepExport{{Ways: 8, Multiplier: 1}},
		Degraded: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

var deadlineModel = models.Config{Family: "mlp", Depth: 4, Width: 256, Batch: 64}

// TestWatchdogCancelsWedgedSearch: a compute that never returns on its own
// must be unwedged by the watchdog's trip of the job token; the job fails
// with a cancellation error and the cancelled counter moves.
func TestWatchdogCancelsWedgedSearch(t *testing.T) {
	s := New(Config{
		Workers: 1, QueueDepth: 4, Watchdog: 20 * time.Millisecond,
		ComputeCancel: func(r Request, tok *cancel.Token) ([]byte, error) {
			for !tok.Cancelled() {
				time.Sleep(time.Millisecond)
			}
			return nil, tok.Err()
		},
	})
	defer s.Shutdown(context.Background())

	j, _, err := s.Submit(Request{Model: deadlineModel}, testDigest(20))
	if err != nil {
		t.Fatal(err)
	}
	_, jerr, timedOut := s.Wait(context.Background(), j, 5*time.Second)
	if timedOut {
		t.Fatal("watchdog never unwedged the search")
	}
	if !cancel.IsCancellation(jerr) {
		t.Fatalf("wedged job error = %v, want a cancellation", jerr)
	}
	if snap := s.Metrics(); snap.SearchCancelled != 1 || snap.JobsFailed != 1 {
		t.Errorf("metrics = %+v, want SearchCancelled=1 JobsFailed=1", snap)
	}
}

// TestDegradedPlanServedNotCached: a degraded incumbent is a real answer —
// the waiter gets the bytes and the job carries the marker — but it must
// stay out of the cache and the retained-plan recovery must not re-cache
// it, so the next identical request re-runs the search.
func TestDegradedPlanServedNotCached(t *testing.T) {
	computes := 0
	want := degradedPlanJSON(t)
	s := New(Config{
		Workers: 1, QueueDepth: 4,
		ComputeCancel: func(r Request, tok *cancel.Token) ([]byte, error) {
			computes++
			return want, nil
		},
	})
	defer s.Shutdown(context.Background())

	digest := testDigest(21)
	req := Request{Model: deadlineModel}
	for round := 1; round <= 2; round++ {
		j, kind, err := s.Submit(req, digest)
		if err != nil {
			t.Fatal(err)
		}
		if kind != SubmitNew {
			t.Fatalf("round %d: submit kind %v, want a fresh search", round, kind)
		}
		val, jerr, timedOut := s.Wait(context.Background(), j, 5*time.Second)
		if jerr != nil || timedOut {
			t.Fatalf("round %d: wait: %v (timedOut=%v)", round, jerr, timedOut)
		}
		if string(val) != string(want) {
			t.Fatalf("round %d: served %q", round, val)
		}
		if !j.Degraded() {
			t.Fatalf("round %d: job lost its degraded marker", round)
		}
		if _, ok := s.Lookup(digest); ok {
			t.Fatalf("round %d: degraded plan entered the cache", round)
		}
	}
	if computes != 2 {
		t.Fatalf("computes = %d, want 2 (degraded results are never reused)", computes)
	}
	// The async backstop still recovers the incumbent for a 202'd client,
	// marked degraded and without planting it in the cache.
	val, degraded, ok := s.RecoverPlan(digest)
	if !ok || !degraded || string(val) != string(want) {
		t.Fatalf("RecoverPlan = %q, degraded=%v, ok=%v", val, degraded, ok)
	}
	if _, cached := s.Lookup(digest); cached {
		t.Fatal("RecoverPlan re-cached a degraded plan")
	}
	if snap := s.Metrics(); snap.SearchDegraded != 2 {
		t.Errorf("SearchDegraded = %d, want 2", snap.SearchDegraded)
	}
}

// TestDeadlineForPrecedence: a request's own deadline_ms wins over the
// server default; without either the search is unbounded.
func TestDeadlineForPrecedence(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, DefaultDeadline: time.Second,
		Compute: func(Request) ([]byte, error) { return nil, nil }})
	defer s.Shutdown(context.Background())
	if d := s.DeadlineFor(Request{Model: deadlineModel}); d != time.Second {
		t.Errorf("default deadline: %v", d)
	}
	if d := s.DeadlineFor(Request{Model: deadlineModel, DeadlineMs: 250}); d != 250*time.Millisecond {
		t.Errorf("request deadline: %v", d)
	}
	s2 := New(Config{Workers: 1, QueueDepth: 1,
		Compute: func(Request) ([]byte, error) { return nil, nil }})
	defer s2.Shutdown(context.Background())
	if d := s2.DeadlineFor(Request{Model: deadlineModel}); d != 0 {
		t.Errorf("unbounded deadline: %v", d)
	}
}

// TestDeadlineMsBound: the largest deadline_ms a time.Duration holds is
// accepted and stays a positive budget; one more millisecond would wrap
// negative (read as unbounded) and is rejected by Normalize.
func TestDeadlineMsBound(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1,
		Compute: func(Request) ([]byte, error) { return nil, nil }})
	defer s.Shutdown(context.Background())
	r, err := Request{Model: deadlineModel, DeadlineMs: 9223372036854}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if d := s.DeadlineFor(r); d <= 0 || d/time.Millisecond != 9223372036854 {
		t.Errorf("largest deadline_ms: budget %v", d)
	}
	if _, err := (Request{Model: deadlineModel, DeadlineMs: 9223372036855}).Normalize(); err == nil {
		t.Error("deadline_ms 9223372036855 accepted; it wraps to a negative budget")
	}
}

// TestCheckDeadlineAdmission: once the queue's estimated wait provably
// exceeds a request's whole budget, the submission is refused up front
// with ErrDeadlineInfeasible; unbounded requests and empty-evidence
// queues always pass.
func TestCheckDeadlineAdmission(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{
		Workers: 1, QueueDepth: 8,
		Compute: func(Request) ([]byte, error) { <-gate; return []byte("x"), nil },
	})
	defer func() {
		close(gate)
		s.Shutdown(context.Background())
	}()

	tight := Request{Model: deadlineModel, DeadlineMs: 100}
	// No latency evidence and an empty queue: everything is admitted.
	if _, err := s.CheckDeadline(tight); err != nil {
		t.Fatalf("empty-evidence admission refused: %v", err)
	}

	// Evidence: searches take ~1s; then a backlog of queued jobs. The
	// worker holds one job (not counted), the rest sit in the queue.
	s.metrics.observeSearch(time.Second)
	for i := 0; i < 4; i++ {
		if _, _, err := s.Submit(Request{Model: deadlineModel}, testDigest(30+i)); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, func() bool { return s.EstimatedWait() >= 3*time.Second })

	wait, err := s.CheckDeadline(tight)
	if !errors.Is(err, ErrDeadlineInfeasible) {
		t.Fatalf("overloaded admission: err = %v, want ErrDeadlineInfeasible", err)
	}
	if wait < 3*time.Second {
		t.Errorf("estimated wait %v, want >= 3s (3 queued x 1s p50 / 1 worker)", wait)
	}
	// The same queue admits an unbounded request: no deadline, no refusal.
	if _, err := s.CheckDeadline(Request{Model: deadlineModel}); err != nil {
		t.Errorf("unbounded request refused: %v", err)
	}
	if snap := s.Metrics(); snap.DeadlineRejected != 1 {
		t.Errorf("DeadlineRejected = %d, want 1", snap.DeadlineRejected)
	}
}

// waitUntil polls cond to absorb the instant between Submit returning and
// the worker draining the queue's head.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShutdownCancelsWedgedJob: a bounded drain must not be stalled by a
// running search. A token-honoring search is cancelled and drains inside
// the grace; one that ignores its token is abandoned with the context's
// error — in bounded time either way.
func TestShutdownCancelsWedgedJob(t *testing.T) {
	t.Run("honors-token", func(t *testing.T) {
		started := make(chan struct{})
		s := New(Config{
			Workers: 1, QueueDepth: 2, ShutdownGrace: 5 * time.Second,
			ComputeCancel: func(r Request, tok *cancel.Token) ([]byte, error) {
				close(started)
				for !tok.Cancelled() {
					time.Sleep(time.Millisecond)
				}
				return nil, tok.Err()
			},
		})
		if _, _, err := s.Submit(Request{Model: deadlineModel}, testDigest(40)); err != nil {
			t.Fatal(err)
		}
		<-started
		ctx, cancelCtx := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancelCtx()
		t0 := time.Now()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown of a token-honoring search: %v", err)
		}
		if d := time.Since(t0); d > 3*time.Second {
			t.Fatalf("drain took %v, want well under the grace", d)
		}
	})
	t.Run("ignores-token", func(t *testing.T) {
		started := make(chan struct{})
		wedge := make(chan struct{})
		s := New(Config{
			Workers: 1, QueueDepth: 2, ShutdownGrace: 50 * time.Millisecond,
			ComputeCancel: func(r Request, tok *cancel.Token) ([]byte, error) {
				close(started)
				<-wedge // a seam bug: the token is never consulted
				return nil, nil
			},
		})
		defer close(wedge) // unwedge the leaked worker when the test ends
		if _, _, err := s.Submit(Request{Model: deadlineModel}, testDigest(41)); err != nil {
			t.Fatal(err)
		}
		<-started
		ctx, cancelCtx := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancelCtx()
		t0 := time.Now()
		err := s.Shutdown(ctx)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("shutdown of a token-ignoring search: err = %v, want DeadlineExceeded", err)
		}
		if d := time.Since(t0); d > 3*time.Second {
			t.Fatalf("abandoning took %v, want ctx timeout + grace", d)
		}
	})
}
