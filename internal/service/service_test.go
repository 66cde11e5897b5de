package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tofu/internal/models"
	"tofu/internal/topo"
)

func testDigest(i int) string {
	return fmt.Sprintf("sha256:%064x", i)
}

func TestCacheLRUEvictionOrder(t *testing.T) {
	c := NewCache(3)
	for i := 1; i <= 3; i++ {
		c.Put(testDigest(i), []byte{byte(i)})
	}
	// Touch 1 so 2 becomes the LRU victim.
	if _, ok := c.Get(testDigest(1)); !ok {
		t.Fatal("expected hit for 1")
	}
	c.Put(testDigest(4), []byte{4})
	if _, ok := c.Get(testDigest(2)); ok {
		t.Fatal("2 should have been evicted (LRU)")
	}
	for _, want := range []int{1, 3, 4} {
		if _, ok := c.Get(testDigest(want)); !ok {
			t.Fatalf("%d should still be resident", want)
		}
	}
	// Keys reports MRU -> LRU: the Gets above promoted 1, 3, 4 in order.
	got := c.Keys()
	want := []string{testDigest(4), testDigest(3), testDigest(1)}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("eviction order: got %v want %v", got, want)
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
}

func TestCacheUpdateRefreshes(t *testing.T) {
	c := NewCache(2)
	c.Put(testDigest(1), []byte("a"))
	c.Put(testDigest(2), []byte("b"))
	c.Put(testDigest(1), []byte("a2")) // refresh, not insert
	c.Put(testDigest(3), []byte("c"))  // evicts 2, not 1
	if v, ok := c.Get(testDigest(1)); !ok || string(v) != "a2" {
		t.Fatalf("1 = %q,%v; want refreshed value", v, ok)
	}
	if _, ok := c.Get(testDigest(2)); ok {
		t.Fatal("2 should have been evicted")
	}
}

// submitAndWait is the POST handler's core path without HTTP.
func submitAndWait(t *testing.T, s *Service, req Request, digest string, wait time.Duration) ([]byte, error) {
	t.Helper()
	if val, ok := s.Lookup(digest); ok {
		return val, nil
	}
	j, _, err := s.Submit(req, digest)
	if err != nil {
		return nil, err
	}
	val, jerr, timedOut := s.Wait(context.Background(), j, wait)
	if timedOut {
		return nil, fmt.Errorf("timed out")
	}
	return val, jerr
}

// TestWaitFinishedJobNeverFlips: Wait on a finished job returns its result
// however short the budget. A select between the closed done channel and an
// expired timer would flip some calls to the async 202 — and the synthetic
// cached job of Submit's re-check is not in the job index, so its caller
// could not even poll it.
func TestWaitFinishedJobNeverFlips(t *testing.T) {
	s := New(Config{Compute: func(Request) ([]byte, error) { return []byte("plan-bytes"), nil }})
	defer s.Shutdown(context.Background())
	j, _, err := s.Submit(Request{Model: models.Config{Family: "mlp", Depth: 4, Width: 256, Batch: 64}}, testDigest(9))
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	for i := 0; i < 1000; i++ {
		if val, err, timedOut := s.Wait(context.Background(), j, time.Nanosecond); timedOut || err != nil || string(val) != "plan-bytes" {
			t.Fatalf("call %d: Wait on a finished job = %q, %v, timedOut %v", i, val, err, timedOut)
		}
	}
}

// TestSingleflightCoalesces is the acceptance criterion: 64 concurrent
// identical requests trigger exactly one search, and every waiter gets the
// same bytes.
func TestSingleflightCoalesces(t *testing.T) {
	var searches atomic.Int64
	gate := make(chan struct{})
	s := New(Config{
		CacheSize: 8, Workers: 4, QueueDepth: 16, SyncWait: 30 * time.Second,
		Compute: func(r Request) ([]byte, error) {
			searches.Add(1)
			<-gate // hold the search until every request has arrived
			return []byte("plan-bytes"), nil
		},
	})
	defer s.Shutdown(context.Background())

	req := Request{Model: models.Config{Family: "mlp", Depth: 4, Width: 256, Batch: 64}}
	digest := testDigest(7)
	const n = 64
	var wg sync.WaitGroup
	var submitted sync.WaitGroup
	results := make([][]byte, n)
	errs := make([]error, n)
	wg.Add(n)
	submitted.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			if val, ok := s.Lookup(digest); ok {
				submitted.Done()
				results[i] = val
				return
			}
			j, _, err := s.Submit(req, digest)
			submitted.Done()
			if err != nil {
				errs[i] = err
				return
			}
			val, jerr, timedOut := s.Wait(context.Background(), j, 30*time.Second)
			if timedOut {
				errs[i] = fmt.Errorf("timed out")
				return
			}
			results[i], errs[i] = val, jerr
		}(i)
	}
	submitted.Wait()
	close(gate)
	wg.Wait()

	if got := searches.Load(); got != 1 {
		t.Fatalf("searches = %d, want exactly 1", got)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if string(results[i]) != "plan-bytes" {
			t.Fatalf("request %d: got %q", i, results[i])
		}
	}
	m := s.Metrics()
	if m.Coalesced != n-1 {
		t.Fatalf("coalesced = %d, want %d", m.Coalesced, n-1)
	}
	if m.JobsDone != 1 {
		t.Fatalf("jobs done = %d, want 1", m.JobsDone)
	}
	// A latecomer is a pure cache hit.
	if val, err := submitAndWait(t, s, req, digest, time.Second); err != nil || string(val) != "plan-bytes" {
		t.Fatalf("warm request: %q, %v", val, err)
	}
	if m := s.Metrics(); m.Hits < 1 {
		t.Fatalf("hits = %d, want >= 1", m.Hits)
	}
}

func TestQueueBackpressure(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	s := New(Config{
		CacheSize: 8, Workers: 1, QueueDepth: 1, SyncWait: time.Second,
		Compute: func(r Request) ([]byte, error) {
			started <- r.Model.Family
			<-release
			return []byte("x"), nil
		},
	})
	defer func() { close(release); s.Shutdown(context.Background()) }()

	req := func(i int) Request {
		return Request{Model: models.Config{Family: "mlp", Depth: i, Width: 256, Batch: 64}}
	}
	// A occupies the single worker...
	if _, _, err := s.Submit(req(1), testDigest(1)); err != nil {
		t.Fatal(err)
	}
	<-started // A is running, the queue slot is free again
	// ...B fills the one queue slot...
	if _, _, err := s.Submit(req(2), testDigest(2)); err != nil {
		t.Fatal(err)
	}
	// ...so C bounces with backpressure.
	_, _, err := s.Submit(req(3), testDigest(3))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	m := s.Metrics()
	if m.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", m.Rejected)
	}
	// A coalescing duplicate of B is NOT backpressure — it joins the
	// queued job instead of occupying a slot.
	if _, kind, err := s.Submit(req(2), testDigest(2)); err != nil || kind != SubmitJoined {
		t.Fatalf("duplicate of queued job: kind=%v err=%v, want SubmitJoined,nil", kind, err)
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	var done atomic.Int64
	s := New(Config{
		CacheSize: 8, Workers: 1, QueueDepth: 8, SyncWait: time.Second,
		Compute: func(r Request) ([]byte, error) {
			time.Sleep(10 * time.Millisecond)
			done.Add(1)
			return []byte("x"), nil
		},
	})
	var jobs []*Job
	for i := 1; i <= 3; i++ {
		req := Request{Model: models.Config{Family: "mlp", Depth: i, Width: 256, Batch: 64}}
		j, _, err := s.Submit(req, testDigest(i))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := done.Load(); got != 3 {
		t.Fatalf("drained %d searches, want all 3", got)
	}
	for i, j := range jobs {
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %d not finished after drain", i)
		}
		if st := j.Status(); st.State != JobDone {
			t.Fatalf("job %d state = %s, want done", i, st.State)
		}
	}
	if s.cache.Len() != 3 {
		t.Fatalf("cache has %d plans after drain, want 3", s.cache.Len())
	}
	if !s.Draining() {
		t.Fatal("Draining() = false after Shutdown")
	}
	// New work is rejected while (and after) draining.
	_, _, err := s.Submit(Request{Model: models.Config{Family: "mlp", Depth: 9, Width: 256, Batch: 64}}, testDigest(9))
	if !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown submit: %v, want ErrShuttingDown", err)
	}
	// Shutdown is idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

func TestFailedSearchReported(t *testing.T) {
	boom := errors.New("boom")
	s := New(Config{
		CacheSize: 8, Workers: 1, QueueDepth: 4, SyncWait: time.Second,
		Compute: func(r Request) ([]byte, error) { return nil, boom },
	})
	defer s.Shutdown(context.Background())
	req := Request{Model: models.Config{Family: "mlp", Depth: 4, Width: 256, Batch: 64}}
	_, err := submitAndWait(t, s, req, testDigest(1), time.Second)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the search error", err)
	}
	if _, ok := s.Lookup(testDigest(1)); ok {
		t.Fatal("failed search must not populate the cache")
	}
	m := s.Metrics()
	if m.JobsFailed != 1 {
		t.Fatalf("jobs failed = %d, want 1", m.JobsFailed)
	}
	// The digest is retryable: the failed job left the inflight map.
	if _, kind, err := s.Submit(req, testDigest(1)); err != nil || kind != SubmitNew {
		t.Fatalf("retry after failure: kind=%v err=%v, want fresh job", kind, err)
	}
}

func TestAsyncFlipAndJobStatus(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{
		CacheSize: 8, Workers: 1, QueueDepth: 4, SyncWait: time.Second,
		Compute: func(r Request) ([]byte, error) {
			<-release
			return []byte("slow-plan"), nil
		},
	})
	defer s.Shutdown(context.Background())
	req := Request{Model: models.Config{Family: "mlp", Depth: 4, Width: 256, Batch: 64}}
	j, _, err := s.Submit(req, testDigest(1))
	if err != nil {
		t.Fatal(err)
	}
	// The sync wait expires -> async flip.
	_, _, timedOut := s.Wait(context.Background(), j, 5*time.Millisecond)
	if !timedOut {
		t.Fatal("expected sync-wait timeout")
	}
	got, ok := s.Job(j.ID())
	if !ok || got != j {
		t.Fatalf("job lookup by ID failed")
	}
	if st := j.Status(); st.State != JobQueued && st.State != JobRunning {
		t.Fatalf("state = %s, want queued|running", st.State)
	}
	if _, ok := s.InFlight(testDigest(1)); !ok {
		t.Fatal("digest should be in flight")
	}
	close(release)
	<-j.Done()
	if st := j.Status(); st.State != JobDone || st.PlanURL == "" {
		t.Fatalf("status after done = %+v", st)
	}
	if val, ok := s.Lookup(testDigest(1)); !ok || string(val) != "slow-plan" {
		t.Fatalf("plan not cached after async completion")
	}
}

// TestRecoverPlanAfterEviction: an async client's finished plan must
// survive LRU churn while its job is still indexed.
func TestRecoverPlanAfterEviction(t *testing.T) {
	s := New(Config{
		CacheSize: 1, Workers: 1, QueueDepth: 4, SyncWait: time.Second,
		Compute: func(r Request) ([]byte, error) {
			return []byte("plan-" + r.Model.Family), nil
		},
	})
	defer s.Shutdown(context.Background())
	reqA := Request{Model: models.Config{Family: "mlp", Depth: 1, Width: 256, Batch: 64}}
	reqB := Request{Model: models.Config{Family: "rnn", Depth: 1, Width: 256, Batch: 64}}
	if _, err := submitAndWait(t, s, reqA, testDigest(1), time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := submitAndWait(t, s, reqB, testDigest(2), time.Second); err != nil {
		t.Fatal(err)
	}
	// B evicted A from the single-slot cache...
	if _, ok := s.Lookup(testDigest(1)); ok {
		t.Fatal("A should have been evicted")
	}
	// ...but the retained job still recovers it (and re-caches it).
	val, degraded, ok := s.RecoverPlan(testDigest(1))
	if !ok || degraded || string(val) != "plan-mlp" {
		t.Fatalf("recover = %q,%v,%v", val, degraded, ok)
	}
	if _, ok := s.Lookup(testDigest(1)); !ok {
		t.Fatal("recovered plan should be back in the cache")
	}
	if _, _, ok := s.RecoverPlan(testDigest(5)); ok {
		t.Fatal("unknown digest recovered")
	}
}

func TestRequestNormalizeAndDigest(t *testing.T) {
	base := Request{Model: models.Config{Family: "rnn", Depth: 2, Width: 1024, Batch: 64}}
	d1, err := base.Digest()
	if err != nil {
		t.Fatal(err)
	}
	// Omitted machine, the flat default profile by name, and the same flat
	// machine inlined all digest identically: flat machines cannot change
	// the plan.
	byName := base
	byName.HW = "p2.8xlarge"
	d2, err := byName.Digest()
	if err != nil {
		t.Fatal(err)
	}
	flat := topo.DefaultTopology()
	flat.Name = "my-renamed-machine"
	inline := base
	inline.Topology = &flat
	d3, err := inline.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 || d1 != d3 {
		t.Fatalf("flat-machine digests differ:\n%s\n%s\n%s", d1, d2, d3)
	}
	// Explicit default workers digests the same as omitted.
	withWorkers := base
	withWorkers.Workers = 8
	if d, _ := withWorkers.Digest(); d != d1 {
		t.Fatalf("workers=8 digest differs from default")
	}
	// Anything plan-relevant changes the digest.
	for name, mut := range map[string]Request{
		"batch":      {Model: models.Config{Family: "rnn", Depth: 2, Width: 1024, Batch: 128}},
		"workers":    {Model: base.Model, Workers: 4},
		"hier-hw":    {Model: base.Model, HW: "dgx1"},
		"max-states": {Model: base.Model, MaxStates: 100},
		"factors":    {Model: base.Model, Factors: []int64{8}},
	} {
		d, err := mut.Digest()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d == d1 {
			t.Fatalf("%s: digest should differ", name)
		}
	}
	// Digest format is the plan package's.
	if len(d1) != len("sha256:")+64 {
		t.Fatalf("digest %q has unexpected shape", d1)
	}
}

func TestParseRequestStrict(t *testing.T) {
	for name, body := range map[string]string{
		"unknown-field":    `{"model":{"family":"mlp","depth":4,"width":256,"batch":64},"bogus":1}`,
		"unknown-model":    `{"model":{"family":"mlp","depth":4,"width":256,"batch":64,"oops":2}}`,
		"bad-family":       `{"model":{"family":"gpt","depth":4,"width":256,"batch":64}}`,
		"zero-batch":       `{"model":{"family":"mlp","depth":4,"width":256}}`,
		"hw-and-topology":  `{"model":{"family":"mlp","depth":4,"width":256,"batch":64},"hw":"dgx1","topology":{"name":"x","hw":{},"levels":[]}}`,
		"unknown-profile":  `{"model":{"family":"mlp","depth":4,"width":256,"batch":64},"hw":"quantum-9000"}`,
		"bad-factors":      `{"model":{"family":"mlp","depth":4,"width":256,"batch":64},"workers":8,"factors":[3,3]}`,
		"workers-mismatch": `{"model":{"family":"mlp","depth":4,"width":256,"batch":64},"hw":"dgx1","workers":4}`,
		"trailing-data":    `{"model":{"family":"mlp","depth":4,"width":256,"batch":64}} {"x":1}`,
		"naive-flat":       `{"model":{"family":"mlp","depth":4,"width":256,"batch":64},"topology_naive":true}`,
		"factors-wrap":     `{"model":{"family":"mlp","depth":4,"width":256,"batch":64},"workers":8,"factors":[2305843009213693953,8]}`,
		"deadline-wraps":   `{"model":{"family":"mlp","depth":4,"width":256,"batch":64},"deadline_ms":9223372036855}`,
		"deadline-neg":     `{"model":{"family":"mlp","depth":4,"width":256,"batch":64},"deadline_ms":-1}`,
	} {
		if _, err := ParseRequest([]byte(body)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	r, err := ParseRequest([]byte(`{"model":{"family":"mlp","depth":4,"width":256,"batch":64},"hw":"dgx1"}`))
	if err != nil {
		t.Fatal(err)
	}
	if r.Workers != 8 || r.Topology == nil || !r.Topology.Hierarchical() || r.HW != "" {
		t.Fatalf("normalized request: %+v", r)
	}
}
