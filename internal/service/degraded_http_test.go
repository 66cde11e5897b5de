package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tofu/internal/cancel"
	"tofu/internal/plan"
	"tofu/internal/service"
)

// degradedExport is a minimal valid degraded plan serialization.
func degradedExport(t *testing.T) []byte {
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

func postPartition(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/partition", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

var degradedBody = `{"model":{"family":"mlp","depth":4,"width":256,"batch":64}}`

// TestDegradedServePolicy: under the default policy a deadline-stopped
// incumbent is served as a 200 with the Tofu-Degraded marker header — on
// the sync path and again when the plan is recovered by digest — and the
// metrics count it.
func TestDegradedServePolicy(t *testing.T) {
	val := degradedExport(t)
	svc, srv := startServer(t, service.Config{
		SyncWait: 30 * time.Second,
		Compute: func(r service.Request) ([]byte, error) {
			return val, nil
		},
	})

	resp := postPartition(t, srv.URL, degradedBody)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Tofu-Degraded") != "true" {
		t.Fatal("served degraded plan without the Tofu-Degraded header")
	}
	if string(body) != string(val) {
		t.Fatalf("served %q", body)
	}

	// The incumbent is recoverable by digest (an async caller's path),
	// still marked, and still not planted in the cache.
	digest := resp.Header.Get("Tofu-Digest")
	gresp, err := http.Get(srv.URL + "/v1/plans/" + digest)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, gresp.Body) //tofu:allow-errdrop test drain
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusOK || gresp.Header.Get("Tofu-Degraded") != "true" {
		t.Fatalf("recovered plan: status %d, degraded header %q",
			gresp.StatusCode, gresp.Header.Get("Tofu-Degraded"))
	}
	if _, ok := svc.Lookup(digest); ok {
		t.Fatal("degraded plan entered the cache")
	}
	if snap := getMetrics(t, srv.URL); snap.SearchDegraded != 1 {
		t.Fatalf("SearchDegraded = %d, want 1", snap.SearchDegraded)
	}
}

// TestDegradedFailPolicy: under -degraded-policy fail the incumbent is
// withheld — 503 with Retry-After so the client re-submits when the
// queue (and so the deadline math) looks better.
func TestDegradedFailPolicy(t *testing.T) {
	val := degradedExport(t)
	_, srv := startServer(t, service.Config{
		SyncWait:       30 * time.Second,
		DegradedPolicy: service.DegradedFail,
		Compute: func(r service.Request) ([]byte, error) {
			return val, nil
		},
	})
	resp := postPartition(t, srv.URL, degradedBody)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503; body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded-policy=fail 503 without Retry-After")
	}
}

// TestCancelledSearch503: a search cancelled before any incumbent existed
// is transient load, not a bad request — 503 + Retry-After, never 422.
func TestCancelledSearch503(t *testing.T) {
	_, srv := startServer(t, service.Config{
		SyncWait: 30 * time.Second,
		Compute: func(r service.Request) ([]byte, error) {
			return nil, cancel.Reason(cancel.ErrDeadline, "cancelled before any ordering completed")
		},
	})
	resp := postPartition(t, srv.URL, degradedBody)
	io.Copy(io.Discard, resp.Body) //tofu:allow-errdrop test drain
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("Retry-After %q, want 1", resp.Header.Get("Retry-After"))
	}
}

// TestDeadlineAdmission503 drives the admission control end to end: once
// the queue's backlog (priced by observed latency) provably exceeds a
// request's deadline_ms, the POST is refused 503 + Retry-After before a
// job is even created; the same request without a deadline is accepted.
func TestDeadlineAdmission503(t *testing.T) {
	var calls atomic.Int64
	gate := make(chan struct{})
	svc, srv := startServer(t, service.Config{
		Workers: 1, QueueDepth: 8, SyncWait: 30 * time.Second,
		Compute: func(r service.Request) ([]byte, error) {
			if calls.Add(1) > 1 {
				<-gate // every search after the first wedges until cleanup
			}
			time.Sleep(30 * time.Millisecond) // latency evidence for p50
			return degradedExportOptimal(t, 8), nil
		},
	})
	// Release the wedged searches and wait for the saturating requests
	// below before startServer's cleanup closes the server under them.
	var load sync.WaitGroup
	t.Cleanup(func() { close(gate); load.Wait() })

	reqBody := func(batch int) string {
		return fmt.Sprintf(`{"model":{"family":"mlp","depth":4,"width":256,"batch":%d}}`, batch)
	}
	// Seed latency evidence with one completed search.
	resp := postPartition(t, srv.URL, reqBody(2))
	io.Copy(io.Discard, resp.Body) //tofu:allow-errdrop test drain
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed request: status %d", resp.StatusCode)
	}
	// Saturate: one search wedged on the worker plus a queued backlog.
	for i := 0; i < 4; i++ {
		load.Add(1)
		go func(i int) {
			defer load.Done()
			r, err := http.Post(srv.URL+"/v1/partition", "application/json", strings.NewReader(reqBody(4+2*i)))
			if err != nil {
				t.Errorf("saturating request %d: %v", i, err)
				return
			}
			io.Copy(io.Discard, r.Body) //tofu:allow-errdrop test drain
			r.Body.Close()
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for svc.EstimatedWait() <= 50*time.Millisecond {
		if time.Now().After(deadline) {
			t.Fatal("backlog never built up")
		}
		time.Sleep(time.Millisecond)
	}

	resp = postPartition(t, srv.URL, `{"model":{"family":"mlp","depth":4,"width":256,"batch":64},"deadline_ms":1}`)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("deadline-bounded POST: status %d, body %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("admission 503 without Retry-After")
	}
	if !strings.Contains(string(body), "cannot meet") {
		t.Fatalf("admission error body: %s", body)
	}
}

// degradedExportOptimal is a minimal valid non-degraded plan.
func degradedExportOptimal(t *testing.T, workers int64) []byte {
	t.Helper()
	raw, err := json.Marshal(plan.Export{
		Workers: workers,
		Steps:   []plan.StepExport{{Ways: workers, Multiplier: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestCacheRecheckSkipsDegradedJob: when Submit's cache re-check finds the
// digest cached, the job it hands back carries the cached optimum. An older
// degraded job for the same digest is still retained and must not stand in
// for it — its caller would get the incumbent marked degraded, or a 503
// under -degraded-policy fail.
func TestCacheRecheckSkipsDegradedJob(t *testing.T) {
	degraded, optimal := degradedExport(t), degradedExportOptimal(t, 8)
	var calls atomic.Int64
	svc := service.New(service.Config{
		Compute: func(service.Request) ([]byte, error) {
			if calls.Add(1) == 1 {
				return degraded, nil
			}
			return optimal, nil
		},
	})
	defer svc.Shutdown(context.Background())
	req, err := service.Request{Model: smallModel}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	digest, err := req.Digest()
	if err != nil {
		t.Fatal(err)
	}
	submit := func() (*service.Job, service.SubmitKind) {
		t.Helper()
		j, kind, err := svc.Submit(req, digest)
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		return j, kind
	}

	if j, _ := submit(); !j.Degraded() {
		t.Fatal("first search: want the degraded incumbent")
	}
	if j, kind := submit(); kind != service.SubmitNew || j.Degraded() {
		t.Fatalf("second search: kind %v degraded %v, want a new optimal search", kind, j.Degraded())
	}
	cached, ok := svc.Lookup(digest)
	if !ok {
		t.Fatal("the optimal plan was not cached")
	}
	j, kind := submit()
	val, jerr := j.Result()
	if kind != service.SubmitCached || j.Degraded() || jerr != nil || !bytes.Equal(val, cached) {
		t.Fatalf("cache re-check: kind %v degraded %v err %v, bytes %q; want SubmitCached with the cached %q",
			kind, j.Degraded(), jerr, val, cached)
	}
}

// TestJobStatusCarriesDegraded: the async API surfaces the marker so a
// polling client can tell an incumbent from an optimum.
func TestJobStatusCarriesDegraded(t *testing.T) {
	val := degradedExport(t)
	_, srv := startServer(t, service.Config{
		SyncWait: time.Nanosecond, // force the async flip
		Compute: func(r service.Request) ([]byte, error) {
			time.Sleep(10 * time.Millisecond)
			return val, nil
		},
	})
	resp := postPartition(t, srv.URL, degradedBody)
	var acc service.Accepted
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := jobStatus(t.Context(), srv.URL, acc.Job)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == service.JobDone {
			if !st.Degraded {
				t.Fatal("done job status lost the degraded marker")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished (state %s)", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
