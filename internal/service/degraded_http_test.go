package service_test

import (
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
	svc, cl, srv := startServer(t, service.Config{
		SyncWait: 30 * time.Second,
		ComputeCancel: func(r service.Request, tok *cancel.Token) ([]byte, error) {
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

	// The incumbent is recoverable by digest (the async client's path),
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
	snap, err := cl.Metrics(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if snap.SearchDegraded != 1 {
		t.Fatalf("SearchDegraded = %d, want 1", snap.SearchDegraded)
	}
}

// TestDegradedFailPolicy: under -degraded-policy fail the incumbent is
// withheld — 503 with Retry-After so the client re-submits when the
// queue (and so the deadline math) looks better.
func TestDegradedFailPolicy(t *testing.T) {
	val := degradedExport(t)
	_, _, srv := startServer(t, service.Config{
		SyncWait:       30 * time.Second,
		DegradedPolicy: service.DegradedFail,
		ComputeCancel: func(r service.Request, tok *cancel.Token) ([]byte, error) {
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
	_, _, srv := startServer(t, service.Config{
		SyncWait: 30 * time.Second,
		ComputeCancel: func(r service.Request, tok *cancel.Token) ([]byte, error) {
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
	svc, _, srv := startServer(t, service.Config{
		Workers: 1, QueueDepth: 8, SyncWait: 30 * time.Second,
		ComputeCancel: func(r service.Request, tok *cancel.Token) ([]byte, error) {
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

// TestJobStatusCarriesDegraded: the async API surfaces the marker so a
// polling client can tell an incumbent from an optimum.
func TestJobStatusCarriesDegraded(t *testing.T) {
	val := degradedExport(t)
	_, cl, srv := startServer(t, service.Config{
		SyncWait: time.Nanosecond, // force the async flip
		ComputeCancel: func(r service.Request, tok *cancel.Token) ([]byte, error) {
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
		st, err := cl.Job(t.Context(), acc.Job)
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
