package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tofu"
	"tofu/internal/plan"
	"tofu/internal/service"
)

func startServer(t *testing.T, cfg service.Config) (*service.Service, *httptest.Server) {
	t.Helper()
	svc := service.New(cfg)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})
	return svc, srv
}

// roundTrip sends one request and returns the status and the whole body.
func roundTrip(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// partition is what any HTTP caller does: POST /v1/partition, and on a 202
// poll GET /v1/jobs/{id} until the job is done, then GET /v1/plans/{digest}.
// The served plan must carry the digest of the request it answers
// (plan.ReadJSONExpect), whichever path served it.
func partition(ctx context.Context, base string, r service.Request) (plan.Export, []byte, error) {
	nr, err := r.Normalize()
	if err != nil {
		return plan.Export{}, nil, err
	}
	digest, err := nr.Digest()
	if err != nil {
		return plan.Export{}, nil, err
	}
	body, err := json.Marshal(nr)
	if err != nil {
		return plan.Export{}, nil, err
	}
	code, raw, err := roundTrip(ctx, http.MethodPost, base+"/v1/partition", body)
	if err != nil {
		return plan.Export{}, nil, err
	}
	if code == http.StatusAccepted {
		var acc service.Accepted
		if err := json.Unmarshal(raw, &acc); err != nil {
			return plan.Export{}, nil, fmt.Errorf("parsing 202: %w", err)
		}
		for {
			st, err := jobStatus(ctx, base, acc.Job)
			if err != nil {
				return plan.Export{}, nil, err
			}
			if st.State == service.JobFailed {
				return plan.Export{}, nil, fmt.Errorf("search failed: %s", st.Error)
			}
			if st.State == service.JobDone {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if code, raw, err = roundTrip(ctx, http.MethodGet, base+"/v1/plans/"+digest, nil); err != nil {
			return plan.Export{}, nil, err
		}
	}
	if code != http.StatusOK {
		return plan.Export{}, nil, fmt.Errorf("HTTP %d: %s", code, raw)
	}
	ex, err := plan.ReadJSONExpect(bytes.NewReader(raw), digest)
	return ex, raw, err
}

// jobStatus is GET /v1/jobs/{id}.
func jobStatus(ctx context.Context, base, id string) (service.Status, error) {
	code, raw, err := roundTrip(ctx, http.MethodGet, base+"/v1/jobs/"+id, nil)
	if err != nil {
		return service.Status{}, err
	}
	if code != http.StatusOK {
		return service.Status{}, fmt.Errorf("job %s: HTTP %d: %s", id, code, raw)
	}
	var st service.Status
	err = json.Unmarshal(raw, &st)
	return st, err
}

// getMetrics decodes GET /metrics strictly: a key the Snapshot does not
// define fails the test.
func getMetrics(t *testing.T, base string) service.Snapshot {
	t.Helper()
	code, raw, err := roundTrip(t.Context(), http.MethodGet, base+"/metrics", nil)
	if err != nil || code != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d, %v", code, err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var snap service.Snapshot
	if err := dec.Decode(&snap); err != nil {
		t.Fatalf("GET /metrics does not decode as a Snapshot: %v", err)
	}
	return snap
}

var smallModel = tofu.ModelConfig{Family: "mlp", Depth: 4, Width: 256, Batch: 64}

// TestServedPlanByteIdentical is the acceptance criterion: a plan served by
// the daemon (cold, then from cache) is byte-identical to a fresh
// tofu.PartitionWithOptions run for the same request.
func TestServedPlanByteIdentical(t *testing.T) {
	_, srv := startServer(t, service.Config{SyncWait: 30 * time.Second})
	ctx := context.Background()
	req := service.Request{Model: smallModel}

	ex, cold, err := partition(ctx, srv.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	_, warm, err := partition(ctx, srv.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("cache-served plan differs from the search-served plan")
	}

	// The reference: a one-shot library run under the same request.
	m, err := tofu.BuildModel(smallModel)
	if err != nil {
		t.Fatal(err)
	}
	nr, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	opts := nr.PipelineOptions()
	sum, err := tofu.PartitionWithOptions(m.G, nr.Workers, opts)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := tofu.PlanDigest(smallModel, nr.Workers, opts)
	if err != nil {
		t.Fatal(err)
	}
	sum.Plan.Digest = digest
	var local bytes.Buffer
	if err := sum.Plan.WriteJSON(&local); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local.Bytes(), warm) {
		t.Fatalf("served plan is not byte-identical to the local run:\nlocal: %d bytes\nserved: %d bytes",
			local.Len(), len(warm))
	}
	if ex.Digest != digest {
		t.Fatalf("served digest %s, local %s", ex.Digest, digest)
	}
}

// TestConcurrentIdenticalRequestsOneSearch drives the 64-concurrent
// acceptance criterion through the real HTTP stack and the real search.
func TestConcurrentIdenticalRequestsOneSearch(t *testing.T) {
	svc, srv := startServer(t, service.Config{Workers: 2, SyncWait: 30 * time.Second})
	ctx := context.Background()
	req := service.Request{Model: smallModel}

	const n = 64
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	errs := make([]error, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			_, raw, err := partition(ctx, srv.URL, req)
			bodies[i], errs[i] = raw, err
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d served different bytes", i)
		}
	}
	m := svc.Metrics()
	if m.JobsDone != 1 {
		t.Fatalf("searches = %d, want exactly 1 (hits=%d coalesced=%d)", m.JobsDone, m.Hits, m.Coalesced)
	}
	if m.Hits+m.Coalesced != n-1 {
		t.Fatalf("hits %d + coalesced %d != %d", m.Hits, m.Coalesced, n-1)
	}
}

func TestHTTPStatusCodes(t *testing.T) {
	_, srv := startServer(t, service.Config{SyncWait: 30 * time.Second})
	ctx := context.Background()

	if code, body, err := roundTrip(ctx, http.MethodGet, srv.URL+"/healthz", nil); err != nil || code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d %s, %v", code, body, err)
	}

	// Malformed and invalid requests are 400s.
	for name, body := range map[string]string{
		"not-json":      `{`,
		"unknown-field": `{"model":{"family":"mlp","depth":4,"width":256,"batch":64},"bogus":true}`,
		"bad-family":    `{"model":{"family":"gpt","depth":4,"width":256,"batch":64}}`,
		"factors-wrap":  `{"model":{"family":"mlp","depth":4,"width":256,"batch":64},"workers":8,"factors":[2305843009213693953,8]}`,
		"deadline-wrap": `{"model":{"family":"mlp","depth":4,"width":256,"batch":64},"deadline_ms":9223372036855}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/partition", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	// Unknown plan -> 404; malformed digest -> 400; unknown job -> 404.
	for path, want := range map[string]int{
		"/v1/plans/sha256:" + strings.Repeat("0", 64): http.StatusNotFound,
		"/v1/plans/not-a-digest":                      http.StatusBadRequest,
		"/v1/jobs/j999999-zzzzzzzz":                   http.StatusNotFound,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}

	// A served plan is fetchable by digest, and /metrics reflects the run.
	req := service.Request{Model: smallModel}
	nr, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	digest, err := nr.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := partition(ctx, srv.URL, req); err != nil {
		t.Fatal(err)
	}
	code, raw, err := roundTrip(ctx, http.MethodGet, srv.URL+"/v1/plans/"+digest, nil)
	if err != nil || code != http.StatusOK {
		t.Fatalf("GET plan by digest: HTTP %d, %v", code, err)
	}
	if _, err := plan.ReadJSONExpect(bytes.NewReader(raw), digest); err != nil {
		t.Fatal(err)
	}
	if snap := getMetrics(t, srv.URL); snap.JobsDone != 1 || snap.CacheLen != 1 {
		t.Fatalf("metrics after one search: %+v", snap)
	}
}

// TestAsyncFlipOverHTTP forces the 202 path with a nanosecond sync budget;
// the caller polls the job and fetches the plan by digest.
func TestAsyncFlipOverHTTP(t *testing.T) {
	svc, srv := startServer(t, service.Config{SyncWait: time.Nanosecond})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	req := service.Request{Model: tofu.ModelConfig{Family: "mlp", Depth: 6, Width: 512, Batch: 64}}
	ex, _, err := partition(ctx, srv.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Workers != 8 {
		t.Fatalf("workers = %d, want 8", ex.Workers)
	}
	// The flip really happened: the job index knows the job, and the search
	// ran exactly once even though the caller took the poll path.
	if m := svc.Metrics(); m.JobsDone != 1 {
		t.Fatalf("jobs done = %d, want 1", m.JobsDone)
	}
}

// TestDrainingHealthz verifies the shutdown surface the load balancer sees.
func TestDrainingHealthz(t *testing.T) {
	svc, srv := startServer(t, service.Config{SyncWait: time.Second})
	if err := svc.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v1/partition", "application/json",
		strings.NewReader(`{"model":{"family":"mlp","depth":4,"width":256,"batch":64}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("partition while draining: %d, want 503", resp.StatusCode)
	}
}
