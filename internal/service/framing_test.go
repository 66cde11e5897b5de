package service_test

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"tofu/internal/cancel"
	"tofu/internal/service"
	"tofu/internal/store"
)

// servedPlan is one plan response, read whole.
type servedPlan struct {
	resp *http.Response
	body []byte
	err  error
}

// send makes one request and reads the whole response; it may run on any
// goroutine.
func send(method, url, body string) servedPlan {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return servedPlan{err: err}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return servedPlan{err: err}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return servedPlan{resp, raw, err}
}

// checkFramed asserts a 200 plan response from source declared its length:
// a Content-Length equal to the body and no chunked transfer encoding.
func checkFramed(t *testing.T, path string, p servedPlan, source string) {
	t.Helper()
	if p.err != nil {
		t.Fatalf("%s: %v", path, p.err)
	}
	if p.resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, p.resp.StatusCode, p.body)
	}
	if got := p.resp.Header.Get("Tofu-Source"); got != source {
		t.Errorf("%s: Tofu-Source %q, want %q", path, got, source)
	}
	if cl := p.resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(p.body)) || p.resp.ContentLength != int64(len(p.body)) {
		t.Errorf("%s: Content-Length %q (parsed %d), body %d bytes", path, cl, p.resp.ContentLength, len(p.body))
	}
	if te := p.resp.TransferEncoding; te != nil {
		t.Errorf("%s: Transfer-Encoding %v on a plan response", path, te)
	}
}

// waitFor polls cond for up to 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPlanResponsesFramed: every path that serves a plan — a fresh search,
// a request coalesced onto it, an LRU hit, a plan fetched by digest, a store
// hit and a degraded incumbent (sync and recovered) — sends it with a
// Content-Length equal to the body and without chunked encoding.
func TestPlanResponsesFramed(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	svc, srv := startServer(t, service.Config{
		Workers: 1, SyncWait: 30 * time.Second, CacheSize: 1, Store: st,
		ComputeCancel: func(r service.Request, _ *cancel.Token) ([]byte, error) {
			<-release
			return service.ComputePlan(r, 1)
		},
	})
	const reqA = `{"model":{"family":"mlp","depth":4,"width":256,"batch":64}}`
	const reqB = `{"model":{"family":"mlp","depth":2,"width":256,"batch":64}}`
	post := srv.URL + "/v1/partition"

	// A search, and an identical request coalesced onto it.
	first, joined := make(chan servedPlan, 1), make(chan servedPlan, 1)
	go func() { first <- send(http.MethodPost, post, reqA) }()
	waitFor(t, "the search to be submitted", func() bool { return svc.Metrics().Misses == 1 })
	go func() { joined <- send(http.MethodPost, post, reqA) }()
	waitFor(t, "the second request to coalesce", func() bool { return svc.Metrics().Coalesced == 1 })
	close(release)
	searched := <-first
	checkFramed(t, "search", searched, "search")
	checkFramed(t, "coalesced", <-joined, "coalesced")

	digest := searched.resp.Header.Get("Tofu-Digest")
	checkFramed(t, "LRU hit", send(http.MethodPost, post, reqA), "cache")
	checkFramed(t, "GET by digest", send(http.MethodGet, srv.URL+"/v1/plans/"+digest, ""), "cache")

	// A second plan evicts the first from the one-entry LRU; the first is
	// then served from the store.
	checkFramed(t, "second search", send(http.MethodPost, post, reqB), "search")
	checkFramed(t, "store hit", send(http.MethodPost, post, reqA), "cache")
	if m := svc.Metrics(); m.StoreServed != 1 || m.JobsDone != 2 {
		t.Fatalf("store_served %d, jobs_done %d: want one store hit after two searches", m.StoreServed, m.JobsDone)
	}

	// A degraded incumbent, served on the sync path and recovered by digest.
	val := degradedExport(t)
	_, dsrv := startServer(t, service.Config{
		SyncWait: 30 * time.Second,
		ComputeCancel: func(service.Request, *cancel.Token) ([]byte, error) {
			return val, nil
		},
	})
	degraded := send(http.MethodPost, dsrv.URL+"/v1/partition", reqA)
	checkFramed(t, "degraded", degraded, "search")
	recovered := send(http.MethodGet, dsrv.URL+"/v1/plans/"+degraded.resp.Header.Get("Tofu-Digest"), "")
	checkFramed(t, "degraded by digest", recovered, "cache")
	for _, p := range []servedPlan{degraded, recovered} {
		if p.resp.Header.Get("Tofu-Degraded") != "true" {
			t.Error("degraded plan served without the Tofu-Degraded header")
		}
	}
}
