package service_test

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tofu/internal/obs"
	"tofu/internal/service"
)

// wantJSONKeys pins the JSON /metrics document: its keys, in order. A
// rename, reorder or removal must fail here first — dashboards, the
// benchmark harness and the CI smokes read these keys.
var wantJSONKeys = []string{
	"hits", "misses", "coalesced", "rejected", "jobs_done", "jobs_failed",
	"in_flight", "queue_len", "queue_cap", "cache_len", "cache_cap",
	"cache_bytes", "cache_bytes_cap",
	"store_enabled", "store_puts", "store_hits", "store_misses",
	"store_corrupt", "store_quarantined", "store_served", "store_bad_plan",
	"store_put_errors", "tenant_rejected",
	"pricing_models", "pricing_model_cap", "pricing_hits", "pricing_misses",
	"pricing_model_hits", "pricing_model_misses", "pricing_table_hits",
	"pricing_table_misses", "pricing_table_bytes",
	"search_orderings", "search_steps", "search_pruned", "search_dp_steps",
	"search_dp_steps_flat", "search_degraded", "search_cancelled",
	"deadline_rejected", "search_p50_ms", "search_p99_ms", "uptime_sec",
}

// wantFamilies pins the Prometheus exposition: every family's name and
// type, in order.
var wantFamilies = []string{
	"tofu_requests_cache_hits_total counter",
	"tofu_requests_cache_misses_total counter",
	"tofu_requests_coalesced_total counter",
	"tofu_requests_rejected_total counter",
	"tofu_jobs_done_total counter",
	"tofu_jobs_failed_total counter",
	"tofu_searches_in_flight gauge",
	"tofu_queue_len gauge",
	"tofu_queue_cap gauge",
	"tofu_cache_entries gauge",
	"tofu_cache_entries_cap gauge",
	"tofu_cache_bytes gauge",
	"tofu_cache_bytes_cap gauge",
	"tofu_store_enabled gauge",
	"tofu_store_puts_total counter",
	"tofu_store_hits_total counter",
	"tofu_store_misses_total counter",
	"tofu_store_corrupt_total counter",
	"tofu_store_quarantined_total counter",
	"tofu_store_served_total counter",
	"tofu_store_bad_plan_total counter",
	"tofu_store_put_errors_total counter",
	"tofu_requests_tenant_rejected_total counter",
	"tofu_pricing_models gauge",
	"tofu_pricing_models_cap gauge",
	"tofu_pricing_hits_total counter",
	"tofu_pricing_misses_total counter",
	"tofu_pricing_model_hits_total counter",
	"tofu_pricing_model_misses_total counter",
	"tofu_pricing_table_hits_total counter",
	"tofu_pricing_table_misses_total counter",
	"tofu_pricing_table_bytes gauge",
	"tofu_search_orderings_total counter",
	"tofu_search_steps_total counter",
	"tofu_search_pruned_total counter",
	"tofu_search_dp_steps_total counter",
	"tofu_search_dp_steps_flat_total counter",
	"tofu_search_degraded_total counter",
	"tofu_search_cancelled_total counter",
	"tofu_requests_deadline_rejected_total counter",
	"tofu_uptime_seconds gauge",
	"tofu_search_duration_seconds summary",
}

// jsonFields reads a flat JSON object's keys in document order and its
// values as numbers (booleans as 0/1).
func jsonFields(t *testing.T, raw []byte) ([]string, map[string]float64) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("JSON /metrics is not an object: %v %v", tok, err)
	}
	var keys []string
	vals := map[string]float64{}
	for dec.More() {
		ktok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		vtok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		k := ktok.(string)
		keys = append(keys, k)
		switch v := vtok.(type) {
		case json.Number:
			if vals[k], err = v.Float64(); err != nil {
				t.Fatal(err)
			}
		case bool:
			if v {
				vals[k] = 1
			}
		default:
			t.Fatalf("JSON /metrics key %s holds %v, not a scalar", k, vtok)
		}
	}
	return keys, vals
}

// promSamples maps every sample line of an exposition (series name with its
// labels) to its value.
func promSamples(t *testing.T, body []byte) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestPrometheusExposition: the JSON and Prometheus views of /metrics agree
// by construction. After one search, every tagged Snapshot field is exactly
// one family with its tagged type and help, whose sample is the field's JSON
// value; every family but the latency summary maps back to a field; and the
// summary's legs agree with the JSON quantiles and job counts.
func TestPrometheusExposition(t *testing.T) {
	_, srv := startServer(t, service.Config{SyncWait: 30 * time.Second})
	if _, _, err := partition(t.Context(), srv.URL, service.Request{Model: smallModel}); err != nil {
		t.Fatal(err)
	}

	code, raw, err := roundTrip(t.Context(), http.MethodGet, srv.URL+"/metrics", nil)
	if err != nil || code != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d, %v", code, err)
	}
	keys, jsonVals := jsonFields(t, raw)
	if !slices.Equal(keys, wantJSONKeys) {
		t.Fatalf("JSON /metrics keys:\n got %q\nwant %q", keys, wantJSONKeys)
	}

	// Scraped after the JSON document, so only uptime may have moved.
	resp, err := http.Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q is not text/plain", ct)
	}
	fams, err := obs.ParsePromText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exposition does not validate: %v\n%s", err, body)
	}
	var pairs []string
	byName := map[string]obs.PromFamily{}
	for _, f := range fams {
		pairs = append(pairs, f.Name+" "+f.Type)
		byName[f.Name] = f
	}
	if !slices.Equal(pairs, wantFamilies) {
		t.Fatalf("Prometheus families:\n got %q\nwant %q", pairs, wantFamilies)
	}
	samples := promSamples(t, body)

	const lat = "tofu_search_duration_seconds"
	fromField := map[string]bool{lat: true}
	snap := reflect.TypeOf(service.Snapshot{})
	for i := 0; i < snap.NumField(); i++ {
		f := snap.Field(i)
		key := f.Tag.Get("json")
		name, typ, ok := strings.Cut(f.Tag.Get("prom"), ",")
		if !ok {
			if key != "search_p50_ms" && key != "search_p99_ms" {
				t.Errorf("field %s has no prom tag and is not a summary quantile leg", f.Name)
			}
			continue
		}
		if fromField[name] {
			t.Errorf("family %s is defined by two fields", name)
		}
		fromField[name] = true
		fam := byName[name]
		if fam.Type != typ || fam.Help != f.Tag.Get("help") || fam.Samples != 1 {
			t.Errorf("field %s: family %+v, want type %s, help %q, one sample", f.Name, fam, typ, f.Tag.Get("help"))
		}
		got, want := samples[name], jsonVals[key]
		if key == "uptime_sec" {
			if got < want {
				t.Errorf("%s = %v, earlier JSON uptime_sec = %v", name, got, want)
			}
		} else if got != want {
			t.Errorf("%s = %v, JSON %s = %v", name, got, key, want)
		}
	}
	for _, f := range fams {
		if !fromField[f.Name] {
			t.Errorf("family %s maps to no Snapshot field", f.Name)
		}
	}

	// One search ran: the summary holds one observation, so its sum and both
	// quantiles are that observation, and the quantiles are the JSON ones.
	if f := byName[lat]; f.Samples != 4 {
		t.Fatalf("latency summary = %+v, want 4 samples", f)
	}
	count, sum := samples[lat+"_count"], samples[lat+"_sum"]
	if count != 1 || count != jsonVals["jobs_done"]+jsonVals["jobs_failed"] {
		t.Errorf("%s_count = %v, want 1 = jobs_done + jobs_failed", lat, count)
	}
	for _, q := range []struct{ label, key string }{{"0.5", "search_p50_ms"}, {"0.99", "search_p99_ms"}} {
		got := samples[lat+`{quantile="`+q.label+`"}`]
		if want := jsonVals[q.key] / 1e3; got <= 0 || math.Abs(got-want) > 1e-9*want {
			t.Errorf("quantile %s = %v s, JSON %s = %v ms", q.label, got, q.key, jsonVals[q.key])
		}
		if got != sum {
			t.Errorf("quantile %s = %v, want the one observation %v", q.label, got, sum)
		}
	}
}

// logSink is a mutex-guarded log destination. The access-log record is
// written after the handler returns, which can be after the client has read
// a Content-Length-framed body: the test must not read the buffer while
// the server writes it, and must wait for the record.
type logSink struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	wrote chan struct{} // capacity 1: a pending "something was written"
}

func newLogSink() *logSink { return &logSink{wrote: make(chan struct{}, 1)} }

func (s *logSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	n, err := s.buf.Write(p)
	s.mu.Unlock()
	select {
	case s.wrote <- struct{}{}:
	default:
	}
	return n, err
}

// record returns the first decoded log record whose msg is msg, waiting up
// to timeout for it to be written, and the log as read on the last attempt.
func (s *logSink) record(msg string, timeout time.Duration) (map[string]any, string) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		s.mu.Lock()
		text := s.buf.String()
		s.mu.Unlock()
		dec := json.NewDecoder(strings.NewReader(text))
		for {
			var rec map[string]any
			if err := dec.Decode(&rec); err != nil {
				break
			}
			if rec["msg"] == msg {
				return rec, text
			}
		}
		select {
		case <-s.wrote:
		case <-timer.C:
			return nil, text
		}
	}
}

// TestStructuredRequestLog checks the slog access log carries the trace
// id, digest and cache outcome, and that the trace id is echoed to the
// client.
func TestStructuredRequestLog(t *testing.T) {
	sink := newLogSink()
	logger := slog.New(slog.NewJSONHandler(sink, nil))
	_, srv := startServer(t, service.Config{SyncWait: 30 * time.Second, Logger: logger})

	body := strings.NewReader(`{"model":{"family":"mlp","depth":4,"width":256,"batch":64}}`)
	req, err := http.NewRequest("POST", srv.URL+"/v1/partition", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Tofu-Tenant", "team-a")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint — drain
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	traceID := resp.Header.Get("Tofu-Trace-Id")
	if traceID == "" {
		t.Fatal("no Tofu-Trace-Id response header")
	}

	reqRec, text := sink.record("request", 10*time.Second)
	if reqRec == nil {
		t.Fatalf("no request record in log:\n%s", text)
	}
	if reqRec["id"] != traceID {
		t.Fatalf("log trace id %v != header %q", reqRec["id"], traceID)
	}
	if reqRec["tenant"] != "team-a" || reqRec["source"] != "search" {
		t.Fatalf("log record missing tenant/source: %v", reqRec)
	}
	digest, _ := reqRec["digest"].(string)
	if !strings.HasPrefix(digest, "sha256:") {
		t.Fatalf("log record digest %q is not a content digest", digest)
	}
}
