package service

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"tofu/internal/cancel"
	"tofu/internal/plan"
)

// maxRequestBytes bounds a POST body; an inline topology plus model config
// is well under this.
const maxRequestBytes = 1 << 20

// Accepted is the 202 body of an async flip: the job to poll and the digest
// the finished plan will be filed under.
type Accepted struct {
	Job     string `json:"job"`
	Digest  string `json:"digest"`
	JobURL  string `json:"job_url"`
	PlanURL string `json:"plan_url"`
}

type apiError struct {
	Error string `json:"error"`
}

// Handler exposes the service over HTTP/JSON:
//
//	POST /v1/partition      -> 200 plan | 202 Accepted | 400 | 429 | 503
//	GET  /v1/jobs/{id}      -> 200 Status | 404
//	GET  /v1/plans/{digest} -> 200 plan | 202 Accepted | 400 | 404
//	GET  /healthz           -> 200 | 503 (draining)
//	GET  /metrics           -> 200 Snapshot (JSON) | Prometheus text with ?format=prometheus
//
// When Config.Logger is set, every request is logged structurally (trace
// id, digest, cache outcome, tenant, status, duration) and the trace id is
// echoed back in the Tofu-Trace-Id response header.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/partition", s.handlePartition)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/plans/{digest}", s.handlePlan)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.logRequests(mux)
}

// statusRecorder captures the status code a handler commits so the access
// log can report it.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// logRequests is the structured access log: one record per request with a
// per-request trace id correlated to the plan content digest the handler
// served (the Tofu-Digest response header). A nil logger short-circuits to
// the bare mux — no wrapper, no per-request cost.
func (s *Service) logRequests(next http.Handler) http.Handler {
	if s.cfg.Logger == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := "r" + itoa6(s.reqSeq.Add(1))
		w.Header().Set("Tofu-Trace-Id", id)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		s.cfg.Logger.Info("request",
			"id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"digest", rec.Header().Get("Tofu-Digest"),
			"source", rec.Header().Get("Tofu-Source"),
			"tenant", r.Header.Get("Tofu-Tenant"),
			"dur_ms", float64(time.Since(start).Microseconds())/1e3,
		)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) //tofu:allow-errdrop the response is already committed; a write error means the client is gone
}

// writePlan serves the cached bytes verbatim — no re-encoding, so the wire
// form is byte-identical to a fresh search's WriteJSON output. The length
// is declared: net/http would otherwise chunk-encode every plan and spend
// a third socket write on the terminating chunk (headers and body are two).
func writePlan(w http.ResponseWriter, digest string, val []byte, source string) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(val)))
	h.Set("Tofu-Digest", digest)
	h.Set("Tofu-Source", source) // "cache" | "search" | "coalesced"
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(val) //tofu:allow-errdrop the response is already committed; a write error means the client is gone
}

func (s *Service) handlePartition(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBytes+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
		return
	}
	if len(body) > maxRequestBytes {
		writeJSON(w, http.StatusRequestEntityTooLarge, apiError{"request body too large"})
		return
	}
	req, err := ParseRequest(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
		return
	}
	digest, err := req.digestNormalized() // ParseRequest already normalized
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
		return
	}
	if val, ok := s.Lookup(digest); ok {
		writePlan(w, digest, val, "cache")
		return
	}
	// Deadline admission: refuse work the queue demonstrably cannot finish
	// in budget, with a Retry-After sized to the backlog, instead of
	// accepting a job whose whole budget would burn in the queue.
	if wait, derr := s.CheckDeadline(req); derr != nil {
		w.Header().Set("Retry-After", retryAfterSeconds(wait))
		writeJSON(w, http.StatusServiceUnavailable, apiError{derr.Error()})
		return
	}
	// The tenant header scopes quota accounting only — it never reaches the
	// digest, so tenants share cache entries for identical requests.
	job, kind, err := s.SubmitTenant(req, digest, r.Header.Get("Tofu-Tenant"))
	switch {
	case errors.Is(err, ErrTenantQuota):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, apiError{err.Error()})
		return
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, apiError{err.Error()})
		return
	case errors.Is(err, ErrShuttingDown):
		writeJSON(w, http.StatusServiceUnavailable, apiError{err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, apiError{err.Error()})
		return
	}
	val, jerr, timedOut := s.Wait(r.Context(), job, s.cfg.SyncWait)
	if timedOut {
		// The search outlived the latency budget (or the client left):
		// flip async and let the caller poll the job.
		writeJSON(w, http.StatusAccepted, Accepted{
			Job: job.ID(), Digest: digest,
			JobURL: "/v1/jobs/" + job.ID(), PlanURL: "/v1/plans/" + digest,
		})
		return
	}
	if jerr != nil {
		// A cancelled search (deadline with no incumbent, watchdog, drain)
		// is transient load, not a malformed request: 503 + Retry-After so
		// well-behaved clients back off and re-submit.
		if cancel.IsCancellation(jerr) {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, apiError{jerr.Error()})
			return
		}
		writeJSON(w, http.StatusUnprocessableEntity, apiError{jerr.Error()})
		return
	}
	if !s.serveDegraded(w, job.Degraded()) {
		return
	}
	source := "search"
	switch kind {
	case SubmitJoined:
		source = "coalesced"
	case SubmitCached:
		source = "cache"
	}
	writePlan(w, digest, val, source)
}

// serveDegraded applies Config.DegradedPolicy to a finished job: under
// DegradedServe it stamps the Tofu-Degraded response header and reports
// true (serve the incumbent); under DegradedFail it writes the 503 and
// reports false. Non-degraded results always pass untouched.
func (s *Service) serveDegraded(w http.ResponseWriter, degraded bool) bool {
	if !degraded {
		return true
	}
	if s.cfg.DegradedPolicy == DegradedFail {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable,
			apiError{"search degraded: deadline exhausted before the proven optimum (degraded-policy=fail)"})
		return false
	}
	w.Header().Set("Tofu-Degraded", "true")
	return true
}

// retryAfterSeconds renders a backlog estimate as a Retry-After value:
// whole seconds, rounded up, at least 1.
func retryAfterSeconds(wait time.Duration) string {
	secs := int64((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{"unknown job (finished jobs are retained briefly; re-POST the request)"})
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Service) handlePlan(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	if err := plan.ValidateDigest(digest); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
		return
	}
	if val, ok := s.Lookup(digest); ok {
		writePlan(w, digest, val, "cache")
		return
	}
	if j, ok := s.InFlight(digest); ok {
		writeJSON(w, http.StatusAccepted, Accepted{
			Job: j.ID(), Digest: digest,
			JobURL: "/v1/jobs/" + j.ID(), PlanURL: "/v1/plans/" + digest,
		})
		return
	}
	// Evicted from the LRU but the finished job is still indexed: an async
	// client must not lose the search it was 202'd for. Degraded incumbents
	// live only here (never in the cache), so this is also where a 202'd
	// deadline-bounded client collects its plan.
	if val, degraded, ok := s.RecoverPlan(digest); ok {
		if !s.serveDegraded(w, degraded) {
			return
		}
		writePlan(w, digest, val, "cache")
		return
	}
	writeJSON(w, http.StatusNotFound, apiError{"plan not cached (POST /v1/partition to compute it)"})
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = s.WritePrometheus(w) //tofu:allow-errdrop the response is already committed; a write error means the client is gone
		return
	}
	writeJSON(w, http.StatusOK, s.Metrics())
}
