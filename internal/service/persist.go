package service

import (
	"tofu/internal/plan"
	"tofu/internal/store"
)

// Lookup answers from the warm layers: the in-memory LRU first, then the
// persistent store (when configured). Store bytes are verified to answer
// the digest — plan.Verify, every check of plan.ReadJSONExpect without
// building the plan, on top of the store's own checksum — before being
// promoted into the LRU and served.
func (s *Service) Lookup(digest string) ([]byte, bool) {
	val, ok := s.cache.Get(digest)
	if ok {
		s.metrics.hits.Add(1)
		return val, ok
	}
	if s.cfg.Store == nil {
		return nil, false
	}
	_, val, err := s.cfg.Store.Get(digest)
	if err != nil {
		return nil, false
	}
	if _, err := plan.Verify(val, digest); err != nil {
		// Checksum-valid but not a plan answering this digest: a writer
		// bug, not bit rot. Don't serve it; the search recomputes.
		s.metrics.storeBadPlan.Add(1)
		return nil, false
	}
	s.cache.Put(digest, val)
	s.metrics.hits.Add(1)
	s.metrics.storeServed.Add(1)
	return val, true
}

// persist writes a finished, verified plan through to the persistent store
// (when configured). The store is a best-effort accelerator: run's
// verification guards against a Compute seam returning non-plan bytes, and a
// store write failure costs the fleet a future recompute, not this request.
func (s *Service) persist(j *Job, val []byte, hdr plan.Header) {
	if s.cfg.Store == nil {
		return
	}
	md, err := modelDigest(j.req.Model)
	if err != nil {
		return
	}
	_ = s.cfg.Store.Put(store.Meta{ //tofu:allow-errdrop the store counts its own put failures; a failed write costs a future recompute, not this request
		Digest:      j.digest,
		ModelDigest: md,
		Workers:     hdr.Workers,
		Steps:       storeStepsFromHeader(hdr),
	}, val)
}

// storeStepsFromHeader extracts a verified plan's realized ordering in the
// store's header form.
func storeStepsFromHeader(h plan.Header) []store.Step {
	out := make([]store.Step, len(h.Steps))
	for i, st := range h.Steps {
		out[i] = store.Step{Factor: st.Ways, Level: st.Level}
	}
	return out
}
