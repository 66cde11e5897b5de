package service

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"tofu/internal/models"
	"tofu/internal/topo"
)

// runReal runs one request through the real compute path.
func runReal(t *testing.T, s *Service, req Request) []byte {
	t.Helper()
	nr, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	digest, err := nr.digestNormalized()
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := s.Submit(nr, digest)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("search timed out")
	}
	val, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	return val
}

// TestServedPlansMatchComputePlan: plans served by the worker pool for one
// model at two worker counts and on a hierarchical machine are
// byte-identical to isolated ComputePlan searches, and the ordering-search
// effort reaches the metrics snapshot.
func TestServedPlansMatchComputePlan(t *testing.T) {
	s := New(Config{Workers: 1, Parallelism: 1})
	defer s.Shutdown(context.Background())

	model := models.Config{Family: "mlp", Depth: 4, Width: 512, Batch: 64}
	dgx1, err := topo.Profile("dgx1")
	if err != nil {
		t.Fatal(err)
	}
	reqs := []Request{
		{Model: model, Workers: 8},                                 // flat default machine
		{Model: model, Workers: 4},                                 // same model, different k
		{Model: model, HW: "dgx1", Workers: int64(dgx1.NumGPUs())}, // hierarchical
	}
	for _, r := range reqs {
		got := runReal(t, s, r)
		want, err := ComputePlan(r, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("plan for %+v diverges from an isolated fresh search", r)
		}
	}

	m := s.Metrics()
	if m.SearchOrderings == 0 {
		t.Error("search_orderings = 0: the dgx1 request ran a topology-aware search")
	}
	if m.SearchDPStepsFlat < m.SearchDPSteps {
		t.Errorf("search_dp_steps_flat %d < search_dp_steps %d", m.SearchDPStepsFlat, m.SearchDPSteps)
	}
}

// TestSearchDPStepsCountsReplays: search_dp_steps counts DP steps, swept or
// replayed by the step memo, so it stays comparable with
// search_dp_steps_flat. The all-2 cluster-2x8 pool has one prefix per depth:
// its four steps are one sweep and three replays.
func TestSearchDPStepsCountsReplays(t *testing.T) {
	s := New(Config{Workers: 1, Parallelism: 1})
	defer s.Shutdown(context.Background())
	runReal(t, s, Request{Model: models.Config{Family: "rnn", Depth: 2, Width: 1024, Batch: 64}, HW: "cluster-2x8"})
	m := s.Metrics()
	if m.SearchOrderings != 4 || m.SearchDPSteps != 4 || m.SearchDPStepsFlat != 16 {
		t.Fatalf("search orderings/dp_steps/dp_steps_flat = %d/%d/%d, want 4/4/16",
			m.SearchOrderings, m.SearchDPSteps, m.SearchDPStepsFlat)
	}
	var prom strings.Builder
	if err := s.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "\ntofu_search_dp_steps_total 4\n") {
		t.Fatal("tofu_search_dp_steps_total is not 4 in the Prometheus exposition")
	}
}
