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

// TestPricingReuseAcrossRequests: warm requests for the same model at a
// different worker count / machine reuse the model's pricing bucket (hit
// counts surface in the metrics snapshot), and the served plans stay
// byte-identical to an isolated fresh search.
func TestPricingReuseAcrossRequests(t *testing.T) {
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
	if m.PricingModels != 1 {
		t.Errorf("pricing_models = %d, want 1 (one model across all requests)", m.PricingModels)
	}
	if m.PricingModelHits < 2 {
		t.Errorf("pricing_model_hits = %d, want >= 2 (second and third request reuse the bucket)", m.PricingModelHits)
	}
	if m.PricingHits == 0 {
		t.Error("pricing_hits = 0: warm requests re-priced every slot")
	}
	if m.PricingTableHits == 0 || m.PricingTableMiss == 0 || m.PricingTableBytes <= 0 {
		t.Errorf("pricing_table hits/misses/bytes = %d/%d/%d: the searches filled and shared dense tables",
			m.PricingTableHits, m.PricingTableMiss, m.PricingTableBytes)
	}
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

// TestPricingCachesBounded: the per-model LRU evicts the least recently
// used bucket and keeps its hit counters in the aggregate.
func TestPricingCachesBounded(t *testing.T) {
	p := NewPricingCaches(2)
	cfgs := []models.Config{
		{Family: "mlp", Depth: 2, Width: 128, Batch: 32},
		{Family: "mlp", Depth: 3, Width: 128, Batch: 32},
		{Family: "mlp", Depth: 4, Width: 128, Batch: 32},
	}
	a := p.For(cfgs[0])
	if p.For(cfgs[0]) != a {
		t.Fatal("same model must return the same bucket")
	}
	p.For(cfgs[1])
	p.For(cfgs[2]) // evicts cfgs[0]
	if got := p.Models(); got != 2 {
		t.Fatalf("resident models = %d, want 2", got)
	}
	if p.For(cfgs[0]) == a {
		t.Error("evicted model must get a fresh bucket")
	}
	_, _, hits, misses := p.PricingStats()
	if hits != 1 || misses != 4 {
		t.Errorf("model hits/misses = %d/%d, want 1/4", hits, misses)
	}
}

// TestPricingCachesRetireTableStats: a bucket's dense-table counters join
// the aggregate when it is evicted; its bytes leave with it.
func TestPricingCachesRetireTableStats(t *testing.T) {
	p := NewPricingCaches(1)
	req := Request{Model: models.Config{Family: "mlp", Depth: 2, Width: 128, Batch: 32}, Workers: 4}
	nr, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compute(nr, "", 1, p.For(nr.Model), nil, nil); err != nil {
		t.Fatal(err)
	}
	hits, misses, bytes := p.TableStats()
	if hits == 0 || misses == 0 || bytes <= 0 {
		t.Fatalf("table hits/misses/bytes = %d/%d/%d after a search", hits, misses, bytes)
	}
	p.For(models.Config{Family: "mlp", Depth: 3, Width: 128, Batch: 32}) // evicts the searched bucket
	h2, m2, b2 := p.TableStats()
	if h2 != hits || m2 != misses || b2 != 0 {
		t.Errorf("after eviction: table hits/misses/bytes = %d/%d/%d, want %d/%d/0", h2, m2, b2, hits, misses)
	}
}
