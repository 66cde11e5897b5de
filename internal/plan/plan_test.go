package plan

import (
	"strings"
	"testing"

	"tofu/internal/shape"
)

func twoStepPlan() *Plan {
	return &Plan{
		K: 4,
		Steps: []*Step{
			{K: 2, Multiplier: 1, TensorCut: []int{-1, 0, 1}, CommBytes: 100},
			{K: 2, Multiplier: 2, TensorCut: []int{-1, 1, 1}, CommBytes: 150},
		},
	}
}

func TestTotalCommAndDelta(t *testing.T) {
	p := twoStepPlan()
	if got := p.TotalComm(); got != 250 {
		t.Fatalf("TotalComm = %g", got)
	}
	if p.Steps[0].Delta() != 100 || p.Steps[1].Delta() != 150 {
		t.Fatal("Delta should be the priced-at-original-shapes cost")
	}
}

func TestMonotone(t *testing.T) {
	p := twoStepPlan()
	if !p.Monotone() {
		t.Fatal("100 <= 150 should be monotone")
	}
	p.Steps[1].CommBytes = 50
	if p.Monotone() {
		t.Fatal("100 > 50 violates Theorem 2")
	}
	// Numerical slack: tiny decreases tolerated.
	p.Steps[1].CommBytes = 100 - 1e-9
	if !p.Monotone() {
		t.Fatal("epsilon decrease should pass the slack")
	}
}

func TestTensorCuts(t *testing.T) {
	p := twoStepPlan()
	if got := p.TensorCuts(1); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("TensorCuts(1) = %v", got)
	}
	if got := p.TensorCuts(99); got != nil {
		t.Fatalf("unknown tensor should have no cuts, got %v", got)
	}
}

// TestCutAtEveryStep: the non-allocating test graphgen sizes shards by is
// exactly len(TensorCuts) > 0, including a tensor one step leaves uncut and a
// plan with no steps.
func TestCutAtEveryStep(t *testing.T) {
	p := twoStepPlan()
	p.Steps[1].TensorCut = append(p.Steps[1].TensorCut, -1)
	p.Steps[0].TensorCut = append(p.Steps[0].TensorCut, 0) // tensor 3: cut by step 0 only
	for _, q := range []*Plan{p, {K: 1}} {
		for id := -1; id <= 5; id++ {
			if got, want := q.CutAtEveryStep(id), len(q.TensorCuts(id)) > 0; got != want {
				t.Errorf("%d-step plan, tensor %d: CutAtEveryStep %t, TensorCuts %v", len(q.Steps), id, got, q.TensorCuts(id))
			}
		}
	}
	if got := testing.AllocsPerRun(10, func() { p.CutAtEveryStep(1) }); got != 0 {
		t.Errorf("CutAtEveryStep allocates %v times", got)
	}
}

func TestCutSummary(t *testing.T) {
	p := twoStepPlan()
	s := p.CutSummary(1)
	if !strings.Contains(s, "dim0/2") || !strings.Contains(s, "dim1/2") {
		t.Fatalf("CutSummary = %q", s)
	}
	if got := p.CutSummary(99); got != "unpartitioned" {
		t.Fatalf("unknown tensor summary = %q", got)
	}
}

func TestShardDims(t *testing.T) {
	p := twoStepPlan()
	dims := p.ShardDims(2, 2) // cut dim1 twice
	if dims[0] != 1 || dims[1] != 4 {
		t.Fatalf("ShardDims = %v", dims)
	}
	dims = p.ShardDims(1, 2) // dim0 then dim1
	if dims[0] != 2 || dims[1] != 2 {
		t.Fatalf("ShardDims = %v", dims)
	}
	prod := int64(1)
	for _, d := range dims {
		prod *= d
	}
	if prod != p.K {
		t.Fatalf("shards multiply to %d, want %d", prod, p.K)
	}
}

func TestEmptyPlan(t *testing.T) {
	p := &Plan{K: 1, FinalShapes: map[int]shape.Shape{}}
	if p.TotalComm() != 0 {
		t.Fatal("empty plan has no communication")
	}
	if !p.Monotone() {
		t.Fatal("empty plan is trivially monotone")
	}
}
