package dp_test

import (
	"fmt"
	"maps"
	"math"
	"sync"
	"testing"

	"tofu/internal/coarsen"
	"tofu/internal/dp"
	"tofu/internal/graph"
	"tofu/internal/hybrid"
	"tofu/internal/models"
	"tofu/internal/recursive"
	"tofu/internal/shape"
	"tofu/internal/topo"
)

// TestPreparedMemoMatchesFresh checks every preparation the step memo shares
// against a fresh dp.Prepare at the sharing step's own shapes, with no
// evaluator carry and no price cache: the hit must be bound to the caller's
// Problem, list the same strategies per slot with bit-identical costT, bestT
// and minCost, give the same LowerBound bits, and solve to the same VarCut,
// CommBytes, States and Configs. It first prepares one matmul under K 2 and 3
// at every combination of five shapes per operand through one memo: equal
// alphabets over different shapes must share, and alphabets that differ
// only in which dimensions they list, or only in K, must not. Then it runs
// every TestOrderingSearchEffort case and the four cold-hybrid cases
// (bench/workloads/cold-hybrid.json) at Parallelism 1, 2 and 8.
func TestPreparedMemoMatchesFresh(t *testing.T) {
	cases := []struct {
		cfg      models.Config
		hw       string
		pipeline bool
	}{
		{models.Config{Family: "rnn", Depth: 2, Width: 1024, Batch: 64}, "cluster-2x8", false},
		{models.Config{Family: "mlp", Depth: 3, Width: 2048, Batch: 128}, "cluster-4x2x8", false},
		{models.Config{Family: "mlp", Depth: 3, Width: 4096, Batch: 256}, "cluster-8x2x8", false},
		{models.Config{Family: "transformer", Depth: 2, Width: 1536, Batch: 24}, "cluster-2x4x2x12", false},
		{models.Config{Family: "mlp", Depth: 3, Width: 3072, Batch: 48}, "cluster-2x8x2x8", false},
		{models.Config{Family: "mlp", Depth: 4, Width: 384, Batch: 48}, "cluster-2x4x2x12", true},
		{models.Config{Family: "mlp", Depth: 8, Width: 256, Batch: 64}, "cluster-4x2x8", true},
		{models.Config{Family: "rnn", Depth: 2, Width: 1024, Batch: 64}, "cluster-4x2x8", true},
		{models.Config{Family: "transformer", Depth: 2, Width: 1024, Batch: 64}, "cluster-2x8", true},
	}
	var (
		mu    sync.Mutex
		hits  int
		label string
	)
	check := func(p *dp.Problem, hit *dp.Prepared) error {
		if dp.ProblemOf(hit) != p {
			return fmt.Errorf("the hit is bound to another step's Problem")
		}
		q := *p
		q.Cache, q.Trace, q.Cancel, q.Parallelism = nil, nil, nil, 1
		fresh, err := dp.Prepare(&q)
		if err != nil {
			return fmt.Errorf("a fresh preparation fails: %v", err)
		}
		if err := dp.DiffPrepared(hit, fresh); err != nil {
			return err
		}
		if got, want := hit.LowerBound(), fresh.LowerBound(); math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("LowerBound %v, fresh %v", got, want)
		}
		got, err := hit.Solve()
		if err != nil {
			return fmt.Errorf("the hit's solve fails: %v", err)
		}
		want, err := fresh.Solve()
		if err != nil {
			return fmt.Errorf("the fresh solve fails: %v", err)
		}
		switch {
		case math.Float64bits(got.CommBytes) != math.Float64bits(want.CommBytes):
			return fmt.Errorf("solves to %v, fresh %v", got.CommBytes, want.CommBytes)
		case got.States != want.States || got.Configs != want.Configs:
			return fmt.Errorf("(states, configs) = (%d, %d), fresh (%d, %d)", got.States, got.Configs, want.States, want.Configs)
		case !maps.Equal(got.VarCut, want.VarCut):
			return fmt.Errorf("cuts differently from the fresh preparation")
		}
		return nil
	}
	dp.SetPrepareAudit(func(p *dp.Problem, hit *dp.Prepared) {
		err := check(p, hit)
		mu.Lock()
		defer mu.Unlock()
		hits++
		if err != nil {
			t.Errorf("%s, K=%d: %v", label, p.K, err)
		}
	})
	defer dp.SetPrepareAudit(nil)

	label = "matmul shape grid"
	g := graph.New()
	x, w := g.Input("x", shape.Of(12, 12)), g.Input("w", shape.Of(12, 12))
	operands := []*graph.Tensor{x, w, g.Apply("matmul", nil, x, w)}
	mm, err := coarsen.Coarsen(g)
	if err != nil {
		t.Fatal(err)
	}
	variants := []shape.Shape{shape.Of(12, 12), shape.Of(3, 12), shape.Of(12, 3), shape.Of(24, 36), shape.Of(36, 24)}
	var memo dp.StepMemo
	prepared := 0
	for _, k := range []int64{2, 3} {
		for i := range len(variants) * len(variants) * len(variants) {
			shapes := map[int]shape.Shape{}
			for j, pick := 0, i; j < len(operands); j, pick = j+1, pick/len(variants) {
				shapes[operands[j].ID] = variants[pick%len(variants)]
			}
			if _, _, err := memo.Prepare(&dp.Problem{Coarse: mm, K: k, Shapes: shapes, DType: shape.Float32, Parallelism: 1}); err == nil {
				prepared++
			}
		}
	}
	if hits == 0 || hits == prepared {
		t.Fatalf("matmul shape grid: %d of %d preparations shared", hits, prepared)
	}
	t.Logf("matmul shape grid: %d of %d preparations shared", hits, prepared)

	for _, c := range cases {
		m, err := models.Build(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := topo.Profile(c.hw)
		if err != nil {
			t.Fatal(err)
		}
		k := int64(tp.NumGPUs())
		caseHits := 0
		for _, par := range []int{1, 2, 8} {
			label = fmt.Sprintf("%s on %s (pipeline %v, parallelism %d)", c.cfg, c.hw, c.pipeline, par)
			hits = 0
			if c.pipeline {
				_, err = hybrid.Partition(m.G, k, hybrid.Options{Topology: &tp, Parallelism: par})
			} else {
				_, err = recursive.Partition(m.G, k, recursive.Options{Topology: &tp, Parallelism: par})
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			t.Logf("%s: %d shared preparations checked", label, hits)
			caseHits += hits
		}
		if caseHits == 0 {
			t.Errorf("%s on %s: the memo shared no preparation", c.cfg, c.hw)
		}
	}
}
