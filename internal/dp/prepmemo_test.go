package dp_test

import (
	"fmt"
	"testing"

	"tofu/internal/coarsen"
	"tofu/internal/dp"
	"tofu/internal/graph"
	"tofu/internal/models"
	"tofu/internal/shape"
	"tofu/internal/topo"
)

// TestPreparedMemoMatchesFresh checks every preparation a step memo shares —
// the hit StepMemo.Prepare reports — against a fresh dp.Prepare at the
// sharing step's own shapes, with no price cache: the hit must be bound to
// the caller's Problem, list the same strategies per slot with bit-identical
// costT, bestT and minCost, give the same LowerBound bits, and solve to the
// same VarCut, CommBytes, States and Configs. It first prepares one matmul
// under K 2 and 3 at every combination of five shapes per operand through one
// memo: equal alphabets over different shapes must share, and alphabets that
// differ only in which dimensions they list, or only in K, must not. Then it
// walks (memoWalk) the prefix tree of factor orderings of every
// TestOrderingSearchEffort case, and of every segment the hybrid search
// searched on the four cold-hybrid cases (bench/workloads/cold-hybrid.json,
// walkSegments), through one memo per coarsening, as the ordering search
// does, at Parallelism 1, 2 and 8.
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

	g := graph.New()
	x, w := g.Input("x", shape.Of(12, 12)), g.Input("w", shape.Of(12, 12))
	operands := []*graph.Tensor{x, w, g.Apply("matmul", nil, x, w)}
	mm, err := coarsen.Coarsen(g)
	if err != nil {
		t.Fatal(err)
	}
	variants := []shape.Shape{shape.Of(12, 12), shape.Of(3, 12), shape.Of(12, 3), shape.Of(24, 36), shape.Of(36, 24)}
	var memo dp.StepMemo
	prepared, hits := 0, 0
	for _, k := range []int64{2, 3} {
		for i := range len(variants) * len(variants) * len(variants) {
			shapes := map[int]shape.Shape{}
			for j, pick := 0, i; j < len(operands); j, pick = j+1, pick/len(variants) {
				shapes[operands[j].ID] = variants[pick%len(variants)]
			}
			p := &dp.Problem{Coarse: mm, K: k, Shapes: shapes, DType: shape.Float32, Parallelism: 1}
			pr, hit, err := memo.Prepare(p)
			if err != nil {
				continue
			}
			prepared++
			if hit {
				hits++
				if err := freshMatches(p, pr); err != nil {
					t.Errorf("matmul shape grid, K=%d: %v", k, err)
				}
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
		co, err := coarsen.Coarsen(m.G)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 2, 8} {
			w := memoWalk{t: t, label: fmt.Sprintf("%s on %s (pipeline %v, parallelism %d)", c.cfg, c.hw, c.pipeline, par), par: par}
			if c.pipeline {
				walkSegments(&w, co, tp)
			} else {
				w.run(co, poolFactors(tp.Levels))
			}
			t.Logf("%s: %d shared preparations checked", w.label, w.hits)
			if w.hits == 0 {
				t.Errorf("%s: the memo shared no preparation", w.label)
			}
		}
	}
}

// freshMatches compares a shared preparation of p with a fresh one at p's own
// shapes, without a price cache (hitMatches).
func freshMatches(p *dp.Problem, hit *dp.Prepared) error {
	q := *p
	q.Cache, q.Parallelism = nil, 1
	fresh, err := dp.Prepare(&q)
	if err != nil {
		return fmt.Errorf("a fresh preparation fails: %v", err)
	}
	want, err := fresh.Solve()
	if err != nil {
		return fmt.Errorf("the fresh solve fails: %v", err)
	}
	return hitMatches(p, hit, fresh, want)
}
