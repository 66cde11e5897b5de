package dp

import (
	"fmt"
	"math"
	"testing"

	"tofu/internal/models"
)

// sameTables asserts two materialized results carry bit-identical dense
// tables.
func sameTables(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if len(got.TensorCut) != len(want.TensorCut) || len(got.OpStrategy) != len(want.OpStrategy) ||
		len(got.OpComm) != len(want.OpComm) {
		t.Fatalf("%s: table sizes (%d, %d, %d), want (%d, %d, %d)", name,
			len(got.TensorCut), len(got.OpStrategy), len(got.OpComm),
			len(want.TensorCut), len(want.OpStrategy), len(want.OpComm))
	}
	for tid, dim := range want.TensorCut {
		if got.TensorCut[tid] != dim {
			t.Fatalf("%s: tensor %d cut %d, want %d", name, tid, got.TensorCut[tid], dim)
		}
	}
	for nid := range want.OpStrategy {
		if got.OpStrategy[nid] != want.OpStrategy[nid] {
			t.Fatalf("%s: node %d strategy %v, want %v", name, nid, got.OpStrategy[nid], want.OpStrategy[nid])
		}
		g, w := got.OpComm[nid], want.OpComm[nid]
		if math.Float64bits(g.InBytes) != math.Float64bits(w.InBytes) ||
			math.Float64bits(g.OutBytes) != math.Float64bits(w.OutBytes) {
			t.Fatalf("%s: node %d comm %+v, want %+v", name, nid, g, w)
		}
	}
}

// TestMaterializeMatchesEvaluate walks every benchmark family down its factor
// steps. At each step the tables a solved Result materializes from the
// evaluators it was solved on must equal what Evaluate prices for the same
// assignment from freshly built evaluators — the two ways a search fills a
// winner's step — materializing again must change nothing, and the per-slot
// costs materialize sums must agree with the cost the sweep accumulated group
// table by group table.
func TestMaterializeMatchesEvaluate(t *testing.T) {
	for _, tc := range []struct {
		cfg     models.Config
		factors []int64
	}{
		{models.Config{Family: "mlp", Depth: 3, Width: 96, Batch: 24}, []int64{3, 2, 2, 2}},
		{models.Config{Family: "rnn", Depth: 2, Width: 96, Batch: 24}, []int64{3, 2, 2, 2}},
		{models.Config{Family: "wresnet", Depth: 50, Width: 2, Batch: 16}, []int64{2, 2, 2}},
		{models.Config{Family: "transformer", Depth: 2, Width: 96, Batch: 24}, []int64{3, 2, 2, 2}},
	} {
		m, err := models.Build(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := problemFor(t, m, 0)
		p.Cache = NewPriceCache()
		for step, k := range tc.factors {
			name := fmt.Sprintf("%s step %d (x%d)", tc.cfg.Family, step+1, k)
			p.K = k
			res, err := Solve(p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.TensorCut != nil || res.OpStrategy != nil || res.OpComm != nil {
				t.Fatalf("%s: Solve filled dense tables nobody asked for", name)
			}
			total, err := res.materialize()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if math.Abs(total-res.CommBytes) > 1e-9*math.Abs(res.CommBytes) {
				t.Fatalf("%s: slots sum to %v, the sweep found %v", name, total, res.CommBytes)
			}
			tc0, st0, oc0 := &res.TensorCut[0], &res.OpStrategy[0], &res.OpComm[0]
			if err := res.Materialize(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if &res.TensorCut[0] != tc0 || &res.OpStrategy[0] != st0 || &res.OpComm[0] != oc0 {
				t.Fatalf("%s: materializing twice rebuilt the tables", name)
			}

			// Evaluate builds its own evaluators from a cold cache.
			q := *p
			q.Cache = NewPriceCache()
			want, err := Evaluate(&q, res.VarCut)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sameTables(t, name, res, want)
			if math.Float64bits(want.CommBytes) != math.Float64bits(total) {
				t.Fatalf("%s: Evaluate prices %v, materialize summed %v", name, want.CommBytes, total)
			}

			for tid, dim := range res.TensorCut {
				if dim < 0 {
					continue
				}
				if err := p.Shapes[tid].SplitInPlace(dim, k); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestPreparedSolveBuildsNothing: a Solve on a Prepared that already answered
// a bound query runs on those very evaluators — it rebuilds none, fills no
// per-node or per-tensor table, and allocates what a sweep and a back-track
// allocate: a constant, whatever the slot count.
func TestPreparedSolveBuildsNothing(t *testing.T) {
	const solveCeiling = 24 // the sweeper's slabs (9) and what it grows when a group first needs it, the Result and its presized VarCut, the back-pointer index
	for _, cfg := range []models.Config{
		{Family: "mlp", Depth: 4, Width: 64, Batch: 16},
		{Family: "rnn", Depth: 2, Width: 64, Batch: 16},
		{Family: "wresnet", Depth: 50, Width: 1, Batch: 4},
		// Wide enough for the incumbent bound, whose floors and dive digits
		// share the sweeper's slabs.
		{Family: "transformer", Depth: 1, Width: 64, Batch: 8},
	} {
		m, err := models.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := problemFor(t, m, 2)
		p.Parallelism = 1
		p.Cache = NewPriceCache()
		pr, err := Prepare(p)
		if err != nil {
			t.Fatal(err)
		}
		lb := pr.LowerBound()
		var res *Result
		solve := testing.AllocsPerRun(10, func() {
			if res, err = pr.Solve(); err != nil {
				t.Fatal(err)
			}
		})
		if lb > res.CommBytes*(1+1e-9) {
			t.Errorf("%s: bound %v above the optimum %v", cfg, lb, res.CommBytes)
		}
		if len(res.evals) != len(pr.sl.ordered) {
			t.Fatalf("%s: result holds %d evaluators, prepared %d", cfg, len(res.evals), len(pr.sl.ordered))
		}
		for i, ev := range res.evals {
			if ev != pr.sl.ordered[i] {
				t.Fatalf("%s: slot %d was solved on a rebuilt evaluator", cfg, i)
			}
		}
		if res.TensorCut != nil || res.OpStrategy != nil || res.OpComm != nil {
			t.Fatalf("%s: Solve filled dense tables nobody asked for", cfg)
		}
		if solve > solveCeiling {
			t.Errorf("%s (%d slots): Solve on a Prepared allocates %v objects, ceiling %d",
				cfg, len(pr.sl.ordered), solve, solveCeiling)
		}
		t.Logf("%s: %d slots, %d nodes, %d tensors: Solve allocates %v objects",
			cfg, len(pr.sl.ordered), len(m.G.Nodes), len(m.G.Tensors), solve)
	}
}
