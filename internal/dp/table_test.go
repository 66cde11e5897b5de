package dp

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"testing"

	"tofu/internal/graph"
	"tofu/internal/models"
	"tofu/internal/partition"
	"tofu/internal/shape"
)

// TestTablesMatchDirectPricing is the differential test for the dense slot
// tables: on randomized assignments over small graphs of every benchmark
// family, the table lookup must agree exactly with the legacy per-call
// pricing (partition.Priced.Best on the assignment's cuts).
func TestTablesMatchDirectPricing(t *testing.T) {
	builds := []struct {
		name  string
		build func() (*models.Model, error)
	}{
		{"mlp", func() (*models.Model, error) { return models.MLP(2, 64, 16) }},
		{"rnn", func() (*models.Model, error) { return models.RNN(2, 128, 16, 4) }},
		{"wresnet", func() (*models.Model, error) { return models.WResNet(50, 2, 8) }},
	}
	rng := rand.New(rand.NewSource(42))
	for _, b := range builds {
		m, err := b.build()
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int64{2, 4, 8} {
			p := problemFor(t, m, k)
			sl, err := prepareSlotEvals(p)
			if err != nil {
				t.Fatalf("%s k=%d: %v", b.name, k, err)
			}
			for trial := 0; trial < 16; trial++ {
				// Random assignment over each variable's alphabet.
				assign := map[int]int{}
				for _, v := range p.Coarse.Vars {
					if v.First < 0 {
						continue
					}
					dims := sl.alphas[v.ID].dims
					assign[v.ID] = dims[rng.Intn(len(dims))]
				}
				for _, ev := range sl.ordered {
					si, cost, err := ev.best(assign)
					if err != nil {
						t.Fatalf("%s k=%d: %v", b.name, k, err)
					}
					// Legacy per-call pricing: cuts straight from the
					// assignment, best strategy from the restricted
					// enumeration, multiplied by the slot multiplicity.
					inCuts := make([]partition.Cut, len(ev.inVars))
					for i, v := range ev.inVars {
						inCuts[i] = partition.Cut{Dim: assign[v.ID]}
					}
					wantSi, wantCost := ev.priced.Best(inCuts, partition.Cut{Dim: assign[ev.outVar.ID]})
					if si != wantSi || cost != wantCost*ev.mult {
						t.Fatalf("%s k=%d slot %v assign %v: table (%d, %g) != direct (%d, %g)",
							b.name, k, ev.slot.Rep(), assign, si, cost, wantSi, wantCost*ev.mult)
					}
				}
				// Evaluate's total must equal the direct per-slot sum.
				res, err := Evaluate(p, assign)
				if err != nil {
					t.Fatal(err)
				}
				sum := 0.0
				for _, ev := range sl.ordered {
					inCuts := make([]partition.Cut, len(ev.inVars))
					for i, v := range ev.inVars {
						inCuts[i] = partition.Cut{Dim: assign[v.ID]}
					}
					_, c := ev.priced.Best(inCuts, partition.Cut{Dim: assign[ev.outVar.ID]})
					sum += c * ev.mult
				}
				if math.Abs(res.CommBytes-sum) > 1e-9*(1+sum) {
					t.Fatalf("%s k=%d: Evaluate %g != direct sum %g", b.name, k, res.CommBytes, sum)
				}
			}
		}
	}
}

// TestEvalReuseMatchesFresh drives two consecutive equal-factor steps the
// way the recursive driver does — solve, divide shapes, solve again — and
// checks the reused evaluators produce exactly the fresh ones' result.
func TestEvalReuseMatchesFresh(t *testing.T) {
	m, err := models.RNN(2, 512, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	step := func(reuse *EvalReuse, shapes map[int]shape.Shape) *Result {
		t.Helper()
		p := problemFor(t, m, 2)
		p.Shapes = shapes
		p.Reuse = reuse
		return solveDense(t, p)
	}
	divide := func(shapes map[int]shape.Shape, res *Result) map[int]shape.Shape {
		t.Helper()
		next := make(map[int]shape.Shape, len(shapes))
		for tid, s := range shapes {
			next[tid] = s.Clone()
		}
		for tid, dim := range res.TensorCut {
			if dim < 0 {
				continue
			}
			if err := next[tid].SplitInPlace(dim, 2); err != nil {
				t.Fatal(err)
			}
		}
		return next
	}
	orig := func() map[int]shape.Shape {
		shapes := make(map[int]shape.Shape, len(m.G.Tensors))
		for _, ten := range m.G.Tensors {
			shapes[ten.ID] = ten.Shape.Clone()
		}
		return shapes
	}

	reuse := &EvalReuse{}
	r1 := step(reuse, orig())
	divided := divide(orig(), r1)
	got := step(reuse, divided)

	fresh1 := step(nil, orig())
	want := step(nil, divide(orig(), fresh1))

	if got.CommBytes != want.CommBytes || got.States != want.States || got.Configs != want.Configs {
		t.Fatalf("reused step: (cost, states, configs) = (%g, %d, %d), fresh = (%g, %d, %d)",
			got.CommBytes, got.States, got.Configs, want.CommBytes, want.States, want.Configs)
	}
	for id, dim := range want.VarCut {
		if got.VarCut[id] != dim {
			t.Fatalf("reused step cut var %d along %d, fresh chose %d", id, got.VarCut[id], dim)
		}
	}
	sameTables(t, "reused step", got, want)
}

// TestStepMemoMatch pins what the step memo treats as identical sweep inputs.
// Two preparations of one problem through one PriceCache match, and the
// replay equals the sweep while owning its VarCut and this step's evaluators;
// a division that drops a cut dimension, another K and another MaxStates do
// not match. The match allocates nothing. A lazily priced slot matches only
// its own evaluator. With the table budget at 0 every
// table is filled for its evaluator alone: a chain still replays through the
// evaluators EvalReuse carries, and a freshly prepared step never matches.
func TestStepMemoMatch(t *testing.T) {
	const s = 12
	g := graph.New()
	g.Apply("matmul", nil, g.Input("x", shape.Of(s, s)), g.Input("w", shape.Of(s, s)))
	base := graphProblem(t, g, 2)
	base.Cache = NewPriceCache()
	prepare := func(tweak func(*Problem)) *Prepared {
		t.Helper()
		p := *base
		p.Shapes = maps.Clone(base.Shapes)
		if tweak != nil {
			tweak(&p)
		}
		pr, err := Prepare(&p)
		if err != nil {
			t.Fatal(err)
		}
		return pr
	}
	var memo StepMemo
	first, again := prepare(nil), prepare(nil)
	want, replayed, err := memo.Solve(first)
	if err != nil || replayed {
		t.Fatalf("first solve: replayed %v, %v", replayed, err)
	}
	got, replayed, err := memo.Solve(again)
	if err != nil || !replayed {
		t.Fatalf("a second preparation of one problem: replayed %v, %v", replayed, err)
	}
	sameSearch(t, "replay", got, want)
	if got.VarCut[-1] = 0; len(want.VarCut) == len(got.VarCut) {
		t.Error("the replay shares the recorded VarCut")
	}
	delete(got.VarCut, -1)
	if &got.evals[0] != &again.sl.ordered[0] {
		t.Error("the replay is not on its own step's evaluators")
	}
	if err := got.Materialize(); err != nil {
		t.Fatal(err)
	}
	if err := want.Materialize(); err != nil {
		t.Fatal(err)
	}
	sameTables(t, "replay", got, want)
	if allocs := testing.AllocsPerRun(100, func() { sameSweep(first, again) }); allocs != 0 {
		t.Errorf("the match allocates %v objects", allocs)
	}
	lazyA, lazyB := prepare(nil), prepare(nil)
	for _, pr := range []*Prepared{lazyA, lazyB} {
		for _, ev := range pr.sl.ordered {
			ev.costT, ev.bestT, ev.memo = nil, nil, map[int]slotBest{}
		}
	}
	if sameSweep(lazyA, lazyB) || !sameSweep(lazyA, &Prepared{p: lazyB.p, sl: lazyA.sl}) {
		t.Error("a lazily priced slot must match its own evaluator and no other")
	}

	for _, tc := range []struct {
		name  string
		tweak func(*Problem)
	}{
		{"x's dim 0 exhausted by a division", func(p *Problem) { p.Shapes[0] = shape.Of(3, s) }},
		{"K 3", func(p *Problem) { p.K = 3 }},
		{"MaxStates 1", func(p *Problem) { p.MaxStates = 1 }},
	} {
		pr := prepare(tc.tweak)
		if sameSweep(first, pr) {
			t.Errorf("%s: matches the base step", tc.name)
		}
		if _, replayed, err := memo.Solve(pr); err != nil || replayed {
			t.Errorf("%s: replayed %v, %v", tc.name, replayed, err)
		}
	}

	m, err := models.Build(models.Config{Family: "mlp", Depth: 3, Width: 96, Batch: 24})
	if err != nil {
		t.Fatal(err)
	}
	p := problemFor(t, m, 2)
	p.Cache, p.Reuse = NewPriceCache(), &EvalReuse{}
	p.Cache.tableBudget = 0
	var chain StepMemo
	replays := 0
	for step := 1; step <= 3; step++ {
		fresh := *p
		fresh.Reuse = nil
		freshPr, err := Prepare(&fresh)
		if err != nil {
			t.Fatal(err)
		}
		if chain.lookup(freshPr) != nil {
			t.Errorf("step %d: a freshly prepared step matches a recorded one", step)
		}
		pr, err := Prepare(p)
		if err != nil {
			t.Fatal(err)
		}
		res, replayed, err := chain.Solve(pr)
		if err != nil {
			t.Fatal(err)
		}
		if replayed {
			replays++
			sweep, err := freshPr.Solve()
			if err != nil {
				t.Fatal(err)
			}
			sameSearch(t, fmt.Sprintf("step %d", step), res, sweep)
		}
		if err := res.Materialize(); err != nil {
			t.Fatal(err)
		}
		for tid, dim := range res.TensorCut {
			if dim >= 0 {
				if err := p.Shapes[tid].SplitInPlace(dim, 2); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if _, _, bytes := p.Cache.TableStats(); bytes != 0 || replays != 2 {
		t.Errorf("budget 0: %d table bytes retained, %d of steps 2-3 replayed; want none and both", bytes, replays)
	}
}
