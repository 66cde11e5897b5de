package dp

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"testing"

	"tofu/internal/coarsen"
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
					inCuts := make([]partition.Cut, len(ev.slot.In))
					for i, v := range ev.slot.In {
						inCuts[i] = partition.Cut{Dim: assign[v.ID]}
					}
					wantSi, wantCost := ev.priced.Best(inCuts, partition.Cut{Dim: assign[ev.slot.Out.ID]})
					if si != wantSi || cost != wantCost*ev.mult() {
						t.Fatalf("%s k=%d slot %v assign %v: table (%d, %g) != direct (%d, %g)",
							b.name, k, ev.slot.Rep(), assign, si, cost, wantSi, wantCost*ev.mult())
					}
				}
				// Evaluate's total must equal the direct per-slot sum.
				res, err := Evaluate(p, assign)
				if err != nil {
					t.Fatal(err)
				}
				sum := 0.0
				for _, ev := range sl.ordered {
					inCuts := make([]partition.Cut, len(ev.slot.In))
					for i, v := range ev.slot.In {
						inCuts[i] = partition.Cut{Dim: assign[v.ID]}
					}
					_, c := ev.priced.Best(inCuts, partition.Cut{Dim: assign[ev.slot.Out.ID]})
					sum += c * ev.mult()
				}
				if math.Abs(res.CommBytes-sum) > 1e-9*(1+sum) {
					t.Fatalf("%s k=%d: Evaluate %g != direct sum %g", b.name, k, res.CommBytes, sum)
				}
			}
		}
	}
}

// TestDenseTablesMatchBest holds every dense table the filler writes to one
// filled entry by entry through the legacy pricing (slotEval.price: the
// index decoded by division, Priced.Best on the cuts, times the
// multiplicity): the same strategy index and cost bits at every entry, and
// the same minimum. Every slot of the benchmark families at K = 2, 3 and 4,
// filled with no price cache.
func TestDenseTablesMatchBest(t *testing.T) {
	builds := []func() (*models.Model, error){
		func() (*models.Model, error) { return models.MLP(2, 96, 24) },
		func() (*models.Model, error) { return models.RNN(2, 96, 24, 4) },
		func() (*models.Model, error) { return models.WResNet(50, 2, 24) },
		func() (*models.Model, error) {
			return models.Build(models.Config{Family: "transformer", Depth: 2, Width: 96, Batch: 24})
		},
	}
	entries := 0
	for _, build := range builds {
		m, err := build()
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int64{2, 3, 4} {
			p := problemFor(t, m, k)
			sl, err := prepareSlotEvals(p)
			if err != nil {
				continue // no dimension divides k ways
			}
			for _, ev := range sl.ordered {
				if ev.t == nil {
					continue
				}
				inCuts := make([]partition.Cut, len(ev.slot.In))
				least := math.Inf(1)
				for ti, cost := range ev.t.costT {
					si, want := ev.price(ti, inCuts)
					if ev.t.bestT[ti] != si || math.Float64bits(cost) != math.Float64bits(want) {
						t.Fatalf("%s k=%d slot %v entry %d: table (%d, %v), Best (%d, %v)",
							m.Name, k, ev.slot.Rep(), ti, ev.t.bestT[ti], cost, si, want)
					}
					least = min(least, want)
					entries++
				}
				if math.Float64bits(ev.t.minCost) != math.Float64bits(least) {
					t.Fatalf("%s k=%d slot %v: minCost %v, least entry %v", m.Name, k, ev.slot.Rep(), ev.t.minCost, least)
				}
			}
		}
	}
	t.Logf("%d entries", entries)
}

// TestStepMemoMatch pins what the step memo shares. Two preparations of one
// problem through one memo share a slot set, and the second solve replays
// the first while owning its VarCut; a division that drops a cut dimension
// and another K prepare anew, and another MaxStates shares the set but
// sweeps. Building a key and a hit allocate only the hit's Prepared. The
// memo refuses a second coarsening, a transient segment at the address of
// the first included. With the table budget at 0, so that no table is
// shared by key, a chain still replays through the shared set.
func TestStepMemoMatch(t *testing.T) {
	const s = 12
	g := graph.New()
	g.Apply("matmul", nil, g.Input("x", shape.Of(s, s)), g.Input("w", shape.Of(s, s)))
	base := graphProblem(t, g, 2)
	base.Cache = NewPriceCache()
	var memo StepMemo
	prepare := func(tweak func(*Problem)) (*Prepared, bool) {
		t.Helper()
		p := *base
		p.Shapes = maps.Clone(base.Shapes)
		if tweak != nil {
			tweak(&p)
		}
		pr, hit, err := memo.Prepare(&p)
		if err != nil {
			t.Fatal(err)
		}
		return pr, hit
	}
	first, hit := prepare(nil)
	if hit {
		t.Fatal("the first preparation is a hit")
	}
	again, hit := prepare(nil)
	if !hit || again.sl != first.sl || again.p == first.p {
		t.Fatalf("a second preparation of one problem: hit %v, shared set %v, own problem %v",
			hit, again.sl == first.sl, again.p != first.p)
	}
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
	if err := got.Materialize(); err != nil {
		t.Fatal(err)
	}
	if err := want.Materialize(); err != nil {
		t.Fatal(err)
	}
	sameTables(t, "replay", got, want)
	key := make([]byte, 0, 64)
	if allocs := testing.AllocsPerRun(100, func() { key, _ = appendStepKey(key[:0], again.p) }); allocs != 0 {
		t.Errorf("building a key allocates %v objects", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { memo.Prepare(again.p) }); allocs != 1 {
		t.Errorf("a hit allocates %v objects, want 1 (its Prepared)", allocs)
	}

	for _, tc := range []struct {
		name  string
		tweak func(*Problem)
		hit   bool
	}{
		{"x's dim 0 exhausted by a division", func(p *Problem) { p.Shapes[0] = shape.Of(3, s) }, false},
		{"K 3", func(p *Problem) { p.K = 3 }, false},
		{"MaxStates 1", func(p *Problem) { p.MaxStates = 1 }, true},
	} {
		pr, hit := prepare(tc.tweak)
		if hit != tc.hit || (pr.sl == first.sl) != tc.hit {
			t.Errorf("%s: hit %v, shares the base set %v; want %v", tc.name, hit, pr.sl == first.sl, tc.hit)
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
	if _, _, err := memo.Prepare(p); err == nil {
		t.Error("a memo prepared a step on a second coarsening")
	}
	var sc coarsen.SegmentScratch
	var seg StepMemo
	for i, iv := range [][2]int{{0, 2}, {1, 3}} {
		c, err := p.Coarse.SegmentTransient(iv[0], iv[1], &sc)
		if err != nil {
			t.Fatal(err)
		}
		q := *p
		q.Coarse = c
		if _, _, err := seg.Prepare(&q); (err == nil) != (i == 0) {
			t.Errorf("segment %v into one scratch: %v", iv, err)
		}
	}

	p.Cache = NewPriceCache()
	p.Cache.tableBudget = 0
	var chain StepMemo
	replays := 0
	for step := 1; step <= 3; step++ {
		fresh := *p
		fresh.Cache = nil
		freshPr, err := Prepare(&fresh)
		if err != nil {
			t.Fatal(err)
		}
		pr, _, err := chain.Prepare(p)
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
