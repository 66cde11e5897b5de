package dp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"tofu/internal/coarsen"
	"tofu/internal/models"
	"tofu/internal/partition"
	"tofu/internal/shape"
)

func problemFor(t testing.TB, m *models.Model, k int64) *Problem {
	t.Helper()
	c, err := coarsen.Coarsen(m.G)
	if err != nil {
		t.Fatal(err)
	}
	shapes := make(map[int]shape.Shape, len(m.G.Tensors))
	for _, ten := range m.G.Tensors {
		shapes[ten.ID] = ten.Shape.Clone()
	}
	return &Problem{Coarse: c, K: k, Shapes: shapes, DType: shape.Float32}
}

// solveDense is Solve with the dense tables filled, for the tests that read
// them.
func solveDense(t testing.TB, p *Problem) *Result {
	t.Helper()
	res, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.TensorCut != nil || res.OpStrategy != nil || res.OpComm != nil {
		t.Fatal("Solve filled dense tables nobody asked for")
	}
	if err := res.Materialize(); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSolveBasics(t *testing.T) {
	m, err := models.MLP(2, 256, 32)
	if err != nil {
		t.Fatal(err)
	}
	p := problemFor(t, m, 2)
	res := solveDense(t, p)
	if res.CommBytes < 0 {
		t.Fatal("negative cost")
	}
	// Every referenced variable decided; every op has a strategy and comm.
	for _, v := range p.Coarse.Vars {
		if v.First < 0 {
			continue
		}
		if _, ok := res.VarCut[v.ID]; !ok {
			t.Errorf("variable %v undecided", v)
		}
	}
	for _, n := range m.G.Nodes {
		if res.OpStrategy[n.ID].Axis == "" {
			t.Errorf("node %v has no strategy", n)
		}
	}
	// Total cost equals the sum of per-op parts.
	sum := 0.0
	counted := map[int]bool{}
	for _, n := range m.G.Nodes {
		if counted[n.ID] {
			continue
		}
		counted[n.ID] = true
		sum += res.OpComm[n.ID].Total()
	}
	if math.Abs(sum-res.CommBytes) > 1e-6*(1+res.CommBytes) {
		t.Fatalf("per-op comm %g != total %g", sum, res.CommBytes)
	}
}

// bruteForce returns the cheapest total over every variable assignment, or
// false when the problem has more than 12 variables.
func bruteForce(t *testing.T, p *Problem) (float64, bool) {
	t.Helper()
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	var vars []int
	for _, v := range p.Coarse.Vars {
		if v.First >= 0 {
			vars = append(vars, v.ID)
		}
	}
	if len(vars) > 12 {
		return 0, false
	}
	best := math.Inf(1)
	var walk func(idx int, assign map[int]int)
	walk = func(idx int, assign map[int]int) {
		if idx == len(vars) {
			c, err := ev.Total(assign)
			if err != nil {
				t.Fatal(err)
			}
			if c < best {
				best = c
			}
			return
		}
		for _, d := range ev.Configs(vars[idx]) {
			assign[vars[idx]] = d
			walk(idx+1, assign)
		}
		delete(assign, vars[idx])
	}
	walk(0, map[int]int{})
	return best, true
}

// TestSolveIsOptimal cross-checks the frontier DP against brute force over
// all variable assignments: on a small model, and on the seeded random
// graphs of the sweep oracle that have at most 12 variables (the "DP optimum
// = brute force" metamorphic relation).
func TestSolveIsOptimal(t *testing.T) {
	m, err := models.MLP(1, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	problems := map[string]*Problem{"mlp-1-64": problemFor(t, m, 2)}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 240; i++ {
		g := randomGraph(rng)
		problems[fmt.Sprintf("random-%d k=2", i)] = graphProblem(t, g, 2)
		problems[fmt.Sprintf("random-%d k=3", i)] = graphProblem(t, g, 3)
	}
	checked := 0
	for name, p := range problems {
		best, ok := bruteForce(t, p)
		if !ok {
			continue
		}
		checked++
		res, err := Solve(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(best-res.CommBytes) > 1e-6*(1+best) {
			t.Fatalf("%s: DP found %g, brute force found %g", name, res.CommBytes, best)
		}
	}
	if checked < 200 {
		t.Fatalf("brute force covered only %d problems, want >= 200", checked)
	}
}

func TestEvaluateMatchesSolveAtOptimum(t *testing.T) {
	m, err := models.MLP(2, 256, 32)
	if err != nil {
		t.Fatal(err)
	}
	p := problemFor(t, m, 2)
	res, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(p, res.VarCut)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ev.CommBytes-res.CommBytes) > 1e-6*(1+res.CommBytes) {
		t.Fatalf("Evaluate %g != Solve %g", ev.CommBytes, res.CommBytes)
	}
}

func TestStrategyFilter(t *testing.T) {
	m, err := models.MLP(2, 256, 32)
	if err != nil {
		t.Fatal(err)
	}
	p := problemFor(t, m, 2)
	p.StrategyFilter = func(s partition.Strategy) bool { return s.Kind != partition.SplitReduce }
	res := solveDense(t, p)
	for _, s := range res.OpStrategy {
		if s.Kind == partition.SplitReduce {
			t.Fatal("filter violated")
		}
	}
	full := problemFor(t, m, 2)
	fres, err := Solve(full)
	if err != nil {
		t.Fatal(err)
	}
	if res.CommBytes < fres.CommBytes-1 {
		t.Fatalf("restricted search %g beat full %g", res.CommBytes, fres.CommBytes)
	}
}

func TestSolveRejectsK1(t *testing.T) {
	m, err := models.MLP(1, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(problemFor(t, m, 1)); err == nil {
		t.Fatal("expected K>=2 error")
	}
}

func TestSolveIndivisible(t *testing.T) {
	// Odd extents everywhere: no dimension divides 2.
	m, err := models.MLP(1, 63, 15)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(problemFor(t, m, 2)); err == nil {
		t.Fatal("expected indivisible error")
	}
}

func TestEvaluatorIncremental(t *testing.T) {
	m, err := models.MLP(2, 256, 32)
	if err != nil {
		t.Fatal(err)
	}
	p := problemFor(t, m, 2)
	ev, err := NewEvaluator(p)
	if err != nil {
		t.Fatal(err)
	}
	assign := map[int]int{}
	for _, v := range p.Coarse.Vars {
		if v.First < 0 {
			continue
		}
		assign[v.ID] = ev.Configs(v.ID)[0]
	}
	total, err := ev.Total(assign)
	if err != nil {
		t.Fatal(err)
	}
	// Sum of VarCost double counts slots shared between variables, so each
	// variable's incident cost is bounded by the total but their sum is at
	// least the total.
	sum := 0.0
	for id := range assign {
		c, err := ev.VarCost(id, assign)
		if err != nil {
			t.Fatal(err)
		}
		if c > total+1e-6 {
			t.Fatalf("VarCost %g exceeds total %g", c, total)
		}
		sum += c
	}
	if sum < total-1e-6 {
		t.Fatalf("incident costs %g below total %g", sum, total)
	}
}

func TestSolveFlatCompletesOnTinyModel(t *testing.T) {
	m, err := models.MLP(1, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	p := problemFor(t, m, 8)
	rep, err := SolveFlat(p, []int64{2, 2, 2}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatalf("tiny flat search did not complete: %+v", rep)
	}
	if rep.CommBytes <= 0 {
		t.Fatal("flat search found free plan")
	}
	// Flat multi-dimensional search must be at least as good as any fixed
	// recursive plan's cost on the same model... and never worse than the
	// single-dim search by construction of its search space.
	if rep.TotalConfigs < float64(rep.Evaluated) {
		t.Fatalf("bookkeeping: evaluated %d > total %g", rep.Evaluated, rep.TotalConfigs)
	}
}

func TestSolveFlatBudgetExtrapolates(t *testing.T) {
	m, err := models.RNN(2, 1024, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := problemFor(t, m, 8)
	rep, err := SolveFlat(p, []int64{2, 2, 2}, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed {
		t.Skip("machine too fast; nothing to extrapolate")
	}
	if rep.EstimatedTotal <= 0 || rep.Evaluated == 0 {
		t.Fatalf("no extrapolation: %+v", rep)
	}
}

// TestPriceCacheReuse asserts the pricing cache is exact: a Solve with a
// warm cache returns the same result as a cold one, the cache is populated
// once per distinct slot signature, and per-step strategy filters still
// apply (they restrict the cached full enumeration).
func TestPriceCacheReuse(t *testing.T) {
	m, err := models.MLP(2, 256, 32)
	if err != nil {
		t.Fatal(err)
	}
	cold := problemFor(t, m, 2)
	want, err := Solve(cold)
	if err != nil {
		t.Fatal(err)
	}

	cache := NewPriceCache()
	first := problemFor(t, m, 2)
	first.Cache = cache
	got1, err := Solve(first)
	if err != nil {
		t.Fatal(err)
	}
	_, entries := cache.Stats()
	if entries == 0 {
		t.Fatal("cache not populated")
	}
	second := problemFor(t, m, 2)
	second.Cache = cache
	got2, err := Solve(second)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := cache.Stats(); misses != entries {
		t.Fatalf("second identical solve grew the cache: %d -> %d pricings built", entries, misses)
	}
	for _, got := range []*Result{got1, got2} {
		if got.CommBytes != want.CommBytes {
			t.Fatalf("cached solve cost %g != cold %g", got.CommBytes, want.CommBytes)
		}
		for id, dim := range want.VarCut {
			if got.VarCut[id] != dim {
				t.Fatalf("cached solve cut var %d along %d, cold chose %d", id, got.VarCut[id], dim)
			}
		}
	}

	// The same cache serves a filtered search: filters must still hold.
	filtered := problemFor(t, m, 2)
	filtered.Cache = cache
	filtered.StrategyFilter = func(s partition.Strategy) bool { return s.Kind != partition.SplitReduce }
	fres := solveDense(t, filtered)
	for _, s := range fres.OpStrategy {
		if s.Kind == partition.SplitReduce {
			t.Fatal("cached pricing leaked a filtered strategy")
		}
	}
}

// TestSolveParallelMatchesSerial checks Solve itself (not just the
// recursive driver) is parallelism-invariant, including States/Configs
// search-effort accounting.
func TestSolveParallelMatchesSerial(t *testing.T) {
	m, err := models.RNN(2, 512, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	serial := problemFor(t, m, 2)
	serial.Parallelism = 1
	want, err := Solve(serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 8} {
		p := problemFor(t, m, 2)
		p.Parallelism = par
		got, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if got.CommBytes != want.CommBytes || got.States != want.States || got.Configs != want.Configs {
			t.Fatalf("parallelism %d: (cost, states, configs) = (%g, %d, %d), want (%g, %d, %d)",
				par, got.CommBytes, got.States, got.Configs, want.CommBytes, want.States, want.Configs)
		}
		for id, dim := range want.VarCut {
			if got.VarCut[id] != dim {
				t.Fatalf("parallelism %d: var %d cut %d, want %d", par, id, got.VarCut[id], dim)
			}
		}
	}
}
