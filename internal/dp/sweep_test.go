package dp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"tofu/internal/coarsen"
	"tofu/internal/graph"
	"tofu/internal/models"
	"tofu/internal/shape"
)

// refState is one frontier state of the reference sweep.
type refState struct {
	key           string
	cost          float64
	parent, combo int
}

// sweepReference is the sweep as it ran before group cost tables, kept as
// the differential oracle for the kernel in sweep.go: every (state ×
// combination) pair re-derives each slot's table index from a digit array
// indexed by variable ID, sums the slots in order, packs the live digits
// into a byte key and keeps the strictly cheaper candidate in a map.
// Frontiers are sorted key lists at every width (the legacy order dense and
// byte-keyed frontiers both reproduce), the beam keeps the first MaxStates
// by (cost, state order), and the pool is serial. It fills CommBytes,
// VarCut, States and Configs.
func sweepReference(p *Problem) (*Result, error) {
	q := *p
	q.Trace = nil
	sl, err := prepareSlotEvals(&q)
	if err != nil {
		return nil, err
	}
	c := p.Coarse
	res := &Result{VarCut: map[int]int{}}
	digit := make([]uint8, len(c.Vars))
	states := []refState{{}}
	trace := make([][]refState, len(c.Groups))
	var live []*coarsen.Var
	for gi, g := range c.Groups {
		radix := make([]int, len(g.NewVars))
		nCombos := 1
		for j, v := range g.NewVars {
			radix[j] = len(sl.alphas[v.ID].dims)
			nCombos *= radix[j]
		}
		best := map[string]refState{}
		key := make([]byte, len(g.LiveAfter))
		for si, st := range states {
			for j, v := range live {
				digit[v.ID] = st.key[j]
			}
			for ci := 0; ci < nCombos; ci++ {
				rem := ci
				for j := len(g.NewVars) - 1; j >= 0; j-- {
					digit[g.NewVars[j].ID] = uint8(rem % radix[j])
					rem /= radix[j]
				}
				cost := 0.0
				for _, ev := range sl.byGroup[gi] {
					ti := 0
					for j, v := range ev.tvars {
						ti += ev.tstride[j] * int(digit[v.ID])
					}
					_, sc := ev.bestAt(ti)
					cost += sc
				}
				cost = st.cost + cost
				for j, v := range g.LiveAfter {
					key[j] = digit[v.ID]
				}
				if old, ok := best[string(key)]; !ok || cost < old.cost {
					best[string(key)] = refState{key: string(key), cost: cost, parent: si, combo: ci}
				}
			}
		}
		res.Configs += len(states) * nCombos
		next := make([]refState, 0, len(best))
		for _, st := range best {
			next = append(next, st)
		}
		sort.Slice(next, func(a, b int) bool { return next[a].key < next[b].key })
		if p.MaxStates > 0 && len(next) > p.MaxStates {
			order := make([]int, len(next))
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(a, b int) bool {
				if next[order[a]].cost != next[order[b]].cost {
					return next[order[a]].cost < next[order[b]].cost
				}
				return order[a] < order[b]
			})
			keep := order[:p.MaxStates]
			sort.Ints(keep)
			kept := make([]refState, len(keep))
			for o, i := range keep {
				kept[o] = next[i]
			}
			next = kept
		}
		if len(next) == 0 {
			return nil, fmt.Errorf("reference: no feasible assignment at group %d", gi)
		}
		res.States += len(next)
		trace[gi], states, live = next, next, g.LiveAfter
	}
	cur := 0
	for i, st := range states {
		if st.cost < states[cur].cost {
			cur = i
		}
	}
	res.CommBytes = states[cur].cost
	for gi := len(c.Groups) - 1; gi >= 0; gi-- {
		st := trace[gi][cur]
		nv := c.Groups[gi].NewVars
		rem := st.combo
		for j := len(nv) - 1; j >= 0; j-- {
			dims := sl.alphas[nv[j].ID].dims
			res.VarCut[nv[j].ID] = dims[rem%len(dims)]
			rem /= len(dims)
		}
		cur = st.parent
	}
	return res, nil
}

// graphProblem is problemFor for a bare graph.
func graphProblem(t testing.TB, g *graph.Graph, k int64) *Problem {
	t.Helper()
	c, err := coarsen.Coarsen(g)
	if err != nil {
		t.Fatal(err)
	}
	shapes := make(map[int]shape.Shape, len(g.Tensors))
	for _, ten := range g.Tensors {
		shapes[ten.ID] = ten.Shape.Clone()
	}
	return &Problem{Coarse: c, K: k, Shapes: shapes, DType: shape.Float32}
}

// fanGraph is a forward graph whose boundary outgrows denseStateLimit: n
// branches off one input stay live together until a matmul chain joins them
// one at a time, so the frontier climbs past 2^n states at K = 2 and the
// sweep crosses dense → byte-keyed → dense boundaries on the way. Branches
// share weights in pairs, and the weights are created first: a weight is a
// new variable that stays live one more group and sorts before the branches
// already live, so byte-keyed boundaries get keys out of sweep order.
func fanGraph(n int) *graph.Graph {
	const s = 12
	g := graph.New()
	x := g.Input("x", shape.Of(s, s))
	ws := make([]*graph.Tensor, (n+1)/2)
	for i := range ws {
		ws[i] = g.Weight(fmt.Sprintf("w%d", i), shape.Of(s, s))
	}
	ys := make([]*graph.Tensor, n)
	for i := range ys {
		ys[i] = g.Apply("matmul", nil, x, ws[i/2])
	}
	z := ys[0]
	for _, y := range ys[1:] {
		z = g.Apply("matmul", nil, z, y)
	}
	return g
}

// randomGraph draws a small forward DAG over 12×12 tensors (divisible by 2
// and 3): weight and tensor-tensor matmuls in all three layouts, element-wise
// ops that coalesce variables, bias adds and transposes, with operands drawn
// from everything built so far — so slots repeat variables, variables stay
// live across several groups and some are never consumed.
func randomGraph(rng *rand.Rand) *graph.Graph {
	const s = 12
	g := graph.New()
	pool := []*graph.Tensor{g.Input("x", shape.Of(s, s))}
	pick := func() *graph.Tensor { return pool[rng.Intn(len(pool))] }
	for i, n := 0, 3+rng.Intn(7); i < n; i++ {
		var out *graph.Tensor
		switch rng.Intn(6) {
		case 0:
			out = g.Apply("matmul", nil, pick(), g.Weight(fmt.Sprintf("w%d", i), shape.Of(s, s)))
		case 1:
			out = g.Apply([]string{"matmul", "matmul_nt", "matmul_tn"}[rng.Intn(3)], nil, pick(), pick())
		case 2:
			out = g.Apply([]string{"relu", "tanh"}[rng.Intn(2)], nil, pick())
		case 3:
			out = g.Apply([]string{"add", "mul"}[rng.Intn(2)], nil, pick(), pick())
		case 4:
			out = g.Apply("bias_add", nil, pick(), g.Weight(fmt.Sprintf("b%d", i), shape.Of(s)))
		case 5:
			out = g.Apply("transpose", nil, pick())
		}
		pool = append(pool, out)
	}
	return g
}

// sameOptimum asserts got chose the reference's assignment at a
// bit-identical cost.
func sameOptimum(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if math.Float64bits(got.CommBytes) != math.Float64bits(want.CommBytes) {
		t.Fatalf("%s: cost %v, reference %v", name, got.CommBytes, want.CommBytes)
	}
	if len(got.VarCut) != len(want.VarCut) {
		t.Fatalf("%s: %d variables cut, reference %d", name, len(got.VarCut), len(want.VarCut))
	}
	for id, dim := range want.VarCut {
		if d, ok := got.VarCut[id]; !ok || d != dim {
			t.Fatalf("%s: var %d cut %d (decided %v), reference %d", name, id, d, ok, dim)
		}
	}
}

// sameSearch asserts got is bit-identical to the reference in everything the
// sweep decides, effort counters included.
func sameSearch(t *testing.T, name string, got, want *Result) {
	t.Helper()
	sameOptimum(t, name, got, want)
	if got.States != want.States || got.Configs != want.Configs {
		t.Fatalf("%s: (states, configs) = (%d, %d), reference (%d, %d)",
			name, got.States, got.Configs, want.States, want.Configs)
	}
}

// noMoreEffort asserts got explored no more states and configurations than
// the reference.
func noMoreEffort(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got.States > want.States || got.Configs > want.Configs {
		t.Fatalf("%s: (states, configs) = (%d, %d), above the reference's (%d, %d)",
			name, got.States, got.Configs, want.States, want.Configs)
	}
}

// checkSweep runs the kernel against the reference on one coarsened graph,
// under every beam and at every pool size: with the incumbent bound off the
// sweep must match the reference exactly, effort counters included; with
// it as Solve runs it, in its optimum, at no more effort.
func checkSweep(t *testing.T, name string, base *Problem, beams []int) {
	t.Helper()
	for _, beam := range beams {
		ref := *base
		ref.MaxStates = beam
		want, err := sweepReference(&ref)
		if err != nil {
			t.Fatalf("%s beam %d: reference: %v", name, beam, err)
		}
		for _, par := range []int{1, 2, 8} {
			for _, mode := range []boundMode{boundOff, boundGated} {
				p := *base
				p.MaxStates, p.Parallelism, p.bound = beam, par, mode
				got, err := Solve(&p)
				if err != nil {
					t.Fatalf("%s beam %d parallelism %d bound %s: %v", name, beam, par, boundModes[mode], err)
				}
				at := fmt.Sprintf("%s k=%d beam %d parallelism %d bound %s", name, base.K, beam, par, boundModes[mode])
				if mode == boundOff {
					sameSearch(t, at, got, want)
				} else {
					sameOptimum(t, at, got, want)
					noMoreEffort(t, at, got, want)
				}
			}
		}
	}
}

// sweepCase is one coarsened graph of the sweep oracles and the beams it is
// swept under.
type sweepCase struct {
	name  string
	p     *Problem
	beams []int
}

// sweepCases are the sweep oracles' graphs: every benchmark family at two
// factors, exact and beamed (64 and 512, which exercise prune), a graph wide
// enough for byte-keyed frontiers, a narrower fan at K 3 and 240 seeded
// random graphs at K 2 and 3.
func sweepCases(t *testing.T) []sweepCase {
	t.Helper()
	beams := []int{0, 64, 512}
	var cases []sweepCase
	for _, c := range []struct {
		cfg models.Config
		ks  []int64
	}{
		{models.Config{Family: "mlp", Depth: 3, Width: 192, Batch: 48}, []int64{2, 3}},
		{models.Config{Family: "rnn", Depth: 2, Width: 192, Batch: 48}, []int64{2, 3}},
		// WResNet's 1000-class head has no dimension divisible by 3; 5 is
		// its odd factor.
		{models.Config{Family: "wresnet", Depth: 50, Width: 5, Batch: 10}, []int64{2, 5}},
		{models.Config{Family: "transformer", Depth: 2, Width: 192, Batch: 12}, []int64{2, 3}},
	} {
		m, err := models.Build(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range c.ks {
			cases = append(cases, sweepCase{c.cfg.String(), problemFor(t, m, k), beams})
		}
	}

	// Beam 2 leaves fewer live states than touched-variable assignments, so
	// byte-keyed frontiers are swept without a shared table too.
	wide := graphProblem(t, fanGraph(17), 2)
	if w := wide.Coarse.MaxFrontier(); w < 17 {
		t.Fatalf("fan graph frontier is %d variables wide, want >= 17 (> denseStateLimit states)", w)
	}
	cases = append(cases,
		sweepCase{"fan-17", wide, []int{0, 2, 64, 512}},
		sweepCase{"fan-7", graphProblem(t, fanGraph(7), 3), beams})

	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 240; i++ {
		g := randomGraph(rng)
		for _, k := range []int64{2, 3} {
			cases = append(cases, sweepCase{fmt.Sprintf("random-%d", i), graphProblem(t, g, k), []int{0, 3}})
		}
	}
	return cases
}

// TestSweepMatchesReference is the differential oracle for the group-table
// kernel: on every sweepCases graph, exact and beamed, at pool sizes 1, 2
// and 8, Solve returns bit-identical CommBytes, VarCut, States and Configs
// to sweepReference with the incumbent bound off, and the same CommBytes and
// VarCut at no more States or Configs with it on.
func TestSweepMatchesReference(t *testing.T) {
	for _, c := range sweepCases(t) {
		checkSweep(t, c.name, c.p, c.beams)
	}
}

// TestSweepLazySlots forces the lazily priced path (no dense slot table,
// which no model reaches on its own) on every other slot of one preparation,
// checks that sweeps on it still match the fully tabled solve, and checks
// that the lazy path really priced something.
func TestSweepLazySlots(t *testing.T) {
	m, err := models.Build(models.Config{Family: "transformer", Depth: 1, Width: 64, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Lazy slots count 0 towards the incumbent bound's floors, so it prunes
	// less here than on the tabled solve: the effort counters are compared
	// with the bound off.
	p := problemFor(t, m, 2)
	p.bound = boundOff
	tabled := solveDense(t, p)
	pr, err := Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	var blanked []*slotEval
	for i, ev := range pr.sl.ordered {
		if i%2 == 0 {
			ev.t, ev.memo = nil, &lazyMemo{m: map[int]slotBest{}}
			blanked = append(blanked, ev)
		}
	}
	for _, par := range []int{1, 8} {
		for _, mode := range []boundMode{boundOff, boundForced} {
			p.Parallelism, p.bound = par, mode
			got, err := pr.Solve()
			if err != nil {
				t.Fatal(err)
			}
			if err := got.Materialize(); err != nil {
				t.Fatal(err)
			}
			at := fmt.Sprintf("lazy slots, parallelism %d, bound %s", par, boundModes[mode])
			if mode == boundOff {
				sameSearch(t, at, got, tabled)
			} else {
				sameOptimum(t, at, got, tabled)
			}
			sameTables(t, at, got, tabled)
		}
	}
	priced := 0
	for _, ev := range blanked {
		priced += len(ev.memo.m)
	}
	if priced == 0 {
		t.Fatalf("no blanked slot priced lazily (%d blanked): the sweeps never took the lazy path", len(blanked))
	}
}
