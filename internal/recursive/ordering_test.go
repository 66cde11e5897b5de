package recursive

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"tofu/internal/coarsen"
	"tofu/internal/dp"
	"tofu/internal/models"
	"tofu/internal/plan"
	"tofu/internal/shape"
	"tofu/internal/topo"
)

// planJSON renders a plan for byte comparison.
func planBytes(t *testing.T, p *plan.Plan) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// diffCases pairs every profile on which the exhaustive enumeration is
// feasible with a model that exercises it.
func diffCases(t *testing.T) []struct {
	tp  topo.Topology
	cfg models.Config
} {
	t.Helper()
	mk := func(prof string, cfg models.Config) struct {
		tp  topo.Topology
		cfg models.Config
	} {
		tp, err := topo.Profile(prof)
		if err != nil {
			t.Fatal(err)
		}
		return struct {
			tp  topo.Topology
			cfg models.Config
		}{tp, cfg}
	}
	cases := []struct {
		tp  topo.Topology
		cfg models.Config
	}{
		mk("dgx1", models.Config{Family: "rnn", Depth: 2, Width: 1500, Batch: 64}),
		mk("cluster-2x8", models.Config{Family: "rnn", Depth: 2, Width: 1500, Batch: 64}),
		mk("dgx2", models.Config{Family: "rnn", Depth: 2, Width: 3000, Batch: 64}),
		mk("cluster-4x2x8", models.Config{Family: "mlp", Depth: 3, Width: 2048, Batch: 128}),
	}
	if !testing.Short() {
		cases = append(cases,
			mk("cluster-4x2x8", models.Config{Family: "rnn", Depth: 2, Width: 8192, Batch: 128}),
			mk("cluster-4x2x12", models.Config{Family: "rnn", Depth: 4, Width: 3000, Batch: 96}),
			mk("cluster-8x2x8", models.Config{Family: "rnn", Depth: 2, Width: 8192, Batch: 256}),
		)
	}
	return cases
}

// TestOrderingDifferentialByteIdentical is the branch-and-bound contract:
// on every profile where the flat enumeration is feasible, the tree search
// chooses the byte-identical plan, at every parallelism.
func TestOrderingDifferentialByteIdentical(t *testing.T) {
	for _, c := range diffCases(t) {
		m, err := models.Build(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		k := int64(c.tp.NumGPUs())
		var flatStats SearchStats
		ref, err := Partition(m.G, k, Options{Topology: &c.tp, TopoExhaustive: true, Stats: &flatStats})
		if err != nil {
			t.Fatalf("%s/%s: exhaustive: %v", c.tp.Name, c.cfg, err)
		}
		refJSON := planBytes(t, ref)
		for _, par := range []int{1, 2, 8} {
			var st SearchStats
			p, err := Partition(m.G, k, Options{Topology: &c.tp, Parallelism: par, Stats: &st})
			if err != nil {
				t.Fatalf("%s/%s par=%d: %v", c.tp.Name, c.cfg, par, err)
			}
			if !bytes.Equal(planBytes(t, p), refJSON) {
				t.Errorf("%s/%s par=%d: plan differs from exhaustive enumeration", c.tp.Name, c.cfg, par)
			}
			if st.Orderings != flatStats.Orderings {
				t.Errorf("%s/%s: tree sees %d orderings, flat %d", c.tp.Name, c.cfg, st.Orderings, flatStats.Orderings)
			}
			if steps := st.DPSolves + st.Replays; steps >= st.FlatDPSolves && st.FlatDPSolves > st.Orderings {
				t.Errorf("%s/%s: prefix sharing saved nothing (%d dp steps vs %d flat)",
					c.tp.Name, c.cfg, steps, st.FlatDPSolves)
			}
		}
	}
}

// TestOrderingDifferentialBeam repeats the byte-identity contract under
// beam search: with MaxStates set the per-step results are no longer
// optima, so the realized-δ bound tightening must stay off (it would be
// inadmissible) while dp.LowerBound keeps bounding the beam costs.
func TestOrderingDifferentialBeam(t *testing.T) {
	for _, prof := range []string{"dgx2", "cluster-4x2x8"} {
		tp, err := topo.Profile(prof)
		if err != nil {
			t.Fatal(err)
		}
		cfg := models.Config{Family: "rnn", Depth: 2, Width: 3000, Batch: 64}
		if prof == "cluster-4x2x8" {
			cfg = models.Config{Family: "rnn", Depth: 2, Width: 8192, Batch: 128}
		}
		m, err := models.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		k := int64(tp.NumGPUs())
		for _, maxStates := range []int{4, 64} {
			ref, err := Partition(m.G, k, Options{Topology: &tp, TopoExhaustive: true, MaxStates: maxStates})
			if err != nil {
				t.Fatalf("%s maxStates=%d: exhaustive: %v", prof, maxStates, err)
			}
			p, err := Partition(m.G, k, Options{Topology: &tp, MaxStates: maxStates})
			if err != nil {
				t.Fatalf("%s maxStates=%d: %v", prof, maxStates, err)
			}
			if !bytes.Equal(planBytes(t, p), planBytes(t, ref)) {
				t.Errorf("%s maxStates=%d: beam plan differs from exhaustive enumeration", prof, maxStates)
			}
		}
	}
}

// TestOrderingSpaceGuard: a pathological machine fails fast with guidance
// instead of searching (or silently truncating, as the old cap did) —
// including through the exhaustive oracle — while TopologyNaive still
// works.
func TestOrderingSpaceGuard(t *testing.T) {
	hw := topo.DefaultHW()
	hw.NumGPUs = 1 << 16
	monster := topo.Topology{
		Name: "monster",
		HW:   hw,
		Levels: []topo.Level{
			{Name: "l0", GroupSize: 16, Bandwidth: 21e9},
			{Name: "l1", GroupSize: 16, Bandwidth: 12e9},
			{Name: "l2", GroupSize: 16, Bandwidth: 6e9},
			{Name: "l3", GroupSize: 16, Bandwidth: 3.125e9, Network: true},
		},
	}
	if err := monster.Validate(); err != nil {
		t.Fatal(err)
	}
	m, err := models.Build(models.Config{Family: "mlp", Depth: 2, Width: 1 << 17, Batch: 1 << 17})
	if err != nil {
		t.Fatal(err)
	}
	for _, exhaustive := range []bool{false, true} {
		_, err := Partition(m.G, 1<<16, Options{Topology: &monster, TopoExhaustive: exhaustive})
		if err == nil || !strings.Contains(err.Error(), "beyond exact search") {
			t.Errorf("exhaustive=%v: want ordering-space guard error, got %v", exhaustive, err)
		}
	}
	if _, err := Partition(m.G, 1<<16, Options{Topology: &monster, TopologyNaive: true}); err != nil {
		t.Errorf("naive layout must stay available on huge machines: %v", err)
	}
}

// TestOrderingSearchEffort locks in the acceptance numbers: on the 3- and
// 4-level clusters of 64 GPUs and more the prefix-shared branch-and-bound
// runs at least 5x fewer DP steps than the flat enumeration would. One
// goroutine walks the tree and only each step's sweep and pricing use the
// pool, so the leaves costed and the nodes expanded and pruned are exact,
// and the DP steps, sweeps and table lookups have ceilings, at every
// parallelism: a rise is a change of policy, not noise. The steps (swept or
// replayed) pin the prefix sharing, the sweeps the step memo, and the
// dense-table lookups the preparations: one the step memo shares looks
// nothing up.
func TestOrderingSearchEffort(t *testing.T) {
	cases := []struct {
		prof                     string
		cfg                      models.Config
		orderings                int
		leaves, expanded, pruned int // exact: orderings costed, branch-and-bound nodes expanded and pruned
		steps                    int // ceilings: DP steps (one per distinct factor prefix),
		dpSolves                 int // the sweeps among them,
		lookups                  int // and class memo lookups (PriceCache.TableStats hits + fills)
	}{
		// All-2 pools, one prefix per depth: every step after the first
		// replays its sweep. A preparation whose factor and alphabets repeat
		// an earlier prefix's shares its slot set and looks up no table
		// (dp.StepMemo.Prepare); the others look up every slot's table.
		// Without the memo, these preparations looked up 596, 216 and 252
		// tables.
		{"cluster-2x8", models.Config{Family: "rnn", Depth: 2, Width: 1024, Batch: 64}, 4, 4, 10, 0, 4, 1, 149},
		{"cluster-4x2x8", models.Config{Family: "mlp", Depth: 3, Width: 2048, Batch: 128}, 60, 60, 129, 0, 6, 1, 36},
		{"cluster-8x2x8", models.Config{Family: "mlp", Depth: 3, Width: 4096, Batch: 256}, 140, 140, 308, 0, 7, 1, 36},
		// Where pruning fires: the two 4-level profiles, and the mixed
		// factors of dgx2's two levels.
		// The transformer's 34 preparations are 3 distinct ones repeated:
		// before they were shared, it looked up 2 276 tables.
		{"cluster-2x4x2x12", models.Config{Family: "transformer", Depth: 2, Width: 1536, Batch: 24}, 1260, 63, 676, 801, 34, 3, 396},
		{"cluster-2x8x2x8", models.Config{Family: "mlp", Depth: 3, Width: 3072, Batch: 48}, 1120, 16, 225, 312, 8, 2, 72},
		{"dgx2", models.Config{Family: "rnn", Depth: 2, Width: 3000, Batch: 64}, 12, 6, 23, 6, 4, 2, 298},
	}
	for _, c := range cases {
		tp, err := topo.Profile(c.prof)
		if err != nil {
			t.Fatal(err)
		}
		m, err := models.Build(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 2, 8} {
			var st SearchStats
			cache := dp.NewPriceCache()
			if _, err := Partition(m.G, int64(tp.NumGPUs()), Options{Topology: &tp, Parallelism: par, Stats: &st, Cache: cache}); err != nil {
				t.Fatalf("%s par=%d: %v", c.prof, par, err)
			}
			steps := st.DPSolves + st.Replays
			hits, fills, _ := cache.TableStats()
			t.Logf("%s %s par=%d: %d orderings, %d leaves, %d expanded, %d pruned, %d dp sweeps, %d replayed, %d table lookups",
				c.prof, c.cfg, par, st.Orderings, st.Leaves, st.Expanded, st.Pruned, st.DPSolves, st.Replays, hits+fills)
			if steps > c.steps || st.DPSolves > c.dpSolves || hits+fills > int64(c.lookups) {
				t.Errorf("%s par=%d: %d dp steps, %d swept, and %d table lookups; ceilings %d, %d and %d",
					c.prof, par, steps, st.DPSolves, hits+fills, c.steps, c.dpSolves, c.lookups)
			}
			if st.Leaves != c.leaves || st.Expanded != c.expanded || st.Pruned != c.pruned {
				t.Errorf("%s par=%d: %d leaves, expanded %d, pruned %d; want %d, %d and %d",
					c.prof, par, st.Leaves, st.Expanded, st.Pruned, c.leaves, c.expanded, c.pruned)
			}
			if st.Orderings != c.orderings {
				t.Errorf("%s par=%d: orderings = %d, want %d", c.prof, par, st.Orderings, c.orderings)
			}
			if st.FlatDPSolves != c.orderings*len(topoPool(tp)) {
				t.Errorf("%s par=%d: flat dp solves = %d, want %d", c.prof, par, st.FlatDPSolves, c.orderings*len(topoPool(tp)))
			}
			// On steps, so it bounds the sweeps too.
			if tp.NumGPUs() >= 64 && steps*5 > st.FlatDPSolves {
				t.Errorf("%s par=%d: dp steps %d not >=5x below flat %d", c.prof, par, steps, st.FlatDPSolves)
			}
		}
	}
}

// TestLowerBoundAdmissible checks the branch-and-bound invariant directly:
// at every prefix of randomized orderings, the per-factor lower bound never
// exceeds the δ any later step with that factor realizes. (Pruning on an
// inadmissible bound could silently drop the optimum; the differential test
// would catch the symptom, this one catches the cause.)
func TestLowerBoundAdmissible(t *testing.T) {
	tp, err := topo.Profile("cluster-4x2x8")
	if err != nil {
		t.Fatal(err)
	}
	m, err := models.Build(models.Config{Family: "rnn", Depth: 2, Width: 2048, Batch: 128})
	if err != nil {
		t.Fatal(err)
	}
	c, err := coarsen.Coarsen(m.G)
	if err != nil {
		t.Fatal(err)
	}
	cache := dp.NewPriceCache()
	orderings := topoOrderings(tp, false)
	rng := rand.New(rand.NewSource(5))
	rng.Shuffle(len(orderings), func(i, j int) { orderings[i], orderings[j] = orderings[j], orderings[i] })
	if len(orderings) > 8 {
		orderings = orderings[:8]
	}
	for _, ord := range orderings {
		// Pass 1: realize the ordering, recording each prefix's shapes and
		// each step's δ.
		shapes := make(map[int]shape.Shape, len(m.G.Tensors))
		for _, tn := range m.G.Tensors {
			shapes[tn.ID] = append(shape.Shape(nil), tn.Shape...)
		}
		prefixShapes := make([]map[int]shape.Shape, len(ord))
		deltas := make([]float64, len(ord))
		for i := range ord {
			prefixShapes[i] = make(map[int]shape.Shape, len(shapes))
			for id, s := range shapes {
				prefixShapes[i][id] = append(shape.Shape(nil), s...)
			}
			res, err := dp.Solve(&dp.Problem{
				Coarse: c, K: ord[i].f, Shapes: shapes, Cache: cache,
			})
			if err != nil {
				t.Fatalf("ordering %v step %d: %v", ord, i, err)
			}
			deltas[i] = res.CommBytes
			if err := divideShapes(c, shapes, res.VarCut, ord[i].f, true); err != nil {
				t.Fatal(err)
			}
		}
		// Pass 2: the bound computed at any prefix must not exceed the δ of
		// any later step with that factor.
		for i := range ord {
			for j := i; j < len(ord); j++ {
				lb, err := dp.LowerBound(&dp.Problem{
					Coarse: c, K: ord[j].f, Shapes: prefixShapes[i], Cache: cache,
				})
				if err != nil {
					t.Fatalf("ordering %v prefix %d: bound for %d: %v", ord, i, ord[j].f, err)
				}
				if lb > deltas[j]*(1+1e-9) {
					t.Errorf("ordering %v: bound %g at prefix %d exceeds realized δ %g of step %d (factor %d)",
						ord, lb, i, deltas[j], j, ord[j].f)
				}
			}
		}
	}
}

// TestTopoInfeasibleErrorsAggregated: a topology no ordering can host
// reports every distinct infeasibility reason, not just the first — in both
// the branch-and-bound and the exhaustive engines.
func TestTopoInfeasibleErrorsAggregated(t *testing.T) {
	tp, err := topo.Profile("cluster-4x2x12")
	if err != nil {
		t.Fatal(err)
	}
	// Batch 128 is not divisible by 3, so the factor-3 step can never place
	// anywhere — at several distinct shapes along the way.
	m, err := models.Build(models.Config{Family: "rnn", Depth: 2, Width: 3000, Batch: 128})
	if err != nil {
		t.Fatal(err)
	}
	for _, exhaustive := range []bool{false, true} {
		_, err = Partition(m.G, int64(tp.NumGPUs()), Options{Topology: &tp, TopoExhaustive: exhaustive})
		if err == nil {
			t.Fatalf("exhaustive=%v: expected infeasibility", exhaustive)
		}
		msg := err.Error()
		if !strings.Contains(msg, `topology "cluster-4x2x12"`) {
			t.Errorf("exhaustive=%v: error lacks topology banner: %v", exhaustive, err)
		}
		if strings.Count(msg, "no dimension divisible by 3") < 2 {
			t.Errorf("exhaustive=%v: error does not aggregate distinct reasons:\n%v", exhaustive, err)
		}
	}
}

// blockOrderings reproduces the retired >96-orderings fallback: permute
// whole levels, factors contiguous and largest-first within each level.
func blockOrderings(tp topo.Topology) [][]factorLevel {
	var blocks [][]factorLevel
	for li := range tp.Levels {
		var b []factorLevel
		for _, f := range Factorize(tp.Levels[li].GroupSize) {
			b = append(b, factorLevel{f: f, level: li})
		}
		if len(b) > 0 {
			blocks = append(blocks, b)
		}
	}
	var out [][]factorLevel
	var rec func(rem [][]factorLevel, cur []factorLevel)
	rec = func(rem [][]factorLevel, cur []factorLevel) {
		if len(rem) == 0 {
			out = append(out, append([]factorLevel(nil), cur...))
			return
		}
		for i := range rem {
			rest := make([][]factorLevel, 0, len(rem)-1)
			rest = append(rest, rem[:i]...)
			rest = append(rest, rem[i+1:]...)
			rec(rest, append(cur, rem[i]...))
		}
	}
	rec(blocks, nil)
	return out
}

// TestOrderingSearchSupersedesBlockFallback is the regression pin for the
// retired fallback. cluster-4x2x12's 180 orderings are past the old
// 96-ordering cap, so the old search silently truncated to 6 level-block
// orderings — 174 candidates never costed, no optimality evidence, and a
// within-level factor order fixed by fiat. The new search certifies the
// optimum over the full space (byte-identical to exhaustive) at a fraction
// of the DP work, and this test pins the certificate the fallback could
// never produce: the full-space optimum costs no more than the best of the
// 6 block orderings, and the block set really is the 6/180 subset the old
// code searched. (On the benchmark op library the exact per-step DP makes
// per-factor step costs monotone along any branch, which is why the block
// winner happens to tie here; nothing enforced that under beam search or
// future operators — the fallback was an unverifiable heuristic, which is
// exactly why it is gone.)
func TestOrderingSearchSupersedesBlockFallback(t *testing.T) {
	tp, err := topo.Profile("cluster-4x2x12")
	if err != nil {
		t.Fatal(err)
	}
	m, err := models.Build(models.Config{Family: "rnn", Depth: 4, Width: 3000, Batch: 96})
	if err != nil {
		t.Fatal(err)
	}
	k := int64(tp.NumGPUs())

	var st SearchStats
	p, err := Partition(m.G, k, Options{Topology: &tp, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	best := CommTime(p, tp)

	if st.Orderings != 180 {
		t.Fatalf("orderings = %d, want 180", st.Orderings)
	}
	const oldCap = 96 // the retired maxTopoOrderings
	if st.Orderings <= oldCap {
		t.Fatalf("profile no longer exceeds the old %d-ordering cap", oldCap)
	}

	blocks := blockOrderings(tp)
	if len(blocks) != 6 {
		t.Fatalf("block fallback set = %d orderings, want 6", len(blocks))
	}
	c, err := coarsen.Coarsen(m.G)
	if err != nil {
		t.Fatal(err)
	}
	cache := dp.NewPriceCache()
	blockBest := -1.0
	for _, ord := range blocks {
		factors := make([]int64, len(ord))
		levels := make([]int, len(ord))
		for i, fl := range ord {
			factors[i] = fl.f
			levels[i] = fl.level
		}
		pb, err := runSteps(c, k, factors, levels, Options{}, cache, nil)
		if err != nil {
			continue
		}
		if cost := CommTime(pb.plan, tp); blockBest < 0 || cost < blockBest {
			blockBest = cost
		}
	}
	if blockBest < 0 {
		t.Fatal("no feasible block ordering")
	}
	if best > blockBest*(1+1e-9) {
		t.Errorf("full-space optimum %g worse than block-fallback best %g", best, blockBest)
	}
	if steps := st.DPSolves + st.Replays; steps*5 > st.FlatDPSolves {
		t.Errorf("dp steps %d not >=5x below flat %d over the full space", steps, st.FlatDPSolves)
	}
}

// TestSearchStatsByMode pins which counters each search mode fills. Only a
// search that runs no ordering search reports Orderings 0: a flat machine,
// or a hierarchical one with explicit Factors. A TopologyNaive search on a
// hierarchical machine costs its one hierarchy-following ordering, so it
// reports that ordering as costed and expanded, with one flat-DP step per
// factor of the pool.
func TestSearchStatsByMode(t *testing.T) {
	m, err := models.Build(models.Config{Family: "mlp", Depth: 4, Width: 256, Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	cl := topo.Cluster2x8Topology()
	flat := topo.DefaultTopology()
	for _, c := range []struct {
		name  string
		opts  Options
		want  SearchStats // without the step counters and BestCost
		steps int         // DPSolves + Replays
	}{
		{"naive", Options{Topology: &cl, TopologyNaive: true},
			SearchStats{Orderings: 1, Leaves: 1, Expanded: 1, FlatDPSolves: 4}, 4},
		{"factors", Options{Topology: &cl, Factors: []int64{4, 4}}, SearchStats{}, 2},
		{"flat", Options{Topology: &flat}, SearchStats{}, 3},
	} {
		var st SearchStats
		c.opts.Parallelism, c.opts.Stats = 1, &st
		if _, err := Partition(m.G, int64(c.opts.Topology.NumGPUs()), c.opts); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		steps := st.DPSolves + st.Replays
		st.DPSolves, st.Replays, st.BestCost = 0, 0, 0
		if st != c.want || steps != c.steps {
			t.Errorf("%s: stats %+v with %d dp steps, want %+v with %d", c.name, st, steps, c.want, c.steps)
		}
	}
}
