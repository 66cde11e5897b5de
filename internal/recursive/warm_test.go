package recursive

import (
	"bytes"
	"testing"

	"tofu/internal/models"
	"tofu/internal/plan"
	"tofu/internal/topo"
)

// warmSteps extracts the ordering a finished plan realized, in the JSON
// form the serving layer's neighbor index persists.
func warmSteps(p *plan.Plan) []WarmStep {
	out := make([]WarmStep, 0, len(p.Steps))
	for _, st := range p.Steps {
		out = append(out, WarmStep{Factor: st.K, Level: st.Level})
	}
	return out
}

func TestWarmOrderFromSteps(t *testing.T) {
	tp, err := topo.Profile("cluster-4x2x12")
	if err != nil {
		t.Fatal(err)
	}
	pool := topoPool(tp)

	// Round-trip: a machine's own ordering maps back to itself exactly.
	self := make([]WarmStep, len(pool))
	for i, fl := range pool {
		self[i] = WarmStep{Factor: fl.f, Level: fl.level}
	}
	got := WarmOrderFromSteps(tp, self)
	if len(got) != len(self) {
		t.Fatalf("round-trip length %d, want %d", len(got), len(self))
	}
	for i := range got {
		if got[i] != self[i] {
			t.Errorf("round-trip step %d: got %+v, want %+v", i, got[i], self[i])
		}
	}

	// Cross-machine: a neighbor that never placed a 3 (e.g. answered on an
	// all-2s machine with more levels) still yields a full permutation of
	// THIS pool — the 2s claim nearest levels, the owed 3 is appended.
	neighbor := []WarmStep{
		{Factor: 2, Level: 3}, {Factor: 2, Level: 2},
		{Factor: 2, Level: 1}, {Factor: 2, Level: 0},
	}
	got = WarmOrderFromSteps(tp, neighbor)
	if len(got) != len(pool) {
		t.Fatalf("cross-machine seed has %d steps, want %d", len(got), len(pool))
	}
	counts := map[factorLevel]int{}
	for _, fl := range pool {
		counts[fl]++
	}
	for _, ws := range got {
		counts[factorLevel{f: ws.Factor, level: ws.Level}]--
	}
	for fl, c := range counts {
		if c != 0 {
			t.Errorf("cross-machine seed is not a pool permutation: %+v off by %d", fl, c)
		}
	}

	// Machines with no ordering search to seed return nil.
	flat := topo.FlatTopology(topo.DefaultHW())
	flat.HW.NumGPUs = 2
	flat.Levels[0].GroupSize = 2
	if ws := WarmOrderFromSteps(flat, self); ws != nil {
		t.Errorf("single-pair machine: want nil seed, got %v", ws)
	}
}

// warmCases pairs every built-in profile with a model feasible on it. This
// is the satellite-d matrix: warm-started search must be byte-identical to
// cold on every one of them, at every parallelism.
func warmCases(t *testing.T) []struct {
	tp  topo.Topology
	cfg models.Config
} {
	t.Helper()
	small := map[string]models.Config{
		"p2.8xlarge":     {Family: "rnn", Depth: 2, Width: 1500, Batch: 64},
		"dgx1":           {Family: "rnn", Depth: 2, Width: 1500, Batch: 64},
		"dgx2":           {Family: "rnn", Depth: 2, Width: 3000, Batch: 64},
		"cluster-2x8":    {Family: "rnn", Depth: 2, Width: 1500, Batch: 64},
		"cluster-4x2x8":  {Family: "mlp", Depth: 3, Width: 2048, Batch: 128},
		"cluster-4x2x12": {Family: "rnn", Depth: 4, Width: 3000, Batch: 96},
	}
	big := map[string]models.Config{
		"cluster-8x2x8":    {Family: "rnn", Depth: 2, Width: 8192, Batch: 256},
		"cluster-2x4x2x12": {Family: "transformer", Depth: 2, Width: 1536, Batch: 24},
		"cluster-2x8x2x8":  {Family: "mlp", Depth: 3, Width: 3072, Batch: 48},
	}
	var cases []struct {
		tp  topo.Topology
		cfg models.Config
	}
	add := func(m map[string]models.Config) {
		for _, name := range topo.ProfileNames() {
			cfg, ok := m[name]
			if !ok {
				continue
			}
			tp, err := topo.Profile(name)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, struct {
				tp  topo.Topology
				cfg models.Config
			}{tp, cfg})
		}
	}
	add(small)
	if !testing.Short() {
		add(big)
	}
	return cases
}

// TestWarmStartByteIdentical is the warm-start contract (satellite d of the
// fleet-serving PR): seeding the incumbent — whether with the optimal
// ordering, a deliberately bad one, or garbage — never changes the chosen
// plan's bytes, on every built-in profile at parallelism 1, 2, and 8.
func TestWarmStartByteIdentical(t *testing.T) {
	for _, c := range warmCases(t) {
		m, err := models.Build(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		k := int64(c.tp.NumGPUs())
		cold, err := Partition(m.G, k, Options{Topology: &c.tp, Parallelism: 1})
		if err != nil {
			t.Fatalf("%s/%s: cold: %v", c.tp.Name, c.cfg, err)
		}
		coldJSON := planBytes(t, cold)
		self := warmSteps(cold)
		worst := make([]WarmStep, len(self))
		for i := range self {
			worst[i] = self[len(self)-1-i]
		}
		// Non-hierarchical profiles (p2.8xlarge) have no ordering search:
		// seeds are inert there and WarmStart stays unset.
		seedable := c.tp.Hierarchical() && len(self) > 1
		seeds := []struct {
			name  string
			steps []WarmStep
			valid bool
		}{
			{"self", WarmOrderFromSteps(c.tp, self), seedable},
			{"reversed", WarmOrderFromSteps(c.tp, worst), seedable},
			{"garbage", []WarmStep{{Factor: 7, Level: 99}}, false},
		}
		for _, seed := range seeds {
			for _, par := range []int{1, 2, 8} {
				var st SearchStats
				p, err := Partition(m.G, k, Options{
					Topology: &c.tp, Parallelism: par, Stats: &st, WarmStart: seed.steps,
				})
				if err != nil {
					t.Fatalf("%s/%s seed=%s par=%d: %v", c.tp.Name, c.cfg, seed.name, par, err)
				}
				if !bytes.Equal(planBytes(t, p), coldJSON) {
					t.Errorf("%s/%s seed=%s par=%d: warm plan differs from cold plan",
						c.tp.Name, c.cfg, seed.name, par)
				}
				if st.WarmStart != seed.valid {
					t.Errorf("%s/%s seed=%s par=%d: WarmStart=%v, want %v",
						c.tp.Name, c.cfg, seed.name, par, st.WarmStart, seed.valid)
				}
				if st.WarmStart && st.WarmCost < st.BestCost {
					t.Errorf("%s/%s seed=%s par=%d: warm seed cost %g beats best %g — seed escaped the search",
						c.tp.Name, c.cfg, seed.name, par, st.WarmCost, st.BestCost)
				}
			}
		}
	}
}

// TestWarmStartSearchEffort pins the payoff: on the two 4-level fleet
// profiles, seeding the incumbent with the previously-found optimum lets
// pruning fire from the first expansion round and at least halves the
// branch-and-bound search steps. (Prefix-DP solves are memoized per factor
// prefix and already near the floor — Expanded is where warm starts win;
// see EXPERIMENTS.md.) Measured at parallelism 1 so the counts are exact:
// cluster-2x4x2x12/transformer drops 676 -> 310, cluster-2x8x2x8/mlp
// 225 -> 103. Those counts are ceilings too: a warm search that expands
// more nodes or runs more DP steps than recorded has a seed that prunes
// less.
func TestWarmStartSearchEffort(t *testing.T) {
	if testing.Short() {
		t.Skip("search-effort pins need the full 4-level profiles")
	}
	cases := []struct {
		prof                      string
		cfg                       models.Config
		expanded, steps, dpSolves int // ceilings on the warm search: nodes, DP steps, and the sweeps among the steps
	}{
		{"cluster-2x4x2x12", models.Config{Family: "transformer", Depth: 2, Width: 1536, Batch: 24}, 310, 34, 3},
		{"cluster-2x8x2x8", models.Config{Family: "mlp", Depth: 3, Width: 3072, Batch: 48}, 103, 8, 2},
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
		k := int64(tp.NumGPUs())
		var cold SearchStats
		p, err := Partition(m.G, k, Options{Topology: &tp, Parallelism: 1, Stats: &cold})
		if err != nil {
			t.Fatalf("%s: cold: %v", c.prof, err)
		}
		var warm SearchStats
		_, err = Partition(m.G, k, Options{
			Topology: &tp, Parallelism: 1, Stats: &warm,
			WarmStart: WarmOrderFromSteps(tp, warmSteps(p)),
		})
		if err != nil {
			t.Fatalf("%s: warm: %v", c.prof, err)
		}
		if !warm.WarmStart {
			t.Fatalf("%s: seed rejected", c.prof)
		}
		if warm.Expanded*2 > cold.Expanded {
			t.Errorf("%s/%s: warm start saved <2x search steps: cold %d, warm %d",
				c.prof, c.cfg, cold.Expanded, warm.Expanded)
		}
		coldSteps, warmSteps := cold.DPSolves+cold.Replays, warm.DPSolves+warm.Replays
		if warmSteps > coldSteps || warm.DPSolves > cold.DPSolves {
			t.Errorf("%s/%s: warm start ADDED dp steps or sweeps: cold %d/%d, warm %d/%d",
				c.prof, c.cfg, coldSteps, cold.DPSolves, warmSteps, warm.DPSolves)
		}
		if warm.Expanded > c.expanded || warmSteps > c.steps || warm.DPSolves > c.dpSolves {
			t.Errorf("%s/%s: warm search expanded %d nodes over %d dp steps (%d swept), ceilings %d, %d and %d",
				c.prof, c.cfg, warm.Expanded, warmSteps, warm.DPSolves, c.expanded, c.steps, c.dpSolves)
		}
		t.Logf("%s/%s-%d-%d@%d: cold exp=%d dp=%d | warm exp=%d dp=%d (%.2fx fewer steps)",
			c.prof, c.cfg.Family, c.cfg.Depth, c.cfg.Width, c.cfg.Batch,
			cold.Expanded, cold.DPSolves, warm.Expanded, warm.DPSolves,
			float64(cold.Expanded)/float64(warm.Expanded))
	}
}
