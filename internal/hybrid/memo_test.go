package hybrid

import (
	"fmt"
	"maps"
	"math"
	"testing"

	"tofu/internal/coarsen"
	"tofu/internal/dp"
	"tofu/internal/graph"
	"tofu/internal/models"
	"tofu/internal/plan"
	"tofu/internal/recursive"
	"tofu/internal/shape"
	"tofu/internal/topo"
)

// TestSegmentMemoMatchesSearch fills every segment [lo, hi) of every
// candidate level through the level's memo (levelState.segment) and compares
// each with a direct recursive.Search of the same groups on a view of its
// own, bit for bit: cost, and per step K, Multiplier, Level, CommBytes,
// States, Configs and VarCut. Misses are checked as well as hits. It runs on
// the four cold-hybrid benchmark cases and on a grid of small models on
// every shipped multi-level cluster profile, then checks that the winning
// stages of a full search own their plans.
func TestSegmentMemoMatchesSearch(t *testing.T) {
	type memoCase struct {
		prof string
		cfg  models.Config
	}
	cases := []memoCase{ // bench/workloads/cold-hybrid.json
		{"cluster-2x4x2x12", models.Config{Family: "mlp", Depth: 4, Width: 384, Batch: 48}},
		{"cluster-4x2x8", models.Config{Family: "mlp", Depth: 8, Width: 256, Batch: 64}},
		{"cluster-4x2x8", models.Config{Family: "rnn", Depth: 2, Width: 1024, Batch: 64}},
		{"cluster-2x8", models.Config{Family: "transformer", Depth: 2, Width: 1024, Batch: 64}},
	}
	for _, prof := range []string{"cluster-2x8", "cluster-4x2x8", "cluster-2x4x2x12"} {
		for _, cfg := range []models.Config{
			{Family: "mlp", Depth: 6, Width: 384, Batch: 96},
			{Family: "rnn", Depth: 2, Width: 384, Batch: 96},
			{Family: "transformer", Depth: 1, Width: 384, Batch: 96},
		} {
			cases = append(cases, memoCase{prof, cfg})
		}
	}
	for _, c := range cases {
		t.Run(c.prof+"/"+c.cfg.String(), func(t *testing.T) {
			t.Parallel()
			checkSegmentMemo(t, c.prof, c.cfg)
		})
	}
}

// checkSegmentMemo is TestSegmentMemoMatchesSearch on one model and machine.
func checkSegmentMemo(t *testing.T, prof string, cfg models.Config) {
	tp, err := topo.Profile(prof)
	if err != nil {
		t.Fatal(err)
	}
	m, err := models.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	co, err := coarsen.Coarsen(m.G)
	if err != nil {
		t.Fatal(err)
	}
	s := newSearch(co, tp, Options{Topology: &tp, Parallelism: 1}, dp.NewPriceCache())
	var sc coarsen.SegmentScratch
	hits, filled := int64(0), 0
	for level := 1; level < len(tp.Levels); level++ {
		ls, err := s.newLevelState(level)
		if err != nil {
			continue // more stages than groups
		}
		for lo := range co.Groups {
			for hi := lo + 1; hi <= len(co.Groups); hi++ {
				sg := ls.segment(lo, hi)
				filled++
				seg, err := co.Segment(lo, hi, &sc)
				if err != nil {
					t.Fatal(err)
				}
				p, err := recursive.Search(seg, ls.kSub, recursive.Options{Topology: &ls.subTopo, Parallelism: 1})
				if (err == nil) != (sg.err == nil) {
					t.Fatalf("level %d, groups [%d,%d): memo error %v, direct search's %v", level, lo, hi, sg.err, err)
				}
				if err != nil {
					continue
				}
				if cost := recursive.CommTime(p, ls.subTopo); math.Float64bits(cost) != math.Float64bits(sg.cost) {
					t.Errorf("level %d, groups [%d,%d): memo cost %v, direct search %v", level, lo, hi, sg.cost, cost)
				}
				if diff := stepsDiff(sg.plan, p); diff != "" {
					t.Errorf("level %d, groups [%d,%d): memo plan and direct search differ: %s", level, lo, hi, diff)
				}
			}
		}
		hits += ls.hits
	}
	t.Logf("%d segments checked, %d of them memo hits", filled, hits)
	// Repeated MLP layers must share keys.
	if cfg.Family == "mlp" && hits == 0 {
		t.Error("repeated MLP layers gave the memo no hit")
	}

	// Winning stages of one class were materialized from one memoized plan;
	// each must own its plan and steps.
	res, err := PartitionCoarse(co, int64(tp.NumGPUs()), Options{Topology: &tp, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	owned := make(map[*plan.Step]bool)
	for si, stg := range res.Stages {
		for _, st := range stg.Plan.Steps {
			if owned[st] {
				t.Errorf("stage %d shares a plan step with an earlier stage", si)
			}
			owned[st] = true
		}
	}
}

// stepsDiff names the first difference between two cost-only plans in what a
// search decides — K, Degraded, and per step K, Multiplier, Level, VarCut,
// CommBytes bits, States and Configs — or returns "".
func stepsDiff(a, b *plan.Plan) string {
	if a == nil || b == nil {
		return "a missing plan"
	}
	if a.K != b.K || a.Degraded != b.Degraded || len(a.Steps) != len(b.Steps) {
		return fmt.Sprintf("K %d/%d, degraded %v/%v, %d/%d steps", a.K, b.K, a.Degraded, b.Degraded, len(a.Steps), len(b.Steps))
	}
	for i, x := range a.Steps {
		y := b.Steps[i]
		switch {
		case x.K != y.K || x.Multiplier != y.Multiplier || x.Level != y.Level:
			return fmt.Sprintf("step %d: K, Multiplier or Level", i+1)
		case math.Float64bits(x.CommBytes) != math.Float64bits(y.CommBytes):
			return fmt.Sprintf("step %d: CommBytes %v/%v", i+1, x.CommBytes, y.CommBytes)
		case x.States != y.States || x.Configs != y.Configs:
			return fmt.Sprintf("step %d: States or Configs", i+1)
		case !maps.Equal(x.VarCut, y.VarCut):
			return fmt.Sprintf("step %d: VarCut", i+1)
		}
	}
	return ""
}

// segmentKeys coarsens g and returns the structural key and the slot
// signature sequence of every segment of at most maxLen groups, by [lo, hi).
func segmentKeys(t *testing.T, g *graph.Graph, maxLen int) (keys, sigs map[[2]int]string) {
	t.Helper()
	c, err := coarsen.Coarsen(g)
	if err != nil {
		t.Fatal(err)
	}
	var sc coarsen.SegmentScratch
	keys, sigs = make(map[[2]int]string), make(map[[2]int]string)
	for lo := range c.Groups {
		for hi := lo + 1; hi <= len(c.Groups) && hi-lo <= maxLen; hi++ {
			co, err := c.Segment(lo, hi, &sc)
			if err != nil {
				t.Fatal(err)
			}
			keys[[2]int{lo, hi}] = string(co.AppendStructKey(nil))
			sigs[[2]int{lo, hi}] = slotSigs(co)
		}
	}
	return keys, sigs
}

// slotSigs lists c's slot signatures in group and slot order.
func slotSigs(c *coarsen.Coarse) string {
	sigs := ""
	for _, grp := range c.Groups {
		for _, sl := range grp.Slots {
			sigs += sl.Sig + ";"
		}
	}
	return sigs
}

// residual builds a two-matmul block whose add takes the block input (a
// residual connection) or, with fromInput unset, the first matmul's output:
// the same operators at the same shapes, wired differently.
func residual(batch, d int64, fromInput bool) *graph.Graph {
	g := graph.New()
	x := g.Input("x", shape.Of(batch, d))
	w1 := g.Weight("w1", shape.Of(d, d))
	w2 := g.Weight("w2", shape.Of(d, d))
	h1 := g.Apply("matmul", nil, x, w1)
	h2 := g.Apply("matmul", nil, h1, w2)
	skip := h1
	if fromInput {
		skip = x
	}
	g.Apply("add", nil, h2, skip)
	return g
}

// swapped multiplies two same-shaped inputs in either order: one slot at one
// signature over the same two variables, read the other way round — the
// operand pair of an attention score (q·kᵀ against k·qᵀ).
func swapped(d int64, swap bool) *graph.Graph {
	g := graph.New()
	a := g.Input("a", shape.Of(d, d))
	b := g.Input("b", shape.Of(d, d))
	if swap {
		a, b = b, a
	}
	g.Apply("matmul", nil, a, b)
	return g
}

// TestSegmentMemoKeySeparates pins what the structural key must tell apart
// and what it must not: the same operators at other shapes and the same
// shapes wired differently key differently; separately built copies of a
// graph, and the repeated layers of an MLP, key alike.
func TestSegmentMemoKeySeparates(t *testing.T) {
	key := func(g *graph.Graph) (key, sigs string) {
		c, err := coarsen.Coarsen(g)
		if err != nil {
			t.Fatal(err)
		}
		return string(c.AppendStructKey(nil)), slotSigs(c)
	}
	res, resSig := key(residual(16, 8, true))
	again, _ := key(residual(16, 8, true))
	alt, altSig := key(residual(16, 8, false))
	wide, _ := key(residual(16, 16, true))
	if res != again {
		t.Error("two builds of one graph key differently")
	}
	if resSig != altSig {
		t.Fatalf("the rewired block changed its operators:\n%s\n%s", resSig, altSig)
	}
	if res == alt {
		t.Error("a residual add and an add of the hidden activation key alike")
	}
	if res == wide {
		t.Error("the same block at another width keys alike")
	}
	short, err := models.RNN(1, 64, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	long, err := models.RNN(1, 64, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	k4, _ := key(short.G)
	k5, _ := key(long.G)
	if k4 == k5 {
		t.Error("one RNN cell unrolled 4 and 5 times keys alike")
	}
	ab, abSig := key(swapped(8, false))
	ba, baSig := key(swapped(8, true))
	if abSig != baSig || ab == ba {
		t.Errorf("swapped operands: signatures equal %v, keys equal %v; want signatures equal, keys apart",
			abSig == baSig, ab == ba)
	}

	narrow, err := models.Build(models.Config{Family: "mlp", Depth: 4, Width: 256, Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	broad, err := models.Build(models.Config{Family: "mlp", Depth: 4, Width: 384, Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	// The classifier tail does not depend on the width; every segment that
	// does must key apart.
	nk, ns := segmentKeys(t, narrow.G, 3)
	bk, bs := segmentKeys(t, broad.G, 3)
	resized := 0
	for seg, k := range nk {
		if ns[seg] == bs[seg] {
			continue
		}
		resized++
		if bk[seg] == k {
			t.Errorf("mlp-4 groups %v key alike at widths 256 and 384", seg)
		}
	}
	if resized == 0 {
		t.Error("no mlp-4 segment changes with the width")
	}

	deep, err := models.Build(models.Config{Family: "mlp", Depth: 8, Width: 256, Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	dk, _ := segmentKeys(t, deep.G, 3)
	classes := make(map[string]bool)
	for _, k := range dk {
		classes[k] = true
	}
	if len(classes) >= len(dk) {
		t.Errorf("mlp-8: %d segments in %d classes — repeated layers must share keys", len(dk), len(classes))
	}
}

// TestSegmentMemoSharesOnlyComplete: a class is shared only once a search of
// it completed. After a failed or degraded first solve, the next segment of
// the class is searched again (its failure names its own groups).
func TestSegmentMemoSharesOnlyComplete(t *testing.T) {
	for _, outcome := range []string{"complete", "degraded", "failed"} {
		s := &search{xb: make([]float64, 4)}
		ls := &levelState{s: s, S: 2, bw: []float64{0, 1}, lb1: make([]float64, 4)}
		ls.prepare = func(key []byte, lo, hi int) ([]byte, stageProblem, error) {
			return append(key, byte(hi-lo)), stageProblem{lo: lo, hi: hi}, nil // one class per length
		}
		ls.solve = func(pr stageProblem) (*plan.Plan, float64, error) {
			switch outcome {
			case "failed":
				return nil, 0, fmt.Errorf("groups [%d,%d) cannot split", pr.lo, pr.hi)
			case "degraded":
				return &plan.Plan{Degraded: true}, 1, nil
			}
			return &plan.Plan{}, 1, nil
		}
		ls.initTables()
		a, b := ls.segment(0, 1), ls.segment(1, 2)
		shared, want := outcome == "complete", int64(2)
		if shared {
			want = 1
		}
		if s.stats.Segments != want || ls.hits != 2-want || (a == b) != shared {
			t.Errorf("%s first solve: %d searches, %d hits, shared %v; want %d searches, shared %v",
				outcome, s.stats.Segments, ls.hits, a == b, want, shared)
		}
	}
}
