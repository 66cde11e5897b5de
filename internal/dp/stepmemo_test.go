package dp_test

import (
	"fmt"
	"maps"
	"math"
	"strconv"
	"testing"

	"tofu/internal/coarsen"
	"tofu/internal/dp"
	"tofu/internal/hybrid"
	"tofu/internal/models"
	"tofu/internal/obs"
	"tofu/internal/recursive"
	"tofu/internal/shape"
	"tofu/internal/topo"
)

// TestStepMemoMatchesFresh walks, for each case, the prefix tree of its
// factor orderings through one step memo (memoWalk): every step the memo
// prepares or solves, replayed or swept, is held to a fresh dp.Prepare and
// dp.Solve at the step's divided shapes with no price cache, bit for bit, and
// every complete ordering's recursive chain (recursive.Search with Factors,
// one memo per chain) to the fresh solves along its path. Pipeline cases walk
// every segment the hybrid search searched (walkSegments). It runs the twelve
// cold benchmark cases (bench/workloads/cold-*.json), a grid of small models
// on five machines, and searches where the memo must miss: a batch that turns
// odd mid-chain, factor-3 against factor-2 steps, and a beam bound.
func TestStepMemoMatchesFresh(t *testing.T) {
	type memoCase struct {
		cfg       models.Config
		hw        string // "" = 8 flat workers
		pipeline  bool
		maxStates int
	}
	cases := []memoCase{
		{cfg: models.Config{Family: "wresnet", Depth: 50, Width: 4, Batch: 32}},
		{cfg: models.Config{Family: "wresnet", Depth: 152, Width: 10, Batch: 8}},
		{cfg: models.Config{Family: "rnn", Depth: 10, Width: 8192, Batch: 128}},
		{cfg: models.Config{Family: "transformer", Depth: 4, Width: 1024, Batch: 16}},
		{cfg: models.Config{Family: "rnn", Depth: 2, Width: 8192, Batch: 256}, hw: "cluster-8x2x8"},
		{cfg: models.Config{Family: "transformer", Depth: 2, Width: 1536, Batch: 24}, hw: "cluster-2x4x2x12"},
		{cfg: models.Config{Family: "transformer", Depth: 2, Width: 1024, Batch: 64}, hw: "cluster-4x2x8"},
		{cfg: models.Config{Family: "mlp", Depth: 3, Width: 3072, Batch: 48}, hw: "cluster-2x8x2x8"},
		{cfg: models.Config{Family: "mlp", Depth: 4, Width: 384, Batch: 48}, hw: "cluster-2x4x2x12", pipeline: true},
		{cfg: models.Config{Family: "mlp", Depth: 8, Width: 256, Batch: 64}, hw: "cluster-4x2x8", pipeline: true},
		{cfg: models.Config{Family: "rnn", Depth: 2, Width: 1024, Batch: 64}, hw: "cluster-4x2x8", pipeline: true},
		{cfg: models.Config{Family: "transformer", Depth: 2, Width: 1024, Batch: 64}, hw: "cluster-2x8", pipeline: true},
	}
	for _, hw := range []string{"dgx1", "cluster-2x8", "cluster-4x2x8", "cluster-2x4x2x12", "cluster-8x2x8"} {
		for _, cfg := range []models.Config{
			{Family: "mlp", Depth: 6, Width: 384, Batch: 96},
			{Family: "rnn", Depth: 3, Width: 384, Batch: 96},
			{Family: "transformer", Depth: 2, Width: 384, Batch: 96},
		} {
			cases = append(cases, memoCase{cfg: cfg, hw: hw})
		}
	}
	for _, beam := range []int{4, 64} {
		cases = append(cases, memoCase{cfg: models.Config{Family: "transformer", Depth: 2, Width: 384, Batch: 96}, hw: "cluster-4x2x8", maxStates: beam})
	}

	replays := 0
	for _, c := range cases {
		m, err := models.Build(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		co, err := coarsen.Coarsen(m.G)
		if err != nil {
			t.Fatal(err)
		}
		w := memoWalk{t: t, label: c.cfg.String(), maxStates: c.maxStates, par: 1, chains: true}
		if c.hw == "" {
			w.run(co, recursive.Factorize(8))
		} else {
			tp, err := topo.Profile(c.hw)
			if err != nil {
				t.Fatal(err)
			}
			w.label = fmt.Sprintf("%s on %s", c.cfg, c.hw)
			if c.pipeline {
				walkSegments(&w, co, tp)
			} else {
				w.run(co, poolFactors(tp.Levels))
			}
		}
		t.Logf("%s (max states %d): %d steps, %d shared preparations, %d replays checked",
			w.label, c.maxStates, w.steps, w.hits, w.replays)
		replays += w.replays
	}
	if replays == 0 {
		t.Fatal("no step replayed")
	}

	// Where the memo must miss. Batch 96 halves three times and every step
	// after the first replays it; batch 90 turns odd after the first step
	// cuts it, so the second step's alphabet changes and it sweeps.
	sweeps := func(cfg models.Config, hw string) int {
		t.Helper()
		m, err := models.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		opts := recursive.Options{Parallelism: 1, Stats: &recursive.SearchStats{}}
		k := int64(8)
		if hw != "" {
			tp, err := topo.Profile(hw)
			if err != nil {
				t.Fatal(err)
			}
			opts.Topology, k = &tp, int64(tp.NumGPUs())
		}
		if _, err := recursive.Partition(m.G, k, opts); err != nil {
			t.Fatalf("%s on %q: %v", cfg, hw, err)
		}
		return opts.Stats.DPSolves
	}
	if n := sweeps(models.Config{Family: "mlp", Depth: 2, Width: 16, Batch: 96}, ""); n != 1 {
		t.Errorf("mlp-2-16@96: %d sweeps, want 1", n)
	}
	if n := sweeps(models.Config{Family: "mlp", Depth: 2, Width: 16, Batch: 90}, ""); n < 2 {
		t.Errorf("mlp-2-16@90: %d sweeps; the step after the batch turned odd replayed", n)
	}
	// A factor-3 step never replays a factor-2 sweep.
	if n := sweeps(models.Config{Family: "mlp", Depth: 3, Width: 384, Batch: 96}, "cluster-2x4x2x12"); n < 2 {
		t.Errorf("mlp-3-384@96 on cluster-2x4x2x12: %d sweeps for factors 3 and 2", n)
	}
}

// poolFactors lists a machine's recursive factors: every level's prime
// factors, innermost level first.
func poolFactors(levels []topo.Level) []int64 {
	var out []int64
	for _, lv := range levels {
		out = append(out, recursive.Factorize(lv.GroupSize)...)
	}
	return out
}

// memoWalk prepares and solves every prefix of every distinct ordering of a
// factor multiset through one step memo and one price cache, depth first —
// every step the ordering search's memo can see — and holds each step to a
// fresh dp.Prepare at the step's own shapes with no price cache: both fail or
// neither; a shared preparation (the hit StepMemo.Prepare reports) is bound to
// the caller's Problem and matches the fresh one table for table, in
// LowerBound and in its own sweep; every StepMemo.Solve, replayed or swept,
// matches the fresh sweep in VarCut, CommBytes, States and Configs. With
// chains set it also searches every complete ordering (recursive.Search with
// those Factors: runSteps, one memo per chain) and holds each step of the
// chain to the fresh solves along its path, and an ordering whose prefix
// fresh fails must fail too. The walk divides the shapes along the fresh cuts.
type memoWalk struct {
	t         *testing.T
	label     string
	maxStates int
	par       int
	chains    bool

	c     *coarsen.Coarse
	memo  *dp.StepMemo
	cache *dp.PriceCache
	// steps, hits and replays count the steps checked, the shared
	// preparations and the replayed sweeps among them.
	steps, hits, replays int
}

// run walks c's prefix tree of factors on a fresh memo.
func (w *memoWalk) run(c *coarsen.Coarse, factors []int64) {
	w.t.Helper()
	w.c, w.memo, w.cache = c, &dp.StepMemo{}, dp.NewPriceCache()
	w.walk(nil, factors, originalShapes(c), nil)
}

// walk takes every distinct next factor of rest at shapes, the shapes the
// steps of prefix leave; path holds those steps' fresh solves.
func (w *memoWalk) walk(prefix, rest []int64, shapes map[int]shape.Shape, path []*dp.Result) {
	w.t.Helper()
	if len(rest) == 0 {
		if w.chains {
			w.chain(prefix, path)
		}
		return
	}
	seen := map[int64]bool{}
	for i, f := range rest {
		if seen[f] {
			continue
		}
		seen[f] = true
		ord := append(prefix[:len(prefix):len(prefix)], f)
		tail := append(append([]int64(nil), rest[:i]...), rest[i+1:]...)
		at := fmt.Sprintf("%s, factors %v", w.label, ord)
		p := &dp.Problem{Coarse: w.c, K: f, Shapes: shapes, DType: shape.Float32, MaxStates: w.maxStates, Parallelism: w.par, Cache: w.cache}
		q := *p
		q.Cache, q.Parallelism = nil, 1
		fresh, ferr := dp.Prepare(&q)
		pr, hit, err := w.memo.Prepare(p)
		if (err == nil) != (ferr == nil) {
			w.t.Fatalf("%s: preparation error %v, fresh %v", at, err, ferr)
		}
		if err != nil {
			if w.chains {
				w.infeasible(append(ord, tail...))
			}
			continue // an ordering an indivisible shape rules out
		}
		want, err := fresh.Solve()
		if err != nil {
			w.t.Fatalf("%s: a fresh solve fails: %v", at, err)
		}
		w.steps++
		if hit {
			w.hits++
			if err := hitMatches(p, pr, fresh, want); err != nil {
				w.t.Errorf("%s: shared preparation: %v", at, err)
			}
		}
		got, replayed, err := w.memo.Solve(pr)
		if err != nil {
			w.t.Fatalf("%s: %v", at, err)
		}
		if replayed {
			w.replays++
		}
		if err := resultMatches(got, want); err != nil {
			w.t.Errorf("%s (shared %v, replayed %v): %v", at, hit, replayed, err)
		}
		next := maps.Clone(shapes)
		for _, v := range w.c.Vars {
			if dim, ok := want.VarCut[v.ID]; ok {
				if next[v.Tensors[0].ID], err = shapes[v.Tensors[0].ID].Split(dim, f); err != nil {
					w.t.Fatal(err)
				}
			}
		}
		w.walk(ord, tail, next, append(path[:len(path):len(path)], want))
	}
}

// chain searches the ordering ord with its own memo and holds every step to
// the fresh solves the walk took along it.
func (w *memoWalk) chain(ord []int64, path []*dp.Result) {
	w.t.Helper()
	var st recursive.SearchStats
	p, err := recursive.Search(w.c, product(ord), recursive.Options{Factors: ord, MaxStates: w.maxStates, Parallelism: w.par, Stats: &st})
	if err != nil {
		w.t.Fatalf("%s, factors %v: every fresh step succeeds, the search fails: %v", w.label, ord, err)
	}
	if len(p.Steps) != len(path) || st.DPSolves+st.Replays != len(path) {
		w.t.Fatalf("%s, factors %v: %d steps (%d sweeps, %d replays) for %d factors", w.label, ord, len(p.Steps), st.DPSolves, st.Replays, len(path))
	}
	for i, step := range p.Steps {
		got := &dp.Result{VarCut: step.VarCut, CommBytes: step.CommBytes, States: step.States, Configs: step.Configs}
		if err := resultMatches(got, path[i]); step.K != ord[i] || err != nil {
			w.t.Errorf("%s, factors %v, step %d (x%d): %v", w.label, ord, i+1, step.K, err)
		}
	}
}

// infeasible checks that a search of the ordering ord fails: one of its
// prefixes fails to prepare fresh.
func (w *memoWalk) infeasible(ord []int64) {
	w.t.Helper()
	if _, err := recursive.Search(w.c, product(ord), recursive.Options{Factors: ord, MaxStates: w.maxStates, Parallelism: w.par}); err == nil {
		w.t.Errorf("%s, factors %v: a fresh step fails, the search succeeds", w.label, ord)
	}
}

// walkSegments runs the hybrid search on co for tp under a trace and walks
// (w.run) every segment it searched — each "hybrid.segment" span the
// structural memo did not serve — at its level's stage sub-machine factors.
// The searched segments must number the search's Stats.Segments, and the walk
// must check at least as many steps as the search swept and replayed.
func walkSegments(w *memoWalk, co *coarsen.Coarse, tp topo.Topology) {
	w.t.Helper()
	root := obs.NewSpan("test")
	var st hybrid.Stats
	if _, err := hybrid.PartitionCoarse(co, int64(tp.NumGPUs()), hybrid.Options{Topology: &tp, MaxStates: w.maxStates, Parallelism: w.par, Stats: &st, Trace: root}); err != nil {
		w.t.Fatalf("%s: %v", w.label, err)
	}
	label := w.label
	defer func() { w.label = label }()
	var sc coarsen.SegmentScratch
	searched := int64(0)
	for _, lsp := range root.Children() {
		if lsp.Name() != "hybrid.level" {
			continue
		}
		level := spanInt(w.t, lsp, "level")
		for _, sp := range lsp.Children() {
			if sp.Name() != "hybrid.segment" || spanInt(w.t, sp, "memo_hit") == 1 {
				continue
			}
			searched++
			lo, hi := spanInt(w.t, sp, "lo"), spanInt(w.t, sp, "hi")
			seg, err := co.Segment(int(lo), int(hi), &sc)
			if err != nil {
				continue // a segment the search could not coarsen either
			}
			w.label = fmt.Sprintf("%s, level %d, groups [%d,%d)", label, level, lo, hi)
			w.run(seg, poolFactors(tp.Levels[:level]))
		}
	}
	if searched != st.Segments {
		w.t.Errorf("%s: %d segment spans searched, Stats.Segments %d", label, searched, st.Segments)
	}
	if ran := st.DPSolves + st.Replays; int64(w.steps) < ran {
		w.t.Errorf("%s: the walk checked %d steps, the search ran %d", label, w.steps, ran)
	}
}

// spanInt reads an integer attribute of a span, 0 when it is absent.
func spanInt(t *testing.T, sp *obs.Span, key string) int64 {
	t.Helper()
	for _, a := range sp.Attrs() {
		if a.Key == key {
			v, err := strconv.ParseInt(a.Val, 10, 64)
			if err != nil {
				t.Fatalf("span %s: attribute %s=%q", sp.Name(), key, a.Val)
			}
			return v
		}
	}
	return 0
}

func product(factors []int64) int64 {
	k := int64(1)
	for _, f := range factors {
		k *= f
	}
	return k
}

// originalShapes is the per-variable shape table of a fresh search.
func originalShapes(c *coarsen.Coarse) map[int]shape.Shape {
	out := make(map[int]shape.Shape, len(c.Vars))
	for _, v := range c.Vars {
		out[v.Tensors[0].ID] = v.Shape.Clone()
	}
	return out
}

// hitMatches compares a shared preparation of p with a fresh one at p's own
// shapes, and the shared preparation's own sweep with the fresh sweep want.
func hitMatches(p *dp.Problem, hit, fresh *dp.Prepared, want *dp.Result) error {
	if dp.ProblemOf(hit) != p {
		return fmt.Errorf("the hit is bound to another step's Problem")
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
	return resultMatches(got, want)
}

// resultMatches compares a step's solve with a fresh one.
func resultMatches(got, want *dp.Result) error {
	switch {
	case math.Float64bits(got.CommBytes) != math.Float64bits(want.CommBytes):
		return fmt.Errorf("costs %v, fresh %v", got.CommBytes, want.CommBytes)
	case got.States != want.States || got.Configs != want.Configs:
		return fmt.Errorf("(states, configs) = (%d, %d), fresh (%d, %d)", got.States, got.Configs, want.States, want.Configs)
	case !maps.Equal(got.VarCut, want.VarCut):
		return fmt.Errorf("cuts differently from a fresh solve")
	}
	return nil
}
