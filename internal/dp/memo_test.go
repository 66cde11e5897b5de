package dp

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"tofu/internal/graph"
	"tofu/internal/models"
	"tofu/internal/partition"
	"tofu/internal/shape"
	"tofu/internal/tdl"
)

// sameTable asserts two evaluators of one slot agree bit for bit on
// everything the class memo shares (diffSlot).
func sameTable(t *testing.T, name string, got, want *slotEval) {
	t.Helper()
	if err := diffSlot(got, want); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// TestTableMemoMatchesFresh walks every benchmark family down its factor
// steps — solve, divide the shapes, solve again — and at each step builds
// the slot evaluators without a cache and through one cache shared by the
// whole walk. The two must agree bit for bit, and the class memo's lookups
// must add up: one per dense evaluator, filling exactly at the first slot of
// each class the walk has not met at its K; every filled table backs all the
// evaluators that asked for it (distinct tables == fills); and every slot of
// a class holds the class's one table.
func TestTableMemoMatchesFresh(t *testing.T) {
	cases := []struct {
		cfg     models.Config
		factors []int64
	}{
		{models.Config{Family: "mlp", Depth: 3, Width: 96, Batch: 24}, []int64{3, 2, 2, 2}},
		{models.Config{Family: "rnn", Depth: 2, Width: 96, Batch: 24}, []int64{3, 2, 2, 2}},
		{models.Config{Family: "wresnet", Depth: 50, Width: 2, Batch: 16}, []int64{2, 2, 2}},
		{models.Config{Family: "transformer", Depth: 2, Width: 96, Batch: 24}, []int64{3, 2, 2, 2}},
	}
	for _, tc := range cases {
		cfg := tc.cfg
		m, err := models.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cache := NewPriceCache()
		tables := map[*slotTable]bool{}
		classes := map[string]*slotTable{} // by K, SigID and class key
		var hits, fills int64
		p := problemFor(t, m, 0)
		for step, k := range tc.factors {
			name := fmt.Sprintf("%s step %d (x%d)", cfg.Family, step+1, k)
			p.K, p.Cache, p.Parallelism = k, nil, 2
			fresh, err := prepareSlotEvals(p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			// Serial, so that only a class's first slot misses.
			p.Cache, p.Parallelism = cache, 1
			memo, err := prepareSlotEvals(p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			dense, filled, met := int64(0), int64(0), int64(0)
			for i, ev := range memo.ordered {
				at := fmt.Sprintf("%s slot %v", name, ev.slot.Rep())
				sameTable(t, at, ev, fresh.ordered[i])
				if ev.t == nil {
					continue
				}
				dense++
				if !tables[ev.t] {
					tables[ev.t] = true
					filled++
				}
				key, ok := ev.classKey(fmt.Appendf(nil, "%d/%d/", k, ev.slot.SigID))
				if !ok {
					t.Fatalf("%s: no class key", at)
				}
				if first, ok := classes[string(key)]; !ok {
					classes[string(key)] = ev.t
					met++
				} else if first != ev.t {
					t.Fatalf("%s: holds another table than its class's first slot", at)
				}
			}
			h, f, bytes := cache.TableStats()
			if h+f-hits-fills != dense || f-fills != filled || filled != met {
				t.Fatalf("%s: %d class lookups filled %d tables; evaluators show %d, %d tables and %d new classes",
					name, h+f-hits-fills, f-fills, dense, filled, met)
			}
			if bytes <= 0 || bytes > tableMemoBytes {
				t.Fatalf("%s: %d resident table bytes", name, bytes)
			}
			hits, fills = h, f

			p.Cache = nil
			res := solveDense(t, p)
			for tid, dim := range res.TensorCut {
				if dim < 0 {
					continue
				}
				if err := p.Shapes[tid].SplitInPlace(dim, k); err != nil {
					t.Fatal(err)
				}
			}
		}
		if hits == 0 {
			t.Errorf("%s: no class hits: the memo was never used", cfg.Family)
		}
	}
}

// TestClassMemoKeySeparates: within one coarsening, slots of one pricing
// signature that differ in one other ingredient of the class key — the
// aliasing pattern, an alphabet, the multiplicity — are classes apart, each
// with the table a cache-less build fills, while a slot that agrees on the
// whole key shares its class's table. A strategy filter keeps a preparation
// away from the class memo, so a filtered preparation on a cache an
// unfiltered one filled gets the filtered tables.
func TestClassMemoKeySeparates(t *testing.T) {
	const s = 12
	type built struct {
		g                      *graph.Graph
		base, control, variant *graph.Node
		shrink                 *graph.Tensor // an input the variant's step has divided, or nil
	}
	matmul := func(g *graph.Graph, x, w *graph.Tensor) *graph.Node { return g.Apply("matmul", nil, x, w).Producer }
	in := func(g *graph.Graph, name string) *graph.Tensor { return g.Input(name, shape.Of(s, s)) }
	// Every graph holds out = matmul(x, w), the base slot, and an identical
	// control over fresh inputs; the variant is one more matmul.
	build := func(variant func(g *graph.Graph, b *built)) built {
		g := graph.New()
		b := built{g: g}
		b.base = matmul(g, in(g, "x"), in(g, "w"))
		b.control = matmul(g, in(g, "x2"), in(g, "w2"))
		variant(g, &b)
		return b
	}
	cases := []struct {
		name    string
		variant func(g *graph.Graph, b *built)
	}{
		{"aliasing: operands numbered the other way round", func(g *graph.Graph, b *built) {
			w := in(g, "w3")
			b.variant = matmul(g, in(g, "x3"), w)
		}},
		{"aliasing: f(y, y)", func(g *graph.Graph, b *built) {
			y := in(g, "y")
			b.variant = matmul(g, y, y)
		}},
		{"alphabet: dim 0 of the first input exhausted", func(g *graph.Graph, b *built) {
			b.shrink = in(g, "u")
			b.variant = matmul(g, b.shrink, in(g, "v"))
		}},
		{"multiplicity: two timesteps in one slot", func(g *graph.Graph, b *built) {
			c0, c1 := in(g, "c0"), in(g, "c1")
			w := in(g, "wc")
			for ts, x := range []*graph.Tensor{c0, c1} {
				n := matmul(g, x, w)
				n.UnrollTag, n.Timestep = "cell", ts
				if ts == 0 {
					b.variant = n
				}
			}
		}},
	}
	evalOf := func(sl *slotSet, n *graph.Node) *slotEval {
		for _, ev := range sl.ordered {
			if ev.slot.Rep() == n {
				return ev
			}
		}
		t.Fatalf("no slot led by %v", n)
		return nil
	}
	for _, tc := range cases {
		b := build(tc.variant)
		p := graphProblem(t, b.g, 2)
		if b.shrink != nil {
			p.Shapes[b.shrink.ID] = shape.Of(3, s) // 3 does not split 2 ways
		}
		fresh, err := prepareSlotEvals(p)
		if err != nil {
			t.Fatal(err)
		}
		p.Cache, p.Parallelism = NewPriceCache(), 1
		sl, err := prepareSlotEvals(p)
		if err != nil {
			t.Fatal(err)
		}
		base, control, variant := evalOf(sl, b.base), evalOf(sl, b.control), evalOf(sl, b.variant)
		if base.slot.SigID != variant.slot.SigID {
			t.Fatalf("%s: the variant has another signature", tc.name)
		}
		for i, ev := range sl.ordered {
			sameTable(t, fmt.Sprintf("%s slot %v", tc.name, ev.slot.Rep()), ev, fresh.ordered[i])
		}
		if hits, fills, _ := p.Cache.TableStats(); hits != 1 || fills != 2 || control.t != base.t || variant.t == base.t {
			t.Fatalf("%s: class hits/fills = %d/%d, control shares the base table %v, variant %v; want 1/2, true, false",
				tc.name, hits, fills, control.t == base.t, variant.t == base.t)
		}

		// The filter scope: no class lookup, the filtered tables.
		p.StrategyFilter = func(st partition.Strategy) bool { return st.Kind != partition.SplitReduce }
		q := *p
		q.Cache = nil
		want, err := prepareSlotEvals(&q)
		if err != nil {
			t.Fatal(err)
		}
		filtered, err := prepareSlotEvals(p)
		if err != nil {
			t.Fatal(err)
		}
		for i, ev := range filtered.ordered {
			sameTable(t, fmt.Sprintf("%s filtered slot %v", tc.name, ev.slot.Rep()), ev, want.ordered[i])
		}
		if hits, fills, _ := p.Cache.TableStats(); hits != 1 || fills != 2 {
			t.Fatalf("%s: a filtered preparation looked classes up (hits/fills now %d/%d)", tc.name, hits, fills)
		}
	}
}

// TestTableMemoBudget: past the byte budget the class memo claims no more
// classes, and their tables are filled for each evaluator alone — same
// contents, nothing retained, the budget never exceeded — while the classes
// claimed earlier keep being shared.
func TestTableMemoBudget(t *testing.T) {
	m, err := models.Build(models.Config{Family: "transformer", Depth: 1, Width: 64, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	p := problemFor(t, m, 2)
	p.Parallelism = 1
	fresh, err := prepareSlotEvals(p)
	if err != nil {
		t.Fatal(err)
	}
	unbounded := NewPriceCache()
	p.Cache = unbounded
	if _, err := prepareSlotEvals(p); err != nil {
		t.Fatal(err)
	}
	_, _, full := unbounded.TableStats()

	p.Cache = NewPriceCache()
	p.Cache.tableBudget = full / 2
	var h0, m0 int64
	for round := 0; round < 2; round++ {
		sl, err := prepareSlotEvals(p)
		if err != nil {
			t.Fatal(err)
		}
		for i, ev := range sl.ordered {
			sameTable(t, fmt.Sprintf("round %d slot %v", round, ev.slot.Rep()), ev, fresh.ordered[i])
		}
		hits, misses, bytes := p.Cache.TableStats()
		if bytes <= 0 || bytes > full/2 {
			t.Fatalf("round %d: %d resident bytes under a budget of %d", round, bytes, full/2)
		}
		if round == 1 && (hits-h0 == 0 || misses-m0 == 0) {
			t.Fatalf("round 1: %d hits and %d fills: want the retained half shared and the rest refilled",
				hits-h0, misses-m0)
		}
		h0, m0 = hits, misses
	}
}

var registerWide8 sync.Once

// TestTableMemoBypassedByLazySlots: a slot whose cross-product exceeds
// tableLimit has no dense table, so it must not touch the class memo.
func TestTableMemoBypassedByLazySlots(t *testing.T) {
	const n = 8
	registerWide8.Do(func() {
		// out[a,b,c,d] = x0[b,a,c,d] + x1[a,b,c,d] + ... + x7[a,b,c,d]: the
		// transposed access keeps it from being element-wise, so all nine
		// tensors stay distinct variables.
		a, b, c, d := tdl.Ax("a"), tdl.Ax("b"), tdl.Ax("c"), tdl.Ax("d")
		bld := tdl.Describe("wide8_test")
		var body tdl.Scalar = tdl.At("x0", b, a, c, d)
		bld = bld.In("x0", 4)
		for i := 1; i < n; i++ {
			name := fmt.Sprintf("x%d", i)
			bld = bld.In(name, 4)
			body = tdl.Add(body, tdl.At(name, a, b, c, d))
		}
		tdl.Std.MustRegisterStatic(bld.Out(a, b, c, d).MustIs(body))
		graph.RegisterInfo("wide8_test", graph.OpInfo{
			InferShape: func(_ tdl.Attrs, in []shape.Shape) (shape.Shape, error) { return in[0].Clone(), nil },
		})
	})
	g := graph.New()
	ins := make([]*graph.Tensor, n)
	for i := range ins {
		ins[i] = g.Input(fmt.Sprintf("x%d", i), shape.Of(4, 4, 4, 4))
	}
	g.Apply("wide8_test", nil, ins...)

	p := graphProblem(t, g, 2)
	p.Cache = NewPriceCache()
	sl, err := prepareSlotEvals(p)
	if err != nil {
		t.Fatal(err)
	}
	ev := sl.ordered[0]
	if len(ev.tvars) != n+1 || ev.t != nil || ev.memo == nil {
		t.Fatalf("want a lazily priced slot over %d variables, got %d (dense: %v)", n+1, len(ev.tvars), ev.t != nil)
	}
	if _, misses := p.Cache.Stats(); misses != 1 {
		t.Errorf("pricing misses = %d, want 1: the priced enumeration is still memoized", misses)
	}
	if hits, misses, bytes := p.Cache.TableStats(); hits != 0 || misses != 0 || bytes != 0 {
		t.Errorf("class hits/fills/bytes = %d/%d/%d, want none", hits, misses, bytes)
	}
	if si, cost := ev.bestAt(0); si < 0 || math.IsInf(cost, 1) {
		t.Errorf("lazy pricing returned (%d, %v)", si, cost)
	}
}

// TestTableMemoConcurrent (run under -race): solves of one Coarse racing on
// one PriceCache, so on one class memo scope, return exactly what a serial,
// cache-less solve returns, and fill each class's table exactly once: as
// many fills, and as many pricing lookups (a class hit looks none up), as
// one preparation has classes. Then steps of the Coarse solved through one
// StepMemo return it too, the first swept and the rest replayed.
func TestTableMemoConcurrent(t *testing.T) {
	m, err := models.Build(models.Config{Family: "wresnet", Depth: 50, Width: 2, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	serial := problemFor(t, m, 2)
	serial.Parallelism = 1
	want := solveDense(t, serial)
	alone := *serial
	alone.Cache = NewPriceCache()
	if _, err := prepareSlotEvals(&alone); err != nil {
		t.Fatal(err)
	}
	_, classes, _ := alone.Cache.TableStats()
	cache := NewPriceCache()
	const workers = 8
	got := make([]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		p := problemFor(t, m, 2)
		p.Coarse = serial.Coarse
		p.Cache, p.Parallelism = cache, 2
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w], errs[w] = Solve(p)
		}(w)
	}
	wg.Wait()
	check := func(phase string) {
		t.Helper()
		for w := range got {
			if errs[w] != nil {
				t.Fatal(errs[w])
			}
			sameSearch(t, fmt.Sprintf("%s goroutine %d", phase, w), got[w], want)
			if err := got[w].Materialize(); err != nil {
				t.Fatal(err)
			}
			sameTables(t, fmt.Sprintf("%s goroutine %d", phase, w), got[w], want)
		}
	}
	check("solve")
	hits, fills, _ := cache.TableStats()
	ph, pm := cache.Stats()
	if hits == 0 || fills != classes || ph+pm-hits != classes {
		t.Errorf("%d class hits, %d fills and %d pricing lookups for %d classes: want hits, and each class filled once",
			hits, fills, ph+pm-hits, classes)
	}

	var memo StepMemo
	for w := 0; w < workers; w++ {
		p := problemFor(t, m, 2)
		p.Coarse = serial.Coarse
		p.Cache, p.Parallelism = cache, 2
		pr, _, err := memo.Prepare(p)
		if err != nil {
			t.Fatal(err)
		}
		var replayed bool
		if got[w], replayed, errs[w] = memo.Solve(pr); replayed != (w > 0) {
			t.Errorf("step %d: replayed = %v", w, replayed)
		}
	}
	check("step memo")
}
