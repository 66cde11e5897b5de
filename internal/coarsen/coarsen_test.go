package coarsen

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"tofu/internal/graph"
	"tofu/internal/models"
	"tofu/internal/shape"
	"tofu/internal/tdl"
)

func mlp(t *testing.T, layers int) *models.Model {
	t.Helper()
	m, err := models.MLP(layers, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCoarsenMLPChain(t *testing.T) {
	m := mlp(t, 4)
	c, err := Coarsen(m.G)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Vars) == 0 || len(c.Groups) == 0 {
		t.Fatal("empty coarsening")
	}
	// The paper's linearity claim: an MLP coarsens to (near) a chain. The
	// frontier carries the activation and its gradient variable.
	if fw := c.MaxFrontier(); fw > 4 {
		t.Fatalf("MLP frontier width = %d, want <= 4", fw)
	}
	// Far fewer groups than nodes: fwd+bwd grouping at work.
	if len(c.Groups) >= len(m.G.Nodes)/2 {
		t.Fatalf("groups = %d for %d nodes: fwd/bwd grouping ineffective",
			len(c.Groups), len(m.G.Nodes))
	}
}

func TestWeightGradHistoryShareVariable(t *testing.T) {
	m := mlp(t, 2)
	c, err := Coarsen(m.G)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range m.G.Weights() {
		if w.Grad == nil {
			continue
		}
		wv := varOf(c, w)
		gv := varOf(c, w.Grad)
		if wv != gv {
			t.Errorf("weight %v and its gradient are in different variables", w)
		}
		if !wv.HasWeight {
			t.Errorf("variable of %v not marked HasWeight", w)
		}
	}
	// Optimizer history joins too (element-wise adam_update).
	for _, ten := range m.G.Tensors {
		if ten.Kind == graph.OptState {
			base := findWeight(m.G, ten.Name)
			if base != nil && varOf(c, ten) != varOf(c, base) {
				t.Errorf("optimizer state %v split from its weight", ten)
			}
		}
	}
}

func findWeight(g *graph.Graph, histName string) *graph.Tensor {
	want := histName[:len(histName)-len(".hist")]
	for _, t := range g.Tensors {
		if t.Kind == graph.Weight && t.Name == want {
			return t
		}
	}
	return nil
}

func TestElementwiseCoalescing(t *testing.T) {
	g := graph.New()
	x := g.Input("x", shape.Of(8, 8))
	a := g.Apply("relu", nil, x)
	b := g.Apply("sigmoid", nil, a)
	cdf := g.Apply("tanh", nil, b)
	c, err := Coarsen(g)
	if err != nil {
		t.Fatal(err)
	}
	// All four tensors share one variable; all three ops share one group.
	if varOf(c, x) != varOf(c, a) || varOf(c, a) != varOf(c, b) || varOf(c, b) != varOf(c, cdf) {
		t.Fatal("element-wise chain must share one variable")
	}
	if len(c.Groups) != 1 {
		t.Fatalf("element-wise chain groups = %d, want 1", len(c.Groups))
	}
}

func TestNonElementwiseBreaksCoalescing(t *testing.T) {
	g := graph.New()
	x := g.Input("x", shape.Of(8, 8))
	w := g.Weight("w", shape.Of(8, 8))
	a := g.Apply("relu", nil, x)
	b := g.Apply("matmul", nil, a, w)
	cdf := g.Apply("relu", nil, b)
	c, err := Coarsen(g)
	if err != nil {
		t.Fatal(err)
	}
	if varOf(c, a) == varOf(c, b) {
		t.Fatal("matmul must not merge its input and output variables")
	}
	if varOf(c, b) != varOf(c, cdf) {
		t.Fatal("relu after matmul should merge with matmul output")
	}
}

func TestRNNTimestepMerging(t *testing.T) {
	m, err := models.RNN(2, 128, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Coarsen(m.G)
	if err != nil {
		t.Fatal(err)
	}
	// Timestep merging: the group count must not scale with the number of
	// timesteps (6 here). A couple dozen structural groups per layer remain
	// (cell matmuls, gates, state updates), each spanning all timesteps.
	if len(c.Groups) > 20*2+5 {
		t.Fatalf("RNN coarsened to %d groups; timestep merging ineffective", len(c.Groups))
	}
	if len(c.Groups) > len(m.G.Nodes)/8 {
		t.Fatalf("RNN groups = %d of %d nodes", len(c.Groups), len(m.G.Nodes))
	}
	// Multi-op slots exist (one op instance per timestep).
	multi := 0
	for _, g := range c.Groups {
		for _, s := range g.Slots {
			if len(s.Ops) >= 6 {
				multi++
			}
		}
	}
	if multi == 0 {
		t.Fatal("no slot spans all timesteps")
	}
	if fw := c.MaxFrontier(); fw > 6 {
		t.Fatalf("RNN frontier width = %d, want small", fw)
	}
}

func TestWResNetFrontierStaysSmall(t *testing.T) {
	m, err := models.WResNet(50, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Coarsen(m.G)
	if err != nil {
		t.Fatal(err)
	}
	// Residual fork-join: the frontier carries the skip connection plus
	// adjacent batch-norm statistics variables (most have a single viable
	// cut, so the DP state space stays tiny).
	if fw := c.MaxFrontier(); fw > 16 {
		t.Fatalf("WResNet frontier width = %d, want <= 16", fw)
	}
	// Grouping must compress heavily relative to >1500 fine-grained ops.
	if len(c.Groups) > len(m.G.Nodes)/2 {
		t.Fatalf("WResNet groups = %d of %d nodes", len(c.Groups), len(m.G.Nodes))
	}
}

func TestVarShapesConsistent(t *testing.T) {
	m := mlp(t, 3)
	c, err := Coarsen(m.G)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range c.Vars {
		for _, ten := range v.Tensors {
			if !ten.Shape.Equal(v.Shape) {
				t.Fatalf("variable %v holds mismatched member %v", v, ten)
			}
		}
	}
}

func TestGroupLivenessWellFormed(t *testing.T) {
	m := mlp(t, 3)
	c, err := Coarsen(m.G)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range c.Vars {
		if v.First < 0 {
			continue
		}
		if v.Last < v.First {
			t.Fatalf("variable %v has Last < First", v)
		}
	}
	// Every group's vars include the output var of each slot's rep op.
	for _, g := range c.Groups {
		vars := map[int]bool{}
		for _, v := range g.Vars {
			vars[v.ID] = true
		}
		for _, s := range g.Slots {
			if !vars[varOf(c, s.Rep().Output).ID] {
				t.Fatalf("group %d missing its slot output var", g.ID)
			}
		}
	}
}

func TestVarBytes(t *testing.T) {
	g := graph.New()
	x := g.Input("x", shape.Of(4, 4))
	y := g.Apply("relu", nil, x)
	_ = y
	c, err := Coarsen(g)
	if err != nil {
		t.Fatal(err)
	}
	v := varOf(c, x)
	if v.Bytes() != 2*4*4*4 {
		t.Fatalf("Bytes = %d (members %d)", v.Bytes(), len(v.Tensors))
	}
}

// TestLivenessSlices checks the dense per-group liveness index: NewVars and
// LiveAfter must agree with the First/Last liveness ranges, stay sorted by
// ID, and capture every slot's TDL description.
func TestLivenessSlices(t *testing.T) {
	m, err := models.RNN(2, 128, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Coarsen(m.G)
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range c.Groups {
		var wantNew, wantLive []*Var
		for _, v := range g.Vars {
			if v.First == gi {
				wantNew = append(wantNew, v)
			}
		}
		for _, v := range c.Vars {
			if v.First <= gi && v.Last > gi {
				wantLive = append(wantLive, v)
			}
		}
		if len(wantNew) != len(g.NewVars) || len(wantLive) != len(g.LiveAfter) {
			t.Fatalf("group %d: NewVars/LiveAfter sizes (%d, %d), want (%d, %d)",
				gi, len(g.NewVars), len(g.LiveAfter), len(wantNew), len(wantLive))
		}
		for i, v := range wantNew {
			if g.NewVars[i] != v {
				t.Fatalf("group %d: NewVars[%d] = %v, want %v", gi, i, g.NewVars[i], v)
			}
		}
		for i, v := range wantLive {
			if g.LiveAfter[i] != v {
				t.Fatalf("group %d: LiveAfter[%d] = %v, want %v", gi, i, g.LiveAfter[i], v)
			}
			if i > 0 && wantLive[i-1].ID >= v.ID {
				t.Fatalf("group %d: LiveAfter not ID-sorted", gi)
			}
		}
		for _, s := range g.Slots {
			if s.Desc == nil {
				t.Fatalf("group %d: slot %v missing captured description", gi, s.Rep())
			}
		}
	}
}

// TestCoarsenSubMatchesCoarsen: for every contiguous group interval of a
// small instance of each benchmark family — the segments the pipeline search
// extracts — CoarsenSub over the root graph's node facts builds exactly the
// coarsening Coarsen builds from scratch: group order, slot membership and
// descriptions, variable membership and IDs, First/Last, NewVars, LiveAfter.
func TestCoarsenSubMatchesCoarsen(t *testing.T) {
	for _, cfg := range segmentModels {
		m, err := models.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		root, err := Coarsen(m.G)
		if err != nil {
			t.Fatal(err)
		}
		groupOf := groupIndex(root)
		L := len(root.Groups)
		// Every interval of the small graphs; the smallest WResNet still has
		// 283 groups (40k intervals), so it is sampled on a grid — which
		// keeps the whole graph, lo == 0 && hi == L.
		stride := max(1, L/24)
		for lo := 0; lo < L; lo += stride {
			for hi := L; hi > lo; hi -= stride {
				sub, err := m.G.Subgraph(func(n *graph.Node) bool {
					return groupOf[n.ID] >= lo && groupOf[n.ID] < hi
				})
				if err != nil {
					t.Fatal(err)
				}
				want, err := Coarsen(sub.G)
				if err != nil {
					t.Fatal(err)
				}
				got, err := CoarsenSub(root, sub)
				if err != nil {
					t.Fatal(err)
				}
				if diff := diffCoarse(got, want); diff != "" {
					t.Fatalf("%s groups [%d,%d): CoarsenSub differs from Coarsen: %s", cfg.Family, lo, hi, diff)
				}
				// The pricing signature carried over from the root's facts
				// is the one the extraction's own operator spells.
				for _, g := range got.Groups {
					for _, s := range g.Slots {
						if derived := string(appendPriceSig(nil, s.Rep(), tdl.MakeAttrsKey(s.Rep().Attrs))); s.Sig != derived {
							t.Fatalf("%s groups [%d,%d): slot %v carries signature %q, its operator spells %q",
								cfg.Family, lo, hi, s.Rep(), s.Sig, derived)
						}
					}
				}
				// A segment's coarsening carries facts of its own: coarsening
				// an extraction of the extraction works the same way.
				if lo == 0 && hi == L {
					again, err := CoarsenSub(got, &graph.Subgraphed{G: sub.G, NodeID: identity(len(sub.G.Nodes))})
					if err != nil {
						t.Fatal(err)
					}
					if diff := diffCoarse(again, want); diff != "" {
						t.Fatalf("%s: CoarsenSub of a CoarsenSub result differs: %s", cfg.Family, diff)
					}
				}
			}
		}
	}
}

// TestCoarsenMatchesReference holds the count-then-fill coarsening to the
// append-and-map builder it replaced (coarsen_oracle_test.go) on the whole
// graph of each benchmark family and on a grid of its segments: the same
// variables, groups, slots and orders, object for object.
func TestCoarsenMatchesReference(t *testing.T) {
	for _, cfg := range segmentModels {
		m, err := models.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		root, err := Coarsen(m.G)
		if err != nil {
			t.Fatal(err)
		}
		want, err := coarsenReference(m.G)
		if err != nil {
			t.Fatal(err)
		}
		if diff := diffStructure(root, want); diff != "" {
			t.Fatalf("%s: Coarsen differs from the reference: %s", cfg.Family, diff)
		}
		groupOf := groupIndex(root)
		L := len(root.Groups)
		stride := max(1, L/12)
		for lo := 0; lo < L; lo += stride {
			for hi := L; hi > lo; hi -= stride {
				sub, err := m.G.Subgraph(func(n *graph.Node) bool {
					return groupOf[n.ID] >= lo && groupOf[n.ID] < hi
				})
				if err != nil {
					t.Fatal(err)
				}
				got, err := CoarsenSub(root, sub)
				if err != nil {
					t.Fatal(err)
				}
				want, err := coarsenReference(sub.G)
				if err != nil {
					t.Fatal(err)
				}
				if diff := diffStructure(got, want); diff != "" {
					t.Fatalf("%s groups [%d,%d): CoarsenSub differs from the reference: %s", cfg.Family, lo, hi, diff)
				}
			}
		}
	}

	// Timestep instances whose shapes disagree stay unmerged, in both.
	g := stragglerGraph()
	got, err := Coarsen(g)
	if err != nil {
		t.Fatal(err)
	}
	want, err := coarsenReference(g)
	if err != nil {
		t.Fatal(err)
	}
	if diff := diffStructure(got, want); diff != "" {
		t.Fatalf("straggler graph: Coarsen differs from the reference: %s", diff)
	}
	merged := 0
	for _, grp := range got.Groups {
		for _, s := range grp.Slots {
			merged = max(merged, len(s.Ops))
		}
	}
	if merged != 3 {
		t.Fatalf("straggler graph: largest slot has %d operators, want the 3 shape-consistent timesteps", merged)
	}
}

// segmentModels are small instances of the four benchmark families — the
// graphs whose contiguous group intervals the pipeline search coarsens.
var segmentModels = []models.Config{
	{Family: "mlp", Depth: 4, Width: 64, Batch: 16},
	{Family: "rnn", Depth: 2, Width: 64, Batch: 16},
	{Family: "transformer", Depth: 1, Width: 64, Batch: 8},
	{Family: "wresnet", Depth: 50, Width: 1, Batch: 4},
}

// groupIndex maps each node of c.G to its group.
func groupIndex(c *Coarse) []int {
	groupOf := make([]int, len(c.G.Nodes))
	for gi, grp := range c.Groups {
		for _, s := range grp.Slots {
			for _, n := range s.Ops {
				groupOf[n.ID] = gi
			}
		}
	}
	return groupOf
}

// TestSegmentViewMatchesCoarsenSub: on every interval whose extraction
// (graph.Subgraph) Coarsen groups as the root does — the same groups with the
// same slots — the segment view is the oracle's coarsening of the extraction
// read through the extraction's ID maps: the same variables with the same
// members, First and Last, the same groups and variable lists, the same slots
// with the same operators, operands, descriptions and signatures, and the
// same structural key bytes. Every interval of a benchmark model without
// unrolled cells keeps the root's grouping; TestSegmentViewMatchesReference
// covers the intervals that do not. A segment of a segment is refused.
func TestSegmentViewMatchesCoarsenSub(t *testing.T) {
	for _, vg := range viewGraphs(t) {
		name, g := vg.name, vg.g
		root, err := Coarsen(g)
		if err != nil {
			t.Fatal(err)
		}
		groupOf := groupIndex(root)
		L := len(root.Groups)
		stride := vg.stride(L)
		var sc SegmentScratch
		kept, regrouped := 0, 0
		for lo := 0; lo < L; lo += stride {
			for hi := L; hi > lo; hi -= stride {
				sub, err := g.Subgraph(func(n *graph.Node) bool {
					return groupOf[n.ID] >= lo && groupOf[n.ID] < hi
				})
				if err != nil {
					t.Fatal(err)
				}
				want, err := CoarsenSub(root, sub)
				if err != nil {
					t.Fatal(err)
				}
				toRoot := func(t *graph.Tensor) *graph.Tensor { return g.Tensors[sub.TensorID[t.ID]] }
				toRootOp := func(n *graph.Node) *graph.Node { return g.Nodes[sub.NodeID[n.ID]] }
				if !keepsGrouping(root, want, lo, hi, toRootOp) {
					regrouped++
					continue
				}
				kept++
				got, err := root.Segment(lo, hi, &sc)
				if err != nil {
					t.Fatal(err)
				}
				if got.G != g {
					t.Fatalf("%s groups [%d,%d): the view belongs to another graph", name, lo, hi)
				}
				if diff := diffMapped(got, want, toRoot, toRootOp); diff != "" {
					t.Fatalf("%s groups [%d,%d): the view differs from CoarsenSub: %s", name, lo, hi, diff)
				}
			}
		}
		t.Logf("%s: %d intervals keep the root's grouping, %d regroup", name, kept, regrouped)
		if vg.model && (kept == 0 || (!vg.unrolled && regrouped > 0)) {
			t.Errorf("%s: %d intervals keep the root's grouping, %d regroup", name, kept, regrouped)
		}
		seg, err := root.Segment(0, L, &sc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := seg.Segment(0, 1, &sc); err == nil || !strings.Contains(err.Error(), "of a segment") {
			t.Fatalf("%s: Segment of a segment returned %v, want a refusal", name, err)
		}
		if _, err := seg.SegmentTransient(0, 1, &sc); err == nil || !strings.Contains(err.Error(), "of a segment") {
			t.Fatalf("%s: SegmentTransient of a segment returned %v, want a refusal", name, err)
		}
	}
}

// keepsGrouping reports whether seg, a coarsening of root's groups [lo, hi)
// whose operators node maps to root's, has exactly those groups with exactly
// their slots.
func keepsGrouping(root, seg *Coarse, lo, hi int, node func(*graph.Node) *graph.Node) bool {
	if len(seg.Groups) != hi-lo {
		return false
	}
	for i, g := range seg.Groups {
		if !slices.EqualFunc(g.Slots, root.Groups[lo+i].Slots, func(s, r *Slot) bool {
			return slices.EqualFunc(s.Ops, r.Ops, func(a, b *graph.Node) bool { return node(a) == b })
		}) {
			return false
		}
	}
	return true
}

// viewGraph is a graph whose segments the view tests check.
type viewGraph struct {
	namedGraph
	// grid walks the intervals on a grid of about 24 steps instead of all.
	grid bool
	// model marks a benchmark model; unrolled, one with unrolled cells.
	model, unrolled bool
}

// stride is the step of the interval grid over L groups.
func (vg viewGraph) stride(L int) int {
	if vg.grid {
		return max(1, L/24)
	}
	return 1
}

// viewGraphs are the graphs the view tests segment: the edge graphs, small
// instances of the four families, the four cold-hybrid models
// (bench/workloads/cold-hybrid.json) and WResNet-50, on a grid.
func viewGraphs(t *testing.T) []viewGraph {
	var graphs []viewGraph
	for _, ng := range segmentEdges() {
		graphs = append(graphs, viewGraph{namedGraph: ng})
	}
	for _, cfg := range append(slices.Clone(segmentModels),
		models.Config{Family: "mlp", Depth: 4, Width: 384, Batch: 48},
		models.Config{Family: "mlp", Depth: 8, Width: 256, Batch: 64},
		models.Config{Family: "rnn", Depth: 2, Width: 1024, Batch: 64},
		models.Config{Family: "transformer", Depth: 2, Width: 1024, Batch: 64},
	) {
		m, err := models.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, viewGraph{namedGraph{cfg.String(), m.G}, cfg.Family == "wresnet", true, cfg.Family == "rnn"})
	}
	return graphs
}

// namedGraph is a graph a test coarsens, with a name for its messages.
type namedGraph struct {
	name string
	g    *graph.Graph
}

// segmentEdges are three graphs on which a coarsening of an extracted
// segment is not the whole graph's restricted to it:
//   - "fan-out": relu's output feeds tanh and, past tanh's group, a matmul;
//     in the extraction of the first two groups tanh is relu's only reader,
//     so the two element-wise operators coalesce there and nowhere else;
//   - "feed": tanh reads relu's output in a segment that leaves relu out
//     but starts with another element-wise operator, which an absent
//     producer must not be mistaken for;
//   - "late-link": a forward link (FwdOf) points at a later operator; the
//     whole graph groups the two, an extraction drops the link.
func segmentEdges() []namedGraph {
	fan := graph.New()
	a := fan.Apply("relu", nil, fan.Input("x", shape.Of(8, 8)))
	fan.Apply("matmul", nil, fan.Apply("tanh", nil, a), fan.Weight("w1", shape.Of(8, 8)))
	fan.Apply("matmul", nil, a, fan.Weight("w2", shape.Of(8, 8)))

	feed := graph.New()
	p := feed.Apply("relu", nil, feed.Input("x", shape.Of(8, 8)))
	feed.Apply("matmul", nil, p, feed.Weight("w", shape.Of(8, 8)))
	feed.Apply("sigmoid", nil, feed.Input("x2", shape.Of(8, 8)))
	feed.Apply("tanh", nil, p)

	late := graph.New()
	x := late.Input("x", shape.Of(8, 8))
	first := late.Apply("matmul", nil, x, late.Weight("w1", shape.Of(8, 8)))
	second := late.Apply("matmul", nil, x, late.Weight("w2", shape.Of(8, 8)))
	first.Producer.FwdOf = second.Producer
	return []namedGraph{{"fan-out", fan}, {"feed", feed}, {"late-link", late}}
}

// TestSegmentViewConcurrent: segments only read the coarsening they are cut
// from, so goroutines with a scratch each may coarsen segments of one root at
// once and get the serial keys (run it under -race).
func TestSegmentViewConcurrent(t *testing.T) {
	m, err := models.Build(segmentModels[1])
	if err != nil {
		t.Fatal(err)
	}
	root, err := Coarsen(m.G)
	if err != nil {
		t.Fatal(err)
	}
	L := len(root.Groups)
	keys := func(sc *SegmentScratch) ([]string, error) {
		var out []string
		for lo := 0; lo < L; lo++ {
			for hi := lo + 1; hi <= L; hi++ {
				seg, err := root.Segment(lo, hi, sc)
				if err != nil {
					return nil, err
				}
				out = append(out, string(seg.AppendStructKey(nil)))
			}
		}
		return out, nil
	}
	want, err := keys(&SegmentScratch{})
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]string, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = keys(&SegmentScratch{})
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil || !slices.Equal(got[i], want) {
			t.Fatalf("goroutine %d: error %v, keys equal to the serial ones: %v", i, errs[i], slices.Equal(got[i], want))
		}
	}
}

// diffMapped names the first difference between a segment view and a
// coarsening of the same operators whose tensors and nodes the view's are
// the images of under the two maps, "" when there is none.
func diffMapped(view, c *Coarse, tensor func(*graph.Tensor) *graph.Tensor, node func(*graph.Node) *graph.Node) string {
	if len(view.Vars) != len(c.Vars) || len(view.Groups) != len(c.Groups) {
		return fmt.Sprintf("%d vars and %d groups vs %d and %d", len(view.Vars), len(view.Groups), len(c.Vars), len(c.Groups))
	}
	sameIDs := func(x, y []*Var) bool {
		return slices.EqualFunc(x, y, func(v, w *Var) bool { return v.ID == w.ID })
	}
	for i, v := range view.Vars {
		w := c.Vars[i]
		if v.ID != w.ID || !v.Shape.Equal(w.Shape) || v.HasWeight != w.HasWeight || v.First != w.First || v.Last != w.Last ||
			!slices.EqualFunc(v.Tensors, w.Tensors, func(a, b *graph.Tensor) bool { return a == tensor(b) }) {
			return fmt.Sprintf("var %d: %v [%d,%d] vs %v [%d,%d]", i, v, v.First, v.Last, w, w.First, w.Last)
		}
	}
	for i, g := range view.Groups {
		h := c.Groups[i]
		if g.ID != h.ID || !sameIDs(g.Vars, h.Vars) || !sameIDs(g.NewVars, h.NewVars) || !sameIDs(g.LiveAfter, h.LiveAfter) {
			return fmt.Sprintf("group %d: variable lists", i)
		}
		if !slices.EqualFunc(g.Slots, h.Slots, func(s, r *Slot) bool {
			return s.Desc == r.Desc && s.Sig == r.Sig && sameIDs(s.In, r.In) && s.Out.ID == r.Out.ID &&
				slices.EqualFunc(s.Ops, r.Ops, func(a, b *graph.Node) bool { return a == node(b) })
		}) {
			return fmt.Sprintf("group %d: slots", i)
		}
	}
	if !bytes.Equal(view.AppendStructKey(nil), c.AppendStructKey(nil)) {
		return "structural key"
	}
	return ""
}

// TestSegmentViewAllocs is the segment view's allocation ceiling: with a warm
// scratch a segment costs the same constant number of objects whatever it
// holds (12: the Coarse, its ten slabs and the variable order; its other
// working tables come from the scratch), and what they weigh follows the
// segment, not its graph — a one-group segment allocates the same bytes in an
// MLP of any depth.
func TestSegmentViewAllocs(t *testing.T) {
	const objects = 12
	for _, cfg := range segmentModels {
		m, err := models.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		root, err := Coarsen(m.G)
		if err != nil {
			t.Fatal(err)
		}
		L := len(root.Groups)
		var sc SegmentScratch
		for _, hi := range []int{1, L / 2, L} {
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := root.Segment(0, hi, &sc); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != objects {
				t.Errorf("%s groups [0,%d): %v allocations, want %d", cfg.Family, hi, allocs, objects)
			}
		}
	}

	var key []byte
	var weight uint64
	for _, depth := range []int{2, 8, 32} {
		m, err := models.Build(models.Config{Family: "mlp", Depth: depth, Width: 64, Batch: 16})
		if err != nil {
			t.Fatal(err)
		}
		root, err := Coarsen(m.G)
		if err != nil {
			t.Fatal(err)
		}
		var sc SegmentScratch
		seg, err := root.Segment(0, 1, &sc)
		if err != nil {
			t.Fatal(err)
		}
		b := bytesPerRun(100, func() {
			if _, err := root.Segment(0, 1, &sc); err != nil {
				t.Fatal(err)
			}
		})
		if k := seg.AppendStructKey(nil); key == nil {
			key, weight = k, b
		} else if !bytes.Equal(k, key) {
			t.Fatalf("mlp-%d: the first group is another problem than in mlp-2", depth)
		} else if b != weight {
			t.Errorf("mlp-%d: the first group allocates %d bytes, %d in mlp-2", depth, b, weight)
		}
	}
}

// TestSegmentViewTransient: for every interval of an MLP, an RNN and a
// transformer, the scratch-backed view (SegmentTransient) is the owned one
// (Segment): the same variables, groups, slots and operands and the same
// structural key bytes. A warm scratch coarsens a transient view without
// allocating, whatever the interval, while the owned path keeps its twelve
// objects. An owned view is still intact after later transient calls on the
// same scratch: it shares none of its storage.
func TestSegmentViewTransient(t *testing.T) {
	const owned, transient = 12, 0
	for _, cfg := range segmentModels[:3] {
		m, err := models.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		root, err := Coarsen(m.G)
		if err != nil {
			t.Fatal(err)
		}
		L := len(root.Groups)
		var sc SegmentScratch
		var prev *Coarse
		var prevKey []byte
		for lo := 0; lo < L; lo++ {
			for hi := lo + 1; hi <= L; hi++ {
				want, err := root.Segment(lo, hi, &sc)
				if err != nil {
					t.Fatal(err)
				}
				got, err := root.SegmentTransient(lo, hi, &sc)
				if err != nil {
					t.Fatal(err)
				}
				if got == want || got.G != want.G {
					t.Fatalf("%s groups [%d,%d): the transient view is the owned one or belongs to another graph", cfg.Family, lo, hi)
				}
				if diff := diffCoarse(got, want); diff != "" {
					t.Fatalf("%s groups [%d,%d): transient and owned views differ: %s", cfg.Family, lo, hi, diff)
				}
				if !bytes.Equal(got.AppendStructKey(nil), want.AppendStructKey(nil)) {
					t.Fatalf("%s groups [%d,%d): transient and owned views key apart", cfg.Family, lo, hi)
				}
				if prev != nil && !bytes.Equal(prev.AppendStructKey(nil), prevKey) {
					t.Fatalf("%s groups [%d,%d): a transient call changed the previous interval's owned view", cfg.Family, lo, hi)
				}
				prev, prevKey = want, want.AppendStructKey(nil)
				if allocs := testing.AllocsPerRun(5, func() {
					if _, err := root.SegmentTransient(lo, hi, &sc); err != nil {
						t.Fatal(err)
					}
				}); allocs > transient {
					t.Fatalf("%s groups [%d,%d): a warm transient view costs %v allocations, ceiling %d", cfg.Family, lo, hi, allocs, transient)
				}
				if allocs := testing.AllocsPerRun(5, func() {
					if _, err := root.Segment(lo, hi, &sc); err != nil {
						t.Fatal(err)
					}
				}); allocs != owned {
					t.Fatalf("%s groups [%d,%d): an owned view costs %v allocations, want %d", cfg.Family, lo, hi, allocs, owned)
				}
			}
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the average heap bytes
// allocated by one call of f, after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// BenchmarkSegmentView coarsens the middle half of each family's groups — a
// typical pipeline segment — as a view of the root coarsening, with a warm
// scratch. Run with -benchmem.
func BenchmarkSegmentView(b *testing.B) {
	for _, cfg := range []models.Config{
		{Family: "mlp", Depth: 8, Width: 256, Batch: 64},
		{Family: "rnn", Depth: 2, Width: 1024, Batch: 64},
		{Family: "transformer", Depth: 2, Width: 1024, Batch: 64},
	} {
		m, err := models.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		root, err := Coarsen(m.G)
		if err != nil {
			b.Fatal(err)
		}
		L := len(root.Groups)
		var sc SegmentScratch
		b.Run(cfg.Family, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := root.Segment(L/4, 3*L/4, &sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// diffCoarse names the first difference between two coarsenings of one
// graph ("" when there is none), comparing variables and operators by ID and
// the slots' carried descriptions, pricing signatures and operands. A
// coarsening with a signature table must index each slot's signature by its
// SigID; the numberings of two tables need not agree.
func diffCoarse(a, b *Coarse) string {
	if diff := diffStructure(a, b); diff != "" {
		return diff
	}
	interned := func(c *Coarse, s *Slot) bool {
		return c.sigs == nil || int(s.SigID) < len(c.sigs) && c.sigs[s.SigID] == s.Sig
	}
	for i, g := range a.Groups {
		if !slices.EqualFunc(g.Slots, b.Groups[i].Slots, func(s, r *Slot) bool {
			return s.Sig == r.Sig && s.Out.ID == r.Out.ID && interned(a, s) && interned(b, r) &&
				slices.EqualFunc(s.In, r.In, func(v, w *Var) bool { return v.ID == w.ID })
		}) {
			return fmt.Sprintf("group %d: slot pricing signatures or operands", i)
		}
	}
	return ""
}

// diffStructure is diffCoarse without the pricing signatures, which the
// reference coarsening does not carry.
func diffStructure(a, b *Coarse) string {
	if len(a.Vars) != len(b.Vars) || len(a.Groups) != len(b.Groups) {
		return fmt.Sprintf("%d vars and %d groups vs %d and %d", len(a.Vars), len(a.Groups), len(b.Vars), len(b.Groups))
	}
	sameVars := func(x, y []*Var) bool {
		return slices.EqualFunc(x, y, func(v, w *Var) bool { return v.ID == w.ID })
	}
	for i, v := range a.Vars {
		w := b.Vars[i]
		if v.ID != w.ID || !v.Shape.Equal(w.Shape) || v.HasWeight != w.HasWeight || v.First != w.First ||
			v.Last != w.Last || !slices.Equal(v.Tensors, w.Tensors) {
			return fmt.Sprintf("var %d: %v [%d,%d] vs %v [%d,%d]", i, v, v.First, v.Last, w, w.First, w.Last)
		}
	}
	for i, g := range a.Groups {
		h := b.Groups[i]
		if g.ID != h.ID || !sameVars(g.Vars, h.Vars) || !sameVars(g.NewVars, h.NewVars) || !sameVars(g.LiveAfter, h.LiveAfter) {
			return fmt.Sprintf("group %d: variable lists", i)
		}
		if !slices.EqualFunc(g.Slots, h.Slots, func(s, r *Slot) bool {
			return s.Desc == r.Desc && slices.Equal(s.Ops, r.Ops)
		}) {
			return fmt.Sprintf("group %d: slots", i)
		}
	}
	return ""
}

// varOf returns the variable of c that t is a member of, nil when none is.
func varOf(c *Coarse, t *graph.Tensor) *Var {
	for _, v := range c.Vars {
		if slices.Contains(v.Tensors, t) {
			return v
		}
	}
	return nil
}

func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}
