package coarsen

import (
	"fmt"
	"slices"
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
		wv := c.VarOf(w)
		gv := c.VarOf(w.Grad)
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
			if base != nil && c.VarOf(ten) != c.VarOf(base) {
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
	if c.VarOf(x) != c.VarOf(a) || c.VarOf(a) != c.VarOf(b) || c.VarOf(b) != c.VarOf(cdf) {
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
	if c.VarOf(a) == c.VarOf(b) {
		t.Fatal("matmul must not merge its input and output variables")
	}
	if c.VarOf(b) != c.VarOf(cdf) {
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
			if !vars[c.VarOf(s.Rep().Output).ID] {
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
	v := c.VarOf(x)
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
	g := graph.New()
	w := g.Weight("w", shape.Of(8, 8))
	for ts, rows := range []int64{4, 4, 6, 4} {
		x := g.Input(fmt.Sprintf("x%d", ts), shape.Of(rows, 8))
		for i := 0; i < 2; i++ { // two same-signature ops per timestep: ordinals 0 and 1
			y := g.Apply("matmul", nil, x, w)
			y.Producer.UnrollTag, y.Producer.Timestep = "cell", ts
		}
	}
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

// TestCoarsenSubAllocsBounded is the segment coarsening's allocation
// ceiling, a + b·groups with b = 0: a constant number of slabs whatever the
// segment holds (18 today), where the append-and-map builder allocated
// several objects per group, slot and variable (7523 on the whole WResNet).
func TestCoarsenSubAllocsBounded(t *testing.T) {
	const ceiling = 20
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
		for _, hi := range []int{1, L / 2, L} {
			sub, err := m.G.Subgraph(func(n *graph.Node) bool { return groupOf[n.ID] < hi })
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := CoarsenSub(root, sub); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > ceiling {
				t.Errorf("%s groups [0,%d): %v allocations, ceiling %d", cfg.Family, hi, allocs, ceiling)
			}
		}
	}
}

// BenchmarkCoarsenSub coarsens the middle half of each family's groups — a
// typical pipeline segment — from the root's node facts. Run with -benchmem.
func BenchmarkCoarsenSub(b *testing.B) {
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
		groupOf := groupIndex(root)
		L := len(root.Groups)
		sub, err := m.G.Subgraph(func(n *graph.Node) bool { return groupOf[n.ID] >= L/4 && groupOf[n.ID] < 3*L/4 })
		if err != nil {
			b.Fatal(err)
		}
		b.Run(cfg.Family, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := CoarsenSub(root, sub); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// diffCoarse names the first difference between two coarsenings of one
// graph ("" when there is none), comparing variables and operators by ID and
// the slots' carried descriptions and pricing signatures.
func diffCoarse(a, b *Coarse) string {
	if diff := diffStructure(a, b); diff != "" {
		return diff
	}
	for i, g := range a.Groups {
		if !slices.EqualFunc(g.Slots, b.Groups[i].Slots, func(s, r *Slot) bool { return s.Sig == r.Sig }) {
			return fmt.Sprintf("group %d: slot pricing signatures", i)
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
	if !sameVars(a.varOf, b.varOf) {
		return "tensor-to-variable map"
	}
	return ""
}

func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}
