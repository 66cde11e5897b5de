package coarsen

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"tofu/internal/graph"
)

// referenceSegment is the definition of a segment view, written plainly with
// maps: root's groups [lo, hi) with their slots; over the tensors those
// groups' operators touch, a union-find joined by the slots' unions — an
// element-wise operator's same-shaped operands with its output, a timestep
// instance's operands with its slot leader's; each class one variable,
// numbered at the first sight of a member (operators in ascending ID, inputs
// then output), its members listed in sighting order.
func referenceSegment(root *Coarse, lo, hi int) *Coarse {
	var ops []*graph.Node
	for _, grp := range root.Groups[lo:hi] {
		for _, s := range grp.Slots {
			ops = append(ops, s.Ops...)
		}
	}
	slices.SortFunc(ops, func(a, b *graph.Node) int { return a.ID - b.ID })
	parent := map[*graph.Tensor]*graph.Tensor{}
	var sighted []*graph.Tensor
	for _, n := range ops {
		for _, t := range append(slices.Clone(n.Inputs), n.Output) {
			if _, ok := parent[t]; !ok {
				parent[t] = t
				sighted = append(sighted, t)
			}
		}
	}
	var find func(t *graph.Tensor) *graph.Tensor
	find = func(t *graph.Tensor) *graph.Tensor {
		if parent[t] != t {
			parent[t] = find(parent[t])
		}
		return parent[t]
	}
	union := func(a, b *graph.Tensor) { parent[find(b)] = find(a) }
	for _, grp := range root.Groups[lo:hi] {
		for _, s := range grp.Slots {
			rep := s.Rep()
			for _, n := range s.Ops {
				if s.Desc.IsElementwise() {
					for _, in := range n.Inputs {
						if in.Shape.Equal(n.Output.Shape) {
							union(in, n.Output)
						}
					}
				}
				if n != rep {
					for p, in := range n.Inputs {
						union(in, rep.Inputs[p])
					}
					union(n.Output, rep.Output)
				}
			}
		}
	}

	seg := &Coarse{G: root.G, sigs: root.sigs}
	vars := map[*graph.Tensor]*Var{} // by class root
	for _, t := range sighted {
		v := vars[find(t)]
		if v == nil {
			v = &Var{ID: len(seg.Vars), Shape: t.Shape, First: -1, Last: -1}
			vars[find(t)] = v
			seg.Vars = append(seg.Vars, v)
		}
		v.Tensors = append(v.Tensors, t)
		v.HasWeight = v.HasWeight || t.Kind == graph.Weight
	}
	for gi, rg := range root.Groups[lo:hi] {
		grp := &Group{ID: gi}
		for _, rs := range rg.Slots {
			s := &Slot{Ops: rs.Ops, Desc: rs.Desc, Sig: rs.Sig, SigID: rs.SigID, Out: vars[find(rs.Rep().Output)]}
			for _, in := range rs.Rep().Inputs {
				s.In = append(s.In, vars[find(in)])
			}
			for _, v := range append(slices.Clone(s.In), s.Out) {
				if !slices.Contains(grp.Vars, v) {
					grp.Vars = append(grp.Vars, v)
				}
				if v.First < 0 {
					v.First = gi
				}
				v.Last = gi
			}
			grp.Slots = append(grp.Slots, s)
		}
		slices.SortFunc(grp.Vars, byVarID)
		seg.Groups = append(seg.Groups, grp)
	}
	for _, grp := range seg.Groups {
		for _, v := range grp.Vars {
			if v.First == grp.ID {
				grp.NewVars = append(grp.NewVars, v)
			}
		}
	}
	for _, v := range seg.Vars {
		for gi := v.First; gi < v.Last; gi++ {
			seg.Groups[gi].LiveAfter = append(seg.Groups[gi].LiveAfter, v)
		}
	}
	return seg
}

// TestSegmentViewMatchesReference: on every interval of the view graphs
// (WResNet-50 on a grid), regrouping or not, Segment and SegmentTransient
// return referenceSegment's coarsening — the same variables with the same
// members, shapes, First and Last, the same groups and variable lists, the
// same slots with the same operators, operands, descriptions and signatures,
// and the same structural key bytes — and every variable is same-shaped and
// lies inside one root variable. One scratch serves every interval, so each
// call must leave its tables clean, and a warm transient view allocates
// nothing.
func TestSegmentViewMatchesReference(t *testing.T) {
	for _, vg := range viewGraphs(t) {
		name := vg.name
		root, err := Coarsen(vg.g)
		if err != nil {
			t.Fatal(err)
		}
		rootVar := map[*graph.Tensor]*Var{}
		for _, v := range root.Vars {
			for _, tn := range v.Tensors {
				rootVar[tn] = v
			}
		}
		L := len(root.Groups)
		stride := vg.stride(L)
		var sc SegmentScratch
		for lo := 0; lo < L; lo += stride {
			for hi := L; hi > lo; hi -= stride {
				want := referenceSegment(root, lo, hi)
				wantKey := want.AppendStructKey(nil)
				got, err := root.Segment(lo, hi, &sc)
				if err != nil {
					t.Fatal(err)
				}
				transient, err := root.SegmentTransient(lo, hi, &sc)
				if err != nil {
					t.Fatal(err)
				}
				for _, seg := range []*Coarse{got, transient} {
					if seg.G != root.G {
						t.Fatalf("%s groups [%d,%d): the view belongs to another graph", name, lo, hi)
					}
					if diff := diffCoarse(seg, want); diff != "" {
						t.Fatalf("%s groups [%d,%d): the view differs from the reference: %s", name, lo, hi, diff)
					}
					if !bytes.Equal(seg.AppendStructKey(nil), wantKey) {
						t.Fatalf("%s groups [%d,%d): the view and the reference key apart", name, lo, hi)
					}
				}
				for _, v := range got.Vars {
					for _, tn := range v.Tensors {
						if !tn.Shape.Equal(v.Shape) || rootVar[tn] != rootVar[v.Tensors[0]] {
							t.Fatalf("%s groups [%d,%d): var %v spans shapes or root variables at %v", name, lo, hi, v, tn)
						}
					}
				}
				if lo%3 == 0 {
					if allocs := testing.AllocsPerRun(3, func() {
						if _, err := root.SegmentTransient(lo, hi, &sc); err != nil {
							t.Fatal(err)
						}
					}); allocs != 0 {
						t.Fatalf("%s groups [%d,%d): a warm transient view costs %v allocations", name, lo, hi, allocs)
					}
				}
			}
		}
		for _, tab := range [][]int32{sc.vvar, sc.vtensor} {
			if slices.ContainsFunc(tab, func(x int32) bool { return x != 0 }) {
				t.Fatalf("%s: a view left its scratch dirty", name)
			}
		}
		if slices.ContainsFunc(sc.parent, func(x int32) bool { return x != -1 }) {
			t.Fatalf("%s: a view left its union-find dirty", name)
		}
	}
}

// TestSegmentViewOrderLimit: a graph whose tensors or operand positions
// overflow the view's order keys is refused with an error naming the limit,
// and one just inside both is not.
func TestSegmentViewOrderLimit(t *testing.T) {
	for _, c := range []struct {
		tensors int
		sights  int64
		refused bool
	}{
		{1<<orderBits - 1, 1<<(64-orderBits) - 1, false},
		{1 << orderBits, 10, true},
		{10, 1 << (64 - orderBits), true},
	} {
		err := orderLimit(c.tensors, c.sights)
		if (err != nil) != c.refused || (err != nil && !strings.Contains(err.Error(), "limit")) {
			t.Errorf("%d tensors, %d operand positions: %v, want refused %v", c.tensors, c.sights, err, c.refused)
		}
	}
}
