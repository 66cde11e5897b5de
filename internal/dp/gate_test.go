package dp

import (
	"math/rand"
	"testing"

	"tofu/internal/coarsen"
	"tofu/internal/partition"
	"tofu/internal/shape"
	"tofu/internal/tdl"
)

// TestGateFollowsAlphabets is the lemma the step memo rests on: the
// current-shape gate (partition.Spec.Applicable at the step's shapes) keeps
// exactly the strategies admits reads off the operands' alphabets. It covers
// every operator of tdl.Std, the attention operators among them, at random
// shapes with every dimension in 1–24 and K ∈ {2, 3, 5}; operands sometimes
// share a variable, as coarsened slots do, and then a shape.
func TestGateFollowsAlphabets(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	randShape := func(rank int) shape.Shape {
		s := make(shape.Shape, rank)
		for d := range s {
			s[d] = 1 + rng.Int63n(24)
		}
		return s
	}
	var admitted, rejected, constReduce, inputReduce int
	for _, name := range tdl.Std.Names() {
		desc, err := tdl.Std.Describe(name, nil)
		if err != nil {
			t.Fatalf("describe %s: %v", name, err)
		}
		constAxis := map[string]bool{}
		for _, ra := range desc.ReduceAxes() {
			constAxis[ra.Name] = ra.Extent.Input == ""
		}
		strategies := partition.Enumerate(desc)
		for _, k := range []int64{2, 3, 5} {
			for trial := 0; trial < 200; trial++ {
				// Operand positions 0..n-1 are the inputs, n the output; each
				// takes a fresh variable or, at equal rank, an earlier one.
				n := len(desc.Inputs)
				ranks := make([]int, n+1)
				for i, in := range desc.Inputs {
					ranks[i] = in.Rank
				}
				ranks[n] = len(desc.OutAxes)
				vars := make([]*coarsen.Var, 0, n+1)
				operand := make([]*coarsen.Var, n+1)
				for i, rank := range ranks {
					if len(vars) > 0 && rng.Intn(4) == 0 {
						if v := vars[rng.Intn(len(vars))]; v.Shape.Rank() == rank {
							operand[i] = v
							continue
						}
					}
					operand[i] = &coarsen.Var{ID: len(vars), Shape: randShape(rank)}
					vars = append(vars, operand[i])
				}
				alphas := make([]varAlpha, len(vars))
				for _, v := range vars {
					a := &alphas[v.ID]
					a.digitOf = make([]int8, v.Shape.Rank())
					for d := range a.digitOf {
						a.digitOf[d] = -1
						if v.Shape.CanSplit(d, k) {
							a.digitOf[d] = int8(len(a.dims))
							a.dims = append(a.dims, d)
						}
					}
				}
				slot := &coarsen.Slot{In: operand[:n], Out: operand[n]}
				spec := partition.Spec{Desc: desc, InShapes: make([]shape.Shape, n), OutShape: operand[n].Shape}
				for i, v := range operand[:n] {
					spec.InShapes[i] = v.Shape
				}
				for _, st := range strategies {
					want := spec.Applicable(st, k)
					if got := admits(desc, slot, alphas, k, st); got != want {
						t.Fatalf("%s, K=%d, inputs %v, output %v: %v admitted %v, the current-shape gate %v",
							name, k, spec.InShapes, spec.OutShape, st, got, want)
					}
					if want {
						admitted++
					} else {
						rejected++
					}
					if st.Kind == partition.SplitReduce && constAxis[st.Axis] {
						constReduce++
					} else if st.Kind == partition.SplitReduce {
						inputReduce++
					}
				}
			}
		}
	}
	if admitted == 0 || rejected == 0 || constReduce == 0 || inputReduce == 0 {
		t.Fatalf("vacuous: %d admitted, %d rejected, %d verdicts on constant and %d on input-bound reduce extents",
			admitted, rejected, constReduce, inputReduce)
	}
	t.Logf("%d operators: %d strategy verdicts admitted, %d rejected; %d on constant and %d on input-bound reduce extents",
		len(tdl.Std.Names()), admitted, rejected, constReduce, inputReduce)
}
