// Package partition discovers the basic partition-n-reduce strategies of an
// operator from its TDL description (EuroSys'19 Sec 4.2) and prices the
// communication each strategy incurs under a tensor-cut assignment
// (Lemma 1). A *basic* strategy partitions the operator's work along exactly
// one axis among k worker groups; the recursive search composes basic
// strategies into multi-dimensional plans.
//
//tofu:searchpath reachable from dp.Solve / recursive.Partition; nodeterm enforces determinism
package partition

import (
	"fmt"

	"tofu/internal/shape"
	"tofu/internal/tdl"
)

// Kind distinguishes the two cases of partition-n-reduce (Sec 3.1).
type Kind int

const (
	// SplitOutput is "case 1": each worker computes a slab of the output
	// along one output dimension; the final output is the concatenation.
	SplitOutput Kind = iota
	// SplitReduce is "case 2": each worker computes a full-size partial
	// output restricted to a slab of one reduction axis; the final output is
	// the element-wise reduction of the partials (output reduction).
	SplitReduce
)

func (k Kind) String() string {
	if k == SplitOutput {
		return "output"
	}
	return "reduce"
}

// Strategy is one basic partition strategy of an operator.
type Strategy struct {
	Kind    Kind
	Axis    string      // the partitioned axis name
	OutDim  int         // output dimension index (SplitOutput); -1 otherwise
	Reducer tdl.Reducer // aggregation for SplitReduce; NoReduce otherwise
}

func (s Strategy) String() string {
	if s.Kind == SplitOutput {
		return fmt.Sprintf("split-out(%s/dim%d)", s.Axis, s.OutDim)
	}
	return fmt.Sprintf("split-reduce(%s/%s)", s.Axis, s.Reducer)
}

// Enumerate lists every basic partition strategy of the described operator:
// one per (non-opaque) output dimension and one per top-level reduction
// axis. This is the automatic replacement for the manual per-layer discovery
// of prior work; in particular it never "forgets" the output-reduction
// strategies that ICML18 missed (Sec 7.3).
func Enumerate(desc *tdl.OpDesc) []Strategy {
	out := make([]Strategy, 0, len(desc.OutAxes)+len(desc.ReduceAxes()))
	for i, ax := range desc.OutAxes {
		if desc.OpaqueOutAxis(ax) {
			continue // produced inside an opaque function: not partitionable
		}
		out = append(out, Strategy{Kind: SplitOutput, Axis: ax, OutDim: i})
	}
	if red := desc.TopReducer(); red != tdl.NoReduce {
		for _, ra := range desc.ReduceAxes() {
			out = append(out, Strategy{Kind: SplitReduce, Axis: ra.Name, OutDim: -1, Reducer: red})
		}
	}
	return out
}

// Spec bundles an operator instance: its description plus concrete shapes.
type Spec struct {
	Desc     *tdl.OpDesc
	InShapes []shape.Shape
	OutShape shape.Shape
	DType    shape.DType
}

// Validate checks that the spec's shapes match the description's ranks.
func (sp *Spec) Validate() error {
	if len(sp.InShapes) != len(sp.Desc.Inputs) {
		return fmt.Errorf("partition: op %s expects %d inputs, got %d",
			sp.Desc.Name, len(sp.Desc.Inputs), len(sp.InShapes))
	}
	for i, p := range sp.Desc.Inputs {
		if sp.InShapes[i].Rank() != p.Rank {
			return fmt.Errorf("partition: op %s input %s has rank %d, shape %v",
				sp.Desc.Name, p.Name, p.Rank, sp.InShapes[i])
		}
	}
	if sp.OutShape.Rank() != len(sp.Desc.OutAxes) {
		return fmt.Errorf("partition: op %s output rank %d, shape %v",
			sp.Desc.Name, len(sp.Desc.OutAxes), sp.OutShape)
	}
	return nil
}

// Applicable reports whether the strategy can divide this instance's work
// into k equal parts (the partitioned extent must divide evenly).
func (sp *Spec) Applicable(s Strategy, k int64) bool {
	if k <= 1 {
		return k == 1
	}
	if s.Kind == SplitOutput {
		return sp.OutShape.CanSplit(s.OutDim, k)
	}
	ext, err := sp.reduceExtent(s.Axis)
	if err != nil {
		return false
	}
	return ext >= k && ext%k == 0
}

// reduceExtent resolves the concrete extent of a top-level reduction axis.
func (sp *Spec) reduceExtent(axis string) (int64, error) {
	return ReduceExtent(sp.Desc, sp.InShapes, axis)
}

// ReduceExtent resolves the concrete extent of a named top-level reduction
// axis against a set of input shapes (which need not be the spec's own — the
// recursive search checks divisibility against current, already-divided
// shapes while pricing at original ones).
func ReduceExtent(desc *tdl.OpDesc, inShapes []shape.Shape, axis string) (int64, error) {
	for _, ra := range desc.ReduceAxes() {
		if ra.Name != axis {
			continue
		}
		if ra.Extent.Input == "" {
			return ra.Extent.Const, nil
		}
		idx := desc.InputIndex(ra.Extent.Input)
		if idx < 0 {
			return 0, fmt.Errorf("partition: axis %s bound to unknown input %s", axis, ra.Extent.Input)
		}
		return inShapes[idx].Dim(ra.Extent.Dim), nil
	}
	return 0, fmt.Errorf("partition: op %s has no reduce axis %s", desc.Name, axis)
}
