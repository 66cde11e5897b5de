// Package tdl implements Tofu's Tensor Description Language (EuroSys'19,
// Sec 4.1) as a Go expression-builder DSL. TDL follows Halide's
// "tensor-as-a-lambda" idea: an operator's output tensor is a lambda from
// index variables to a value expression over the operator's inputs. TDL is
// deliberately not Turing-complete — no loops, no recursion, no
// data-dependent indexing — which is exactly what makes the partition
// analysis in internal/partition decidable.
//
// The original prototype embeds TDL in Python:
//
//	@tofu.op
//	def conv1d(data, filters):
//	    return lambda b, co, x: Sum(lambda ci, dx:
//	        data[b, ci, x+dx] * filters[ci, co, dx])
//
// The equivalent description with this package:
//
//	b, co, x := tdl.Ax("b"), tdl.Ax("co"), tdl.Ax("x")
//	ci, dx := tdl.Ax("ci"), tdl.Ax("dx")
//	desc := tdl.Describe("conv1d").
//	    In("data", 3).In("filters", 3).
//	    Out(b, co, x).
//	    Reduce(tdl.Sum,
//	        tdl.RVar(ci, tdl.ExtentOf("data", 1)),
//	        tdl.RVar(dx, tdl.ExtentOf("filters", 2))).
//	    Is(tdl.Mul(
//	        tdl.At("data", b, ci, x.Plus(dx)),
//	        tdl.At("filters", ci, co, dx)))
package tdl

import (
	"fmt"
	"sort"
	"strings"
)

// Reducer is a commutative, associative aggregation function; Tofu's
// built-ins (Sec 4.1).
type Reducer int

const (
	NoReduce Reducer = iota
	Sum
	Max
	Min
	Prod
)

func (r Reducer) String() string {
	switch r {
	case NoReduce:
		return "none"
	case Sum:
		return "Sum"
	case Max:
		return "Max"
	case Min:
		return "Min"
	case Prod:
		return "Prod"
	default:
		return fmt.Sprintf("Reducer(%d)", int(r))
	}
}

// Index is an affine index expression: Σ coeff·axis + Const. TDL restricts
// tensor indices to affine forms; this representation makes the restriction
// structural (a non-affine index simply cannot be built).
type Index struct {
	Terms []IndexTerm // sorted by axis name, no zero coefficients
	Const float64
}

// IndexTerm is one axis contribution to an affine index expression.
type IndexTerm struct {
	Axis  string
	Coeff float64
}

// Ax returns the index expression consisting of the single axis variable.
func Ax(name string) Index {
	return Index{Terms: []IndexTerm{{Axis: name, Coeff: 1}}}
}

// IdxConst returns the constant index expression c.
func IdxConst(c float64) Index { return Index{Const: c} }

// Plus returns i + o.
func (i Index) Plus(o Index) Index { return i.combine(o, 1) }

// Minus returns i - o.
func (i Index) Minus(o Index) Index { return i.combine(o, -1) }

// PlusConst returns i + c.
func (i Index) PlusConst(c float64) Index {
	out := i.clone()
	out.Const += c
	return out
}

// Times returns i scaled by the constant k (e.g. strided convolution 2y+ky).
func (i Index) Times(k float64) Index {
	out := Index{Const: i.Const * k}
	for _, t := range i.Terms {
		if t.Coeff*k != 0 {
			out.Terms = append(out.Terms, IndexTerm{Axis: t.Axis, Coeff: t.Coeff * k})
		}
	}
	return out
}

func (i Index) clone() Index {
	out := Index{Const: i.Const, Terms: make([]IndexTerm, len(i.Terms))}
	copy(out.Terms, i.Terms)
	return out
}

func (i Index) combine(o Index, sign float64) Index {
	coeff := make(map[string]float64, len(i.Terms)+len(o.Terms))
	for _, t := range i.Terms {
		coeff[t.Axis] += t.Coeff
	}
	for _, t := range o.Terms {
		coeff[t.Axis] += sign * t.Coeff
	}
	names := make([]string, 0, len(coeff))
	for n, c := range coeff {
		if c != 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	out := Index{Const: i.Const + sign*o.Const}
	for _, n := range names {
		out.Terms = append(out.Terms, IndexTerm{Axis: n, Coeff: coeff[n]})
	}
	return out
}

// CoeffOf returns the coefficient of the named axis (0 if absent).
func (i Index) CoeffOf(axis string) float64 {
	for _, t := range i.Terms {
		if t.Axis == axis {
			return t.Coeff
		}
	}
	return 0
}

// Axes returns the names of all axes the index expression references.
func (i Index) Axes() []string {
	out := make([]string, len(i.Terms))
	for j, t := range i.Terms {
		out[j] = t.Axis
	}
	return out
}

// IsSingleAxis reports whether the expression is exactly coeff·axis + const
// over a single axis, returning the axis and coefficient.
func (i Index) IsSingleAxis() (axis string, coeff float64, ok bool) {
	if len(i.Terms) != 1 {
		return "", 0, false
	}
	return i.Terms[0].Axis, i.Terms[0].Coeff, true
}

func (i Index) String() string {
	var b strings.Builder
	for j, t := range i.Terms {
		if j > 0 {
			b.WriteString("+")
		}
		if t.Coeff == 1 {
			b.WriteString(t.Axis)
		} else {
			fmt.Fprintf(&b, "%g%s", t.Coeff, t.Axis)
		}
	}
	if i.Const != 0 || len(i.Terms) == 0 {
		if len(i.Terms) > 0 {
			b.WriteString("+")
		}
		fmt.Fprintf(&b, "%g", i.Const)
	}
	return b.String()
}

// Scalar is a scalar-valued TDL expression: the body of the output lambda.
type Scalar interface {
	fmt.Stringer
	// Accesses appends every tensor access reachable in the expression,
	// tagging each with whether it sits under a Reduce node.
	accesses(underReduce bool, out *[]TaggedAccess)
	isScalar()
}

// TaggedAccess is a tensor access found while walking a Scalar expression.
type TaggedAccess struct {
	Access      *Access
	UnderReduce bool
}

// Access reads one element of an input tensor at an affine index per
// dimension: data[b, ci, x+dx].
type Access struct {
	Tensor string
	Index  []Index
}

// At builds a tensor access expression.
func At(tensor string, idx ...Index) *Access {
	return &Access{Tensor: tensor, Index: idx}
}

func (a *Access) isScalar() {}
func (a *Access) accesses(underReduce bool, out *[]TaggedAccess) {
	*out = append(*out, TaggedAccess{Access: a, UnderReduce: underReduce})
}
func (a *Access) String() string {
	parts := make([]string, len(a.Index))
	for i, ix := range a.Index {
		parts[i] = ix.String()
	}
	return a.Tensor + "[" + strings.Join(parts, ",") + "]"
}

// Num is a scalar constant.
type Num struct{ V float64 }

func (n *Num) isScalar()                                    {}
func (n *Num) accesses(underReduce bool, _ *[]TaggedAccess) {}
func (n *Num) String() string                               { return fmt.Sprintf("%g", n.V) }

// BinOpKind enumerates scalar binary operations.
type BinOpKind int

const (
	OpAdd BinOpKind = iota
	OpSub
	OpMul
	OpDiv
	OpMax
	OpMin
)

func (k BinOpKind) String() string {
	switch k {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	default:
		return "?"
	}
}

// Bin is a scalar binary operation.
type Bin struct {
	Op   BinOpKind
	L, R Scalar
}

// Add builds l + r.
func Add(l, r Scalar) *Bin { return &Bin{Op: OpAdd, L: l, R: r} }

// Sub builds l - r.
func Sub(l, r Scalar) *Bin { return &Bin{Op: OpSub, L: l, R: r} }

// Mul builds l * r.
func Mul(l, r Scalar) *Bin { return &Bin{Op: OpMul, L: l, R: r} }

// Div builds l / r.
func Div(l, r Scalar) *Bin { return &Bin{Op: OpDiv, L: l, R: r} }

func (b *Bin) isScalar() {}
func (b *Bin) accesses(underReduce bool, out *[]TaggedAccess) {
	b.L.accesses(underReduce, out)
	b.R.accesses(underReduce, out)
}
func (b *Bin) String() string {
	return "(" + b.L.String() + " " + b.Op.String() + " " + b.R.String() + ")"
}

// Unary is an elementwise scalar function application such as exp or tanh.
// The function is opaque to the analysis — only the data dependence matters.
type Unary struct {
	Fn string
	X  Scalar
}

// Apply builds fn(x) for a named scalar function.
func Apply(fn string, x Scalar) *Unary { return &Unary{Fn: fn, X: x} }

func (u *Unary) isScalar() {}
func (u *Unary) accesses(underReduce bool, out *[]TaggedAccess) {
	u.X.accesses(underReduce, out)
}
func (u *Unary) String() string { return u.Fn + "(" + u.X.String() + ")" }

// ReduceExpr aggregates the body over one or more reduction axes:
// Sum(lambda ci, dx: ...). In TDL reductions may nest anywhere in the
// expression, but only a top-level reduction yields "case 2" output-reduction
// partition strategies (Sec 4.2).
type ReduceExpr struct {
	Red  Reducer
	Axes []ReduceAxis
	Body Scalar
}

// ReduceAxis binds a reduction axis name to its extent, which comes from a
// dimension of one of the operator's inputs (or a constant).
type ReduceAxis struct {
	Name   string
	Extent Extent
}

// RVar builds a reduction-axis binding from an axis index expression (which
// must be a bare axis) and an extent.
func RVar(ax Index, e Extent) ReduceAxis {
	name, coeff, ok := ax.IsSingleAxis()
	if !ok || coeff != 1 || ax.Const != 0 {
		panic("tdl: RVar requires a bare axis variable")
	}
	return ReduceAxis{Name: name, Extent: e}
}

// Reduce builds a reduction expression.
func Reduce(red Reducer, axes []ReduceAxis, body Scalar) *ReduceExpr {
	return &ReduceExpr{Red: red, Axes: axes, Body: body}
}

func (r *ReduceExpr) isScalar() {}
func (r *ReduceExpr) accesses(_ bool, out *[]TaggedAccess) {
	r.Body.accesses(true, out)
}
func (r *ReduceExpr) String() string {
	names := make([]string, len(r.Axes))
	for i, a := range r.Axes {
		names[i] = a.Name
	}
	return r.Red.String() + "(" + strings.Join(names, ",") + ": " + r.Body.String() + ")"
}

// Extent describes where a reduction axis' range comes from.
type Extent struct {
	// Input-bound extent: dimension Dim of input tensor Input.
	Input string
	Dim   int
	// Constant extent (used when Input == "").
	Const int64
}

// ExtentOf binds an extent to input tensor dimension (tensor, dim).
func ExtentOf(input string, dim int) Extent { return Extent{Input: input, Dim: dim} }

// ExtentConst binds an extent to a fixed constant.
func ExtentConst(n int64) Extent { return Extent{Const: n} }

// OpaqueExpr models TDL's opaque function primitive (Sec 4.1):
//
//	Cholesky = tofu.Opaque()
//	lambda b, i, j: Cholesky(batch_mat[b, :, :])[i, j]
//
// The opaque function consumes whole slices of its argument tensors (the
// ":" dimensions) and produces values indexed by the axes in OutAxes; those
// axes are not partitionable, while axes that select slices (b above) are.
type OpaqueExpr struct {
	Fn      string
	Args    []SliceArg
	OutAxes []string // output axes consumed by the opaque result indexing
}

// SliceArg is one argument to an opaque function: a tensor with each
// dimension either fully sliced (":") or indexed by an affine expression.
type SliceArg struct {
	Tensor string
	Dims   []SliceDim
}

// SliceDim is one dimension of a SliceArg.
type SliceDim struct {
	Full  bool
	Index Index // valid when !Full
}

// FullDim is the ":" slice selector.
func FullDim() SliceDim { return SliceDim{Full: true} }

// IdxDim selects a single position along a dimension by an affine index.
func IdxDim(i Index) SliceDim { return SliceDim{Index: i} }

// Opaque builds an opaque-function application.
func Opaque(fn string, outAxes []string, args ...SliceArg) *OpaqueExpr {
	return &OpaqueExpr{Fn: fn, Args: args, OutAxes: outAxes}
}

func (o *OpaqueExpr) isScalar() {}
func (o *OpaqueExpr) accesses(underReduce bool, out *[]TaggedAccess) {
	// Opaque slice arguments behave like accesses whose Full dims require the
	// whole extent; expose them as accesses with an empty index marker so the
	// analyzer treats Full dims as axis-independent.
	for _, a := range o.Args {
		acc := &Access{Tensor: a.Tensor, Index: make([]Index, len(a.Dims))}
		for i, d := range a.Dims {
			if d.Full {
				acc.Index[i] = Index{} // constant 0: depends on no axis
			} else {
				acc.Index[i] = d.Index
			}
		}
		*out = append(*out, TaggedAccess{Access: acc, UnderReduce: underReduce})
	}
}
func (o *OpaqueExpr) String() string {
	parts := make([]string, len(o.Args))
	for i, a := range o.Args {
		dims := make([]string, len(a.Dims))
		for j, d := range a.Dims {
			if d.Full {
				dims[j] = ":"
			} else {
				dims[j] = d.Index.String()
			}
		}
		parts[i] = a.Tensor + "[" + strings.Join(dims, ",") + "]"
	}
	return o.Fn + "(" + strings.Join(parts, ", ") + ")[" + strings.Join(o.OutAxes, ",") + "]"
}
