package tdl

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"tofu/internal/interval"
)

func conv1dDesc(t *testing.T) *OpDesc {
	t.Helper()
	d, err := Std.Describe("conv1d", nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConv1dDescription(t *testing.T) {
	d := conv1dDesc(t)
	if got := len(d.OutAxes); got != 3 {
		t.Fatalf("conv1d OutAxes = %d, want 3", got)
	}
	if d.TopReducer() != Sum {
		t.Fatalf("conv1d reducer = %v", d.TopReducer())
	}
	if got := len(d.ReduceAxes()); got != 2 {
		t.Fatalf("conv1d reduce axes = %d, want 2 (ci, dx)", got)
	}
	if d.IsElementwise() {
		t.Fatal("conv1d must not be elementwise")
	}
	if d.HasOpaque() {
		t.Fatal("conv1d is not opaque")
	}
}

func TestElementwiseDetection(t *testing.T) {
	ew := []string{"relu", "add", "mul", "sigmoid", "tanh", "sgd_update", "adam_update"}
	for _, name := range ew {
		d, err := Std.Describe(name, Attrs{"rank": 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !d.IsElementwise() {
			t.Errorf("%s should be elementwise", name)
		}
	}
	notEW := []string{"matmul", "conv2d", "bias_add", "transpose", "softmax", "batch_cholesky"}
	for _, name := range notEW {
		d, err := Std.Describe(name, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.IsElementwise() {
			t.Errorf("%s must not be elementwise", name)
		}
	}
	// A slice with a non-zero offset shifts indices and must not coalesce as
	// elementwise; with offset 0 it degenerates to the identity map.
	d, err := Std.Describe("slice_axis1", Attrs{"offset": 64})
	if err != nil {
		t.Fatal(err)
	}
	if d.IsElementwise() {
		t.Error("offset slice must not be elementwise")
	}
}

func TestElementwiseRanks(t *testing.T) {
	for rank := 1; rank <= 4; rank++ {
		d, err := Std.Describe("relu", Attrs{"rank": int64(rank)})
		if err != nil {
			t.Fatalf("relu rank %d: %v", rank, err)
		}
		if len(d.OutAxes) != rank || !d.IsElementwise() {
			t.Errorf("relu rank %d: axes=%d ew=%v", rank, len(d.OutAxes), d.IsElementwise())
		}
	}
}

func TestOpaqueCholesky(t *testing.T) {
	d, err := Std.Describe("batch_cholesky", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !d.HasOpaque() {
		t.Fatal("batch_cholesky should use an opaque function")
	}
	if d.OpaqueOutAxis("b") {
		t.Error("batch axis b must stay partitionable")
	}
	if !d.OpaqueOutAxis("i") || !d.OpaqueOutAxis("j") {
		t.Error("matrix axes i,j must be marked opaque")
	}
}

func TestSliceOffsetAttr(t *testing.T) {
	d, err := Std.Describe("slice_axis1", Attrs{"offset": 4096})
	if err != nil {
		t.Fatal(err)
	}
	accs := d.AllAccesses()
	if len(accs) != 1 {
		t.Fatalf("slice has %d accesses", len(accs))
	}
	idx := accs[0].Access.Index[1]
	if idx.Const != 4096 {
		t.Fatalf("slice offset folded to %g", idx.Const)
	}
}

func TestIndexArithmetic(t *testing.T) {
	x, dx := Ax("x"), Ax("dx")
	e := x.Times(2).Plus(dx).PlusConst(1)
	if c := e.CoeffOf("x"); c != 2 {
		t.Errorf("coeff x = %g", c)
	}
	if c := e.CoeffOf("dx"); c != 1 {
		t.Errorf("coeff dx = %g", c)
	}
	if e.Const != 1 {
		t.Errorf("const = %g", e.Const)
	}
	if got := len(e.Axes()); got != 2 {
		t.Errorf("axes = %d", got)
	}
	if _, _, ok := e.IsSingleAxis(); ok {
		t.Error("2x+dx+1 is not single-axis")
	}
	m := x.Minus(x)
	if len(m.Terms) != 0 {
		t.Errorf("x-x should cancel, got %v", m)
	}
}

func TestIndexEval(t *testing.T) {
	sp := interval.NewSpace("x", "dx")
	xv, _ := interval.Variable(sp, "x")
	dv, _ := interval.Variable(sp, "dx")
	env := map[string]interval.Interval{"x": xv, "dx": dv}
	e := Ax("x").Plus(Ax("dx"))
	iv, err := e.Eval(sp, env)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, _ := iv.Concretize([]float64{10, 3})
	if lo != 0 || hi != 13 {
		t.Fatalf("x+dx over (10,3) = [%g,%g]", lo, hi)
	}
	if _, err := Ax("unbound").Eval(sp, env); err == nil {
		t.Fatal("expected unbound-axis error")
	}
}

// Property: Plus/Minus on Index behave like vector addition of coefficient
// maps, for arbitrary coefficient choices.
func TestQuickIndexLinear(t *testing.T) {
	f := func(a, b int8) bool {
		x := Ax("x").Times(float64(a))
		y := Ax("y").Times(float64(b))
		s := x.Plus(y).Minus(y)
		return s.CoeffOf("x") == float64(a) && s.CoeffOf("y") == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidationErrors(t *testing.T) {
	i, j := Ax("i"), Ax("j")

	// Unknown tensor access.
	if _, err := Describe("bad1").In("x", 2).Out(i, j).Is(At("y", i, j)); err == nil {
		t.Error("expected undeclared-input error")
	}
	// Rank mismatch.
	if _, err := Describe("bad2").In("x", 2).Out(i, j).Is(At("x", i)); err == nil {
		t.Error("expected rank error")
	}
	// Unbound axis.
	if _, err := Describe("bad3").In("x", 2).Out(i).Is(At("x", i, j)); err == nil {
		t.Error("expected unbound-axis error")
	}
	// Duplicate output axes.
	if _, err := Describe("bad4").In("x", 2).Out(i, i).Is(At("x", i, i)); err == nil {
		t.Error("expected duplicate-axis error")
	}
	// Missing body.
	if _, err := Describe("bad5").In("x", 1).Out(i).Is(nil); err == nil {
		t.Error("expected missing-body error")
	}
	// Reduction axis clashing with output axis.
	if _, err := Describe("bad6").In("x", 2).Out(i).Is(
		Reduce(Sum, []ReduceAxis{RVar(i, ExtentOf("x", 0))}, At("x", i, i))); err == nil {
		t.Error("expected out/reduce clash error")
	}
	// One index expression naming an axis twice (only a hand-built Index can).
	twice := Index{Terms: []IndexTerm{{Axis: "i", Coeff: 1}, {Axis: "i", Coeff: 2}}}
	if _, err := Describe("bad7").In("x", 1).Out(i).Is(At("x", twice)); err == nil {
		t.Error("expected repeated-axis error")
	}
}

// TestRegionProgramConv1d pins the compiled form of the paper's running
// example: symbol order, extent sources, slot layout and term order.
func TestRegionProgramConv1d(t *testing.T) {
	d, err := Std.Describe("conv1d", nil)
	if err != nil {
		t.Fatal(err)
	}
	p := d.Regions()
	if got := strings.Join(p.Symbols, ","); got != "b,co,x,ci,dx" {
		t.Errorf("symbols = %s", got)
	}
	wantExt := []ExtentRef{
		{Input: ExtentFromOutput, Dim: 0}, {Input: ExtentFromOutput, Dim: 1}, {Input: ExtentFromOutput, Dim: 2},
		{Input: 1, Dim: 0}, {Input: 1, Dim: 2},
	}
	if !reflect.DeepEqual(p.Extents, wantExt) {
		t.Errorf("extents = %+v", p.Extents)
	}
	if !reflect.DeepEqual(p.Offsets, []int{0, 3, 6}) {
		t.Errorf("offsets = %v", p.Offsets)
	}
	// data[b, ci, x+dx], filters[ci, co, dx]: x+dx is stored "dx,x" by name
	// and must come out ascending by symbol.
	wantTerms := [][]SymTerm{
		{{Sym: 0, Coeff: 1}}, {{Sym: 3, Coeff: 1}}, {{Sym: 2, Coeff: 1}, {Sym: 4, Coeff: 1}},
		{{Sym: 3, Coeff: 1}}, {{Sym: 1, Coeff: 1}}, {{Sym: 4, Coeff: 1}},
	}
	if len(p.Dims) != len(wantTerms) {
		t.Fatalf("%d access dims, want %d", len(p.Dims), len(wantTerms))
	}
	for i, ad := range p.Dims {
		if ad.Slot != i || !reflect.DeepEqual(ad.Terms, wantTerms[i]) {
			t.Errorf("access dim %d: slot %d terms %+v", i, ad.Slot, ad.Terms)
		}
		if !ad.Sparse || ad.Point || ad.Full || ad.Union {
			t.Errorf("access dim %d: flags %+v", i, ad)
		}
	}

	// Opaque ":" dimensions are Full, a constant index is a Point, and a
	// second access of an input is a Union.
	chol, err := Std.Describe("batch_cholesky", nil)
	if err != nil {
		t.Fatal(err)
	}
	if dims := chol.Regions().Dims; dims[0].Full || !dims[1].Full || !dims[2].Full || dims[1].Point {
		t.Errorf("batch_cholesky dims = %+v", dims)
	}
	sm, err := Std.Describe("softmax", nil)
	if err != nil {
		t.Fatal(err)
	}
	if p := sm.Regions(); strings.Join(p.Symbols, ",") != "i,j,k" || p.Dims[1].Union || !p.Dims[2].Union || !p.Dims[3].Union {
		t.Errorf("softmax program = %+v", p)
	}
	i := Ax("i")
	row, err := Describe("row0").In("x", 2).Out(i).Is(At("x", IdxConst(0), i))
	if err != nil {
		t.Fatal(err)
	}
	if dims := row.Regions().Dims; !dims[0].Point || dims[1].Point || dims[1].Sparse {
		t.Errorf("row0 dims = %+v", dims)
	}
}

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	d := Describe("t_op").In("x", 1).Out(Ax("i")).MustIs(At("x", Ax("i")))
	if err := r.RegisterStatic(d); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterStatic(d); err == nil {
		t.Fatal("duplicate registration must fail")
	}
	if !r.Has("t_op") || r.Has("nope") {
		t.Fatal("Has is wrong")
	}
	if _, err := r.Describe("nope", nil); err == nil {
		t.Fatal("expected missing-op error")
	}
	got, err := r.Describe("t_op", nil)
	if err != nil || got.Name != "t_op" {
		t.Fatalf("Describe = %v, %v", got, err)
	}
	names := r.Names()
	if len(names) != 1 || names[0] != "t_op" {
		t.Fatalf("Names = %v", names)
	}
}

func TestStdRegistryCoverage(t *testing.T) {
	// Every operator the model zoo emits must be describable; spot-check
	// core names and that the registry is reasonably large.
	need := []string{
		"matmul", "matmul_nt", "matmul_tn", "bias_add", "reduce_sum_axis0",
		"conv2d", "conv2d_bwd_data", "conv2d_bwd_weight", "conv1d",
		"maxpool2d", "maxpool2d_grad", "global_avgpool", "global_avgpool_grad",
		"bn_mean", "bn_var", "bn_norm", "bn_gamma_grad", "bn_beta_grad", "bn_data_grad",
		"softmax", "softmax_ce_grad", "slice_axis1", "slice_axis1_grad",
		"add", "sub", "mul", "div", "relu", "relu_grad", "sigmoid", "sigmoid_grad",
		"tanh", "tanh_grad", "sgd_update", "adam_update", "transpose",
	}
	for _, n := range need {
		if !Std.Has(n) {
			t.Errorf("standard registry missing %q", n)
		}
		if _, err := Std.Describe(n, nil); err != nil {
			t.Errorf("describe %q: %v", n, err)
		}
	}
	if got := len(Std.Names()); got < 35 {
		t.Errorf("standard registry has only %d ops", got)
	}
}

func TestNestedReduceSoftmax(t *testing.T) {
	d, err := Std.Describe("softmax", nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.TopReducer() != NoReduce {
		t.Fatal("softmax top-level must not be a reduction")
	}
	if len(d.NestedReduceAxes()) != 1 {
		t.Fatalf("softmax nested reduce axes = %d", len(d.NestedReduceAxes()))
	}
}

func TestAttrsGet(t *testing.T) {
	var a Attrs
	if a.Get("x", 7) != 7 {
		t.Error("nil attrs default")
	}
	a = Attrs{"x": 3}
	if a.Get("x", 7) != 3 || a.Get("y", 9) != 9 {
		t.Error("attrs lookup")
	}
}

func TestStringRendering(t *testing.T) {
	d := conv1dDesc(t)
	s := d.String()
	for _, frag := range []string{"conv1d", "Sum", "data", "filters"} {
		if !strings.Contains(s, frag) {
			t.Errorf("description %q missing %q", s, frag)
		}
	}
	if got := Sum.String(); got != "Sum" {
		t.Errorf("reducer string %q", got)
	}
}

func TestStridedConvIndices(t *testing.T) {
	d, err := Std.Describe("conv2d", Attrs{"stride": 2})
	if err != nil {
		t.Fatal(err)
	}
	// data access dim 2 must be 2·y + ky.
	var dataIdx Index
	for _, ta := range d.AllAccesses() {
		if ta.Access.Tensor == "data" {
			dataIdx = ta.Access.Index[2]
		}
	}
	if dataIdx.CoeffOf("y") != 2 || dataIdx.CoeffOf("ky") != 1 {
		t.Fatalf("strided conv index = %v", dataIdx)
	}
}
