package partition

import (
	"math"
	"testing"
	"testing/quick"

	"tofu/internal/shape"
	"tofu/internal/tdl"
)

func spec(t testing.TB, op string, attrs tdl.Attrs, out shape.Shape, ins ...shape.Shape) *Spec {
	t.Helper()
	d, err := tdl.Std.Describe(op, attrs)
	if err != nil {
		t.Fatal(err)
	}
	return &Spec{Desc: d, InShapes: ins, OutShape: out, DType: shape.Float32}
}

func findStrategy(t *testing.T, ss []Strategy, kind Kind, axis string) Strategy {
	t.Helper()
	for _, s := range ss {
		if s.Kind == kind && s.Axis == axis {
			return s
		}
	}
	t.Fatalf("strategy %v/%s not found in %v", kind, axis, ss)
	return Strategy{}
}

func TestEnumerateConv1d(t *testing.T) {
	d, err := tdl.Std.Describe("conv1d", nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := Enumerate(d)
	// 3 output axes (b, co, x) + 2 reduce axes (ci, dx) = 5 strategies,
	// matching Sec 4.2's discussion of conv1d.
	if len(ss) != 5 {
		t.Fatalf("conv1d strategies = %d (%v), want 5", len(ss), ss)
	}
	findStrategy(t, ss, SplitOutput, "b")
	findStrategy(t, ss, SplitOutput, "co")
	findStrategy(t, ss, SplitOutput, "x")
	findStrategy(t, ss, SplitReduce, "ci")
	findStrategy(t, ss, SplitReduce, "dx")
}

func TestEnumerateOpaque(t *testing.T) {
	d, err := tdl.Std.Describe("batch_cholesky", nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := Enumerate(d)
	if len(ss) != 1 || ss[0].Axis != "b" || ss[0].Kind != SplitOutput {
		t.Fatalf("batch_cholesky strategies = %v, want only split-out(b)", ss)
	}
}

func TestEnumerateElementwise(t *testing.T) {
	d, err := tdl.Std.Describe("add", tdl.Attrs{"rank": 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(Enumerate(d)); got != 3 {
		t.Fatalf("add/3 strategies = %d, want 3", got)
	}
}

// --- matmul cost sanity: the worked example behind Fig 6 -----------------

func matmulSpec(t *testing.T, m, k, n int64) *Spec {
	return spec(t, "matmul", nil, shape.Of(m, n), shape.Of(m, k), shape.Of(k, n))
}

func TestMatmulRowSplitCost(t *testing.T) {
	sp := matmulSpec(t, 128, 256, 512)
	row := findStrategy(t, Enumerate(sp.Desc), SplitOutput, "i")

	// All tensors cut by rows (dim 0): A aligned, B fully fetched, C aligned.
	bd, err := Cost(sp, row, 2, []Cut{{0}, {0}}, Cut{0})
	if err != nil {
		t.Fatal(err)
	}
	sB := float64(shape.Of(256, 512).Bytes(shape.Float32))
	if bd.InputBytes[0] != 0 {
		t.Errorf("A fetch = %g, want 0 (aligned)", bd.InputBytes[0])
	}
	if !close(bd.InputBytes[1], sB) {
		t.Errorf("B fetch = %g, want full S_B = %g", bd.InputBytes[1], sB)
	}
	if bd.OutputBytes != 0 {
		t.Errorf("output bytes = %g, want 0", bd.OutputBytes)
	}
	if !close(bd.Total, sB) {
		t.Errorf("total = %g, want %g", bd.Total, sB)
	}
}

func TestMatmulReduceSplitCost(t *testing.T) {
	sp := matmulSpec(t, 128, 256, 512)
	red := findStrategy(t, Enumerate(sp.Desc), SplitReduce, "k")

	// A cut by columns, B cut by rows: perfectly aligned inputs; output is a
	// reduce-scatter costing (k-1)·S_C. This is the output-reduction
	// strategy ICML18 misses (Sec 7.3).
	bd, err := Cost(sp, red, 2, []Cut{{1}, {0}}, Cut{0})
	if err != nil {
		t.Fatal(err)
	}
	if bd.InputBytes[0] != 0 || bd.InputBytes[1] != 0 {
		t.Errorf("aligned reduce-split should fetch nothing, got %v", bd.InputBytes)
	}
	sC := float64(shape.Of(128, 512).Bytes(shape.Float32))
	if !close(bd.OutputBytes, sC) {
		t.Errorf("output bytes = %g, want (k-1)·S_C = %g", bd.OutputBytes, sC)
	}
}

func TestMatmulCrossCutCost(t *testing.T) {
	sp := matmulSpec(t, 128, 256, 512)
	row := findStrategy(t, Enumerate(sp.Desc), SplitOutput, "i")

	// A cut along columns while the strategy needs rows: (k-1)/k · S_A.
	bd, err := Cost(sp, row, 2, []Cut{{1}, {0}}, Cut{0})
	if err != nil {
		t.Fatal(err)
	}
	sA := float64(shape.Of(128, 256).Bytes(shape.Float32))
	if !close(bd.InputBytes[0], sA/2) {
		t.Errorf("cross-cut A fetch = %g, want S_A/2 = %g", bd.InputBytes[0], sA/2)
	}
}

func TestMatmulOutputRedistribution(t *testing.T) {
	sp := matmulSpec(t, 128, 256, 512)
	row := findStrategy(t, Enumerate(sp.Desc), SplitOutput, "i")

	// Output tensor cut along columns while the strategy produces row slabs.
	bd, err := Cost(sp, row, 2, []Cut{{0}, {0}}, Cut{1})
	if err != nil {
		t.Fatal(err)
	}
	sC := float64(shape.Of(128, 512).Bytes(shape.Float32))
	if !close(bd.OutputBytes, sC/2) {
		t.Errorf("output redistribution = %g, want S_C/2 = %g", bd.OutputBytes, sC/2)
	}
}

func TestKWayFullFetch(t *testing.T) {
	// Full-tensor requirement costs (k-1)·S for any k.
	for _, k := range []int64{2, 4, 8} {
		sp := matmulSpec(t, 128, 256, 512)
		row := findStrategy(t, Enumerate(sp.Desc), SplitOutput, "i")
		bd, err := Cost(sp, row, k, []Cut{{0}, {0}}, Cut{0})
		if err != nil {
			t.Fatal(err)
		}
		sB := float64(shape.Of(256, 512).Bytes(shape.Float32))
		want := sB * float64(k-1)
		if !close(bd.InputBytes[1], want) {
			t.Errorf("k=%d: B fetch = %g, want (k-1)·S_B = %g", k, bd.InputBytes[1], want)
		}
	}
}

func TestConvHaloCost(t *testing.T) {
	// conv1d split along the pixel axis x: halo exchange on data dim 2.
	sp := spec(t, "conv1d", nil,
		shape.Of(8, 16, 64), // output (b, co, x)
		shape.Of(8, 32, 64), // data (b, ci, x)
		shape.Of(32, 16, 3), // filters (ci, co, dx)
	)
	x := findStrategy(t, Enumerate(sp.Desc), SplitOutput, "x")
	bd, err := Cost(sp, x, 2, []Cut{{2}, {0}}, Cut{2})
	if err != nil {
		t.Fatal(err)
	}
	// Worker 0 needs data[:, :, 0:35] (32 own + 3 halo), worker 1 needs
	// [32:64]: only worker 0 fetches, 8·32·3 elements · 4 bytes.
	want := float64(8*32*3*4) * (35.0 - 32.0) / 35.0 * 35.0 / 3.0 // = 8·32·3·4
	_ = want
	halo := float64(8 * 32 * 3 * 4)
	if !close(bd.InputBytes[0], halo) {
		t.Errorf("halo fetch = %g, want %g", bd.InputBytes[0], halo)
	}
	// filters are needed in full by both workers but cut along ci:
	// each fetches the remote half.
	sF := float64(shape.Of(32, 16, 3).Bytes(shape.Float32))
	if !close(bd.InputBytes[1], sF) {
		t.Errorf("filters fetch = %g, want %g", bd.InputBytes[1], sF)
	}
}

func TestApplicability(t *testing.T) {
	sp := matmulSpec(t, 6, 256, 512)
	row := findStrategy(t, Enumerate(sp.Desc), SplitOutput, "i")
	if sp.Applicable(row, 4) {
		t.Error("m=6 must not split 4 ways")
	}
	if !sp.Applicable(row, 2) {
		t.Error("m=6 splits 2 ways")
	}
	red := findStrategy(t, Enumerate(sp.Desc), SplitReduce, "k")
	if !sp.Applicable(red, 8) {
		t.Error("k=256 splits 8 ways")
	}
	if !sp.Applicable(row, 1) {
		t.Error("k=1 is trivially applicable")
	}
	if sp.Applicable(row, 0) {
		t.Error("k=0 must be rejected")
	}
}

func TestBestStrategyPrefersReduce(t *testing.T) {
	// A tall-thin matmul where S_B >> S_C: output reduction must win when
	// inputs are aligned for it.
	sp := matmulSpec(t, 64, 8192, 64) // A 64x8192, B 8192x64, C 64x64
	p, err := Price(sp, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	si, cost := p.Best([]Cut{{1}, {0}}, Cut{0})
	if s := p.Strategies[si]; s.Kind != SplitReduce {
		t.Fatalf("best strategy = %v (cost %g), want output reduction", s, cost)
	}
}

func TestBestStrategyNoOption(t *testing.T) {
	// All extents are primes > k: nothing divides.
	if _, err := Price(matmulSpec(t, 7, 11, 13), 4, nil); err == nil {
		t.Fatal("expected no-applicable-strategy error")
	}
}

func TestInputRegionsConv1dFigure2(t *testing.T) {
	// Reproduce Figure 2(a): split along b — each worker reads half of data
	// (b dimension) and all of filters.
	sp := spec(t, "conv1d", nil,
		shape.Of(8, 16, 64), shape.Of(8, 32, 64), shape.Of(32, 16, 3))
	b := findStrategy(t, Enumerate(sp.Desc), SplitOutput, "b")
	regs, err := InputRegions(sp, b, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := regs[0]
	if data[0].Lo != 0 || data[0].Hi != 4 {
		t.Errorf("data b-range = %v, want [0,4)", data[0])
	}
	filters := regs[1]
	for d, r := range filters {
		if r.Lo != 0 || r.Hi != float64(sp.InShapes[1].Dim(d)) {
			t.Errorf("filters dim %d = %v, want full", d, r)
		}
	}

	// Figure 2(b): split along ci — each worker reads half of data along
	// the channel dim and half of filters along dim 0.
	ci := findStrategy(t, Enumerate(sp.Desc), SplitReduce, "ci")
	regs, err = InputRegions(sp, ci, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if regs[0][1].Lo != 16 || regs[0][1].Hi != 32 {
		t.Errorf("data ci-range = %v, want [16,32)", regs[0][1])
	}
	if regs[1][0].Lo != 16 || regs[1][0].Hi != 32 {
		t.Errorf("filters ci-range = %v, want [16,32)", regs[1][0])
	}
}

func TestOpaqueRegions(t *testing.T) {
	sp := spec(t, "batch_cholesky", nil,
		shape.Of(16, 32, 32), shape.Of(16, 32, 32))
	s := Enumerate(sp.Desc)[0]
	regs, err := InputRegions(sp, s, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := regs[0]
	if r[0].Lo != 8 || r[0].Hi != 12 {
		t.Errorf("batch range = %v, want [8,12)", r[0])
	}
	if r[1].Size() != 32 || r[2].Size() != 32 {
		t.Errorf("matrix dims must be full, got %v", r)
	}
}

// Property: for any divisible k, summing each worker's required elements for
// an elementwise op equals exactly the input size (no overlap, no gap).
func TestQuickElementwiseCover(t *testing.T) {
	d, err := tdl.Std.Describe("relu", tdl.Attrs{"rank": 2})
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8, axis bool) bool {
		rows := int64(a%16+1) * 8
		cols := int64(b%16+1) * 8
		sp := &Spec{Desc: d, InShapes: []shape.Shape{shape.Of(rows, cols)},
			OutShape: shape.Of(rows, cols), DType: shape.Float32}
		dim := 0
		if axis {
			dim = 1
		}
		s := Strategy{Kind: SplitOutput, Axis: d.OutAxes[dim], OutDim: dim}
		total := 0.0
		for w := int64(0); w < 8; w++ {
			regs, err := InputRegions(sp, s, 8, w)
			if err != nil {
				return false
			}
			total += regs[0].Elems()
		}
		return close(total, float64(rows*cols))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: cost is never negative and aligned elementwise plans are free.
func TestQuickElementwiseAlignedFree(t *testing.T) {
	d, err := tdl.Std.Describe("add", tdl.Attrs{"rank": 2})
	if err != nil {
		t.Fatal(err)
	}
	f := func(a uint8, axis bool) bool {
		n := int64(a%16+1) * 8
		sp := &Spec{Desc: d, InShapes: []shape.Shape{shape.Of(n, n), shape.Of(n, n)},
			OutShape: shape.Of(n, n), DType: shape.Float32}
		dim := 0
		if axis {
			dim = 1
		}
		s := Strategy{Kind: SplitOutput, Axis: d.OutAxes[dim], OutDim: dim}
		bd, err := Cost(sp, s, 2, []Cut{{dim}, {dim}}, Cut{dim})
		if err != nil {
			return false
		}
		return bd.Total == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func close(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b))
}
