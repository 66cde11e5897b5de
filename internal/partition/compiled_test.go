package partition

import (
	"fmt"
	"math"
	"testing"

	"tofu/internal/models"
	"tofu/internal/shape"
	"tofu/internal/tdl"
)

// benchmarkConfigs are the model configurations of the repository
// benchmark's cold workloads (bench/workloads/cold-*.json).
var benchmarkConfigs = []models.Config{
	{Family: "wresnet", Depth: 50, Width: 4, Batch: 32},
	{Family: "wresnet", Depth: 152, Width: 10, Batch: 8},
	{Family: "rnn", Depth: 10, Width: 8192, Batch: 128},
	{Family: "transformer", Depth: 4, Width: 1024, Batch: 16},
	{Family: "rnn", Depth: 2, Width: 8192, Batch: 256},
	{Family: "transformer", Depth: 2, Width: 1536, Batch: 24},
	{Family: "transformer", Depth: 2, Width: 1024, Batch: 64},
	{Family: "mlp", Depth: 3, Width: 3072, Batch: 48},
	{Family: "mlp", Depth: 4, Width: 384, Batch: 48},
	{Family: "mlp", Depth: 8, Width: 256, Batch: 64},
	{Family: "rnn", Depth: 2, Width: 1024, Batch: 64},
}

// benchmarkSpecs returns one Spec per distinct (op, attrs, shapes) node of
// the benchmark models.
func benchmarkSpecs(t testing.TB) []*Spec {
	t.Helper()
	var specs []*Spec
	seen := map[string]bool{}
	for _, cfg := range benchmarkConfigs {
		m, err := models.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range m.G.Nodes {
			ins := make([]shape.Shape, len(n.Inputs))
			for i, in := range n.Inputs {
				ins[i] = in.Shape
			}
			key := fmt.Sprint(n.Op, tdl.MakeAttrsKey(n.Attrs), ins, n.Output.Shape)
			if seen[key] {
				continue
			}
			seen[key] = true
			d, err := m.G.Describe(n)
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, &Spec{Desc: d, InShapes: ins, OutShape: n.Output.Shape, DType: shape.Float32})
		}
	}
	return specs
}

// edgeSpecs exercise what the benchmark models do not: strided, offset,
// reversed and dilated indices (fractional and negative coefficients,
// constant offsets), opaque ":" dimensions, nested reductions, constant
// reduce extents, and the signed-zero corners of the interval arithmetic.
func edgeSpecs(t testing.TB) []*Spec {
	t.Helper()
	i, j := tdl.Ax("i"), tdl.Ax("j")
	// -i alone mentions every symbol and has the constant -0: the upper
	// endpoint's +0 comes only from Interval.Add's zero accumulator.
	negated, err := tdl.Describe("negated").In("x", 1).Out(i).Is(tdl.At("x", i.Times(-1)))
	if err != nil {
		t.Fatal(err)
	}
	// The same index beside an unmentioned symbol j: with a zero extent for i
	// every mentioned addend is -0 and only j's +0·X makes the sum +0.
	negatedRow, err := tdl.Describe("negated_row").In("x", 1).Out(i, j).Is(tdl.At("x", i.Times(-1)))
	if err != nil {
		t.Fatal(err)
	}
	// Two accesses of one input whose boxes differ (union), one of them at a
	// constant index.
	twice, err := tdl.Describe("twice").In("x", 2).Out(i, j).
		Is(tdl.Add(tdl.At("x", i, j.PlusConst(3)), tdl.At("x", tdl.IdxConst(2), j.Times(0.5))))
	if err != nil {
		t.Fatal(err)
	}
	return []*Spec{
		spec(t, "conv1d", nil, shape.Of(8, 16, 64), shape.Of(8, 32, 66), shape.Of(32, 16, 3)),
		spec(t, "conv2d", tdl.Attrs{"stride": 2}, shape.Of(8, 16, 14, 14), shape.Of(8, 32, 29, 29), shape.Of(16, 32, 3, 3)),
		spec(t, "conv2d_bwd_data", tdl.Attrs{"stride": 2}, shape.Of(8, 32, 28, 28), shape.Of(8, 16, 14, 14), shape.Of(16, 32, 3, 3)),
		spec(t, "conv2d_bwd_weight", tdl.Attrs{"stride": 2}, shape.Of(16, 32, 3, 3), shape.Of(8, 16, 14, 14), shape.Of(8, 32, 29, 29)),
		spec(t, "dilated_conv2d", tdl.Attrs{"dilation": 2}, shape.Of(4, 8, 12, 12), shape.Of(4, 6, 16, 16), shape.Of(8, 6, 3, 3)),
		spec(t, "maxpool2d", tdl.Attrs{"stride": 2, "kernel": 3}, shape.Of(8, 16, 14, 14), shape.Of(8, 16, 29, 29)),
		spec(t, "maxpool2d_grad", tdl.Attrs{"stride": 2}, shape.Of(8, 16, 28, 28), shape.Of(8, 16, 28, 28), shape.Of(8, 16, 14, 14)),
		spec(t, "slice_axis1", tdl.Attrs{"offset": 48}, shape.Of(40, 16), shape.Of(40, 64)),
		spec(t, "slice_axis1_grad", tdl.Attrs{"offset": 48}, shape.Of(40, 64), shape.Of(40, 16)),
		spec(t, "slice_axis0", tdl.Attrs{"offset": 5}, shape.Of(35, 16), shape.Of(40, 16)),
		spec(t, "reverse_axis1", tdl.Attrs{"width": 56}, shape.Of(40, 56), shape.Of(40, 56)),
		spec(t, "stride_rows", tdl.Attrs{"stride": 3}, shape.Of(14, 8), shape.Of(42, 8)),
		spec(t, "repeat_row", nil, shape.Of(24, 40), shape.Of(40)),
		spec(t, "batch_cholesky", nil, shape.Of(16, 32, 32), shape.Of(16, 32, 32)),
		spec(t, "batch_trsm", nil, shape.Of(40, 8, 8), shape.Of(40, 8, 8), shape.Of(40, 8, 8)),
		spec(t, "gather_rows", nil, shape.Of(56, 24), shape.Of(1000, 24), shape.Of(56, 1)),
		spec(t, "softmax", nil, shape.Of(56, 1000), shape.Of(56, 1000)),
		spec(t, "log_softmax", nil, shape.Of(40, 210), shape.Of(40, 210)),
		spec(t, "bmm", nil, shape.Of(16, 40, 56), shape.Of(16, 40, 64), shape.Of(16, 64, 56)),
		{Desc: negated, InShapes: []shape.Shape{shape.Of(40)}, OutShape: shape.Of(40), DType: shape.Float32},
		{Desc: negatedRow, InShapes: []shape.Shape{shape.Of(40)}, OutShape: shape.Of(0, 56), DType: shape.Float32},
		{Desc: twice, InShapes: []shape.Shape{shape.Of(40, 56)}, OutShape: shape.Of(40, 56), DType: shape.Float32},
	}
}

var workerCounts = []int64{2, 3, 4, 5, 7, 8}

// TestCompiledRegionsMatchReference holds the compiled region evaluator to
// the symbolic execution it replaced (region_oracle_test.go), endpoint bit
// for endpoint bit, for every strategy, worker count and worker.
func TestCompiledRegionsMatchReference(t *testing.T) {
	specs := append(benchmarkSpecs(t), edgeSpecs(t)...)
	compared := 0
	for _, sp := range specs {
		for _, s := range Enumerate(sp.Desc) {
			for _, k := range workerCounts {
				for w := int64(0); w < k; w++ {
					got, err := InputRegions(sp, s, k, w)
					if err != nil {
						t.Fatalf("%s %v k=%d w=%d: %v", sp.Desc.Name, s, k, w, err)
					}
					want, err := referenceInputRegions(sp, s, k, w)
					if err != nil {
						t.Fatalf("%s %v k=%d w=%d: reference: %v", sp.Desc.Name, s, k, w, err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s: %d regions, want %d", sp.Desc.Name, len(got), len(want))
					}
					for i := range want {
						if len(got[i]) != len(want[i]) {
							t.Fatalf("%s input %d: rank %d, want %d", sp.Desc.Name, i, len(got[i]), len(want[i]))
						}
						for d := range want[i] {
							g, r := got[i][d], want[i][d]
							if math.Float64bits(g.Lo) != math.Float64bits(r.Lo) || math.Float64bits(g.Hi) != math.Float64bits(r.Hi) {
								t.Errorf("%s %v %v k=%d w=%d input %d dim %d: [%v,%v) want [%v,%v)",
									sp.Desc.Name, sp.InShapes, s, k, w, i, d, g.Lo, g.Hi, r.Lo, r.Hi)
							}
							compared++
						}
					}
				}
			}
		}
	}
	t.Logf("%d specs, %d ranges compared", len(specs), compared)
}

// forEachCut calls fn with every combination of one cut dimension per input
// and one for the output.
func forEachCut(sp *Spec, fn func(inCuts []Cut, outCut Cut)) {
	inCuts := make([]Cut, len(sp.InShapes))
	var rec func(i int)
	rec = func(i int) {
		if i == len(inCuts) {
			for od := 0; od < sp.OutShape.Rank(); od++ {
				fn(inCuts, Cut{Dim: od})
			}
			return
		}
		for d := 0; d < sp.InShapes[i].Rank(); d++ {
			inCuts[i] = Cut{Dim: d}
			rec(i + 1)
		}
	}
	rec(0)
}

// TestPricedMatchesCost checks the fetch-term tables against the independent
// per-call Cost path for every strategy and cut combination. Cost sums each
// input over the workers before adding the inputs up; PartsOf sums
// worker-outer. With k a power of two every term is an exact dyadic number
// and the two orders agree to the bit; otherwise to rounding.
func TestPricedMatchesCost(t *testing.T) {
	for _, sp := range edgeSpecs(t) {
		for _, k := range workerCounts {
			p, err := Price(sp, k, nil)
			if err != nil {
				continue // nothing divides k ways
			}
			exact := k&(k-1) == 0
			agree := func(got, want float64) bool {
				if exact {
					return got == want
				}
				return math.Abs(got-want) <= 1e-12*math.Max(math.Abs(got), math.Abs(want))
			}
			for si, s := range p.Strategies {
				forEachCut(sp, func(inCuts []Cut, outCut Cut) {
					bd, err := Cost(sp, s, k, inCuts, outCut)
					if err != nil {
						t.Fatalf("%s %v k=%d: %v", sp.Desc.Name, s, k, err)
					}
					in := 0.0
					for _, b := range bd.InputBytes {
						in += b
					}
					parts := p.PartsOf(si, inCuts, outCut)
					if !agree(parts.InBytes, in) || parts.OutBytes != bd.OutputBytes || !agree(parts.Total(), bd.Total) {
						t.Errorf("%s %v k=%d cuts %v/%v: parts %+v, Cost in %v out %v total %v",
							sp.Desc.Name, s, k, inCuts, outCut, parts, in, bd.OutputBytes, bd.Total)
					}
					if c := p.CostOf(si, inCuts, outCut); c != parts.Total() {
						t.Errorf("%s %v k=%d: CostOf %v != PartsOf total %v", sp.Desc.Name, s, k, c, parts.Total())
					}
				})
			}
			// A Restrict view reads the same slabs.
			keep := make([]bool, len(p.Strategies))
			keep[len(keep)-1] = true
			view, err := p.Restrict(keep)
			if err != nil {
				t.Fatal(err)
			}
			forEachCut(sp, func(inCuts []Cut, outCut Cut) {
				if got, want := view.CostOf(0, inCuts, outCut), p.CostOf(len(keep)-1, inCuts, outCut); got != want {
					t.Errorf("%s k=%d: restricted view prices %v, full pricing %v", sp.Desc.Name, k, got, want)
				}
			})
		}
	}
}

// TestPartsOfRejectsCutBeyondRank: the term rows are flat, so a cut
// dimension past an input's rank would land on the next input's terms. It
// must fail as loudly as it did when PartsOf indexed the input's shape.
func TestPartsOfRejectsCutBeyondRank(t *testing.T) {
	p, err := Price(matmulSpec(t, 64, 256, 512), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{2, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rank-2 input cut on dim %d returned a cost", bad)
				}
			}()
			p.PartsOf(0, []Cut{{Dim: bad}, {Dim: 0}}, Cut{Dim: 0})
		}()
	}
}

func conv2dSpec(t testing.TB) *Spec {
	// A WResNet-50-4 3×3 bottleneck convolution at batch 32.
	return spec(t, "conv2d", tdl.Attrs{"stride": 1},
		shape.Of(32, 256, 56, 56), shape.Of(32, 256, 58, 58), shape.Of(256, 256, 3, 3))
}

func bmmSpec(t testing.TB) *Spec {
	// Transformer attention scores: (batch·heads, seq, dk) × (batch·heads, dk, seq).
	return spec(t, "bmm", nil,
		shape.Of(256, 128, 128), shape.Of(256, 128, 64), shape.Of(256, 64, 128))
}

// TestPriceAllocsBounded: a pricing allocates its result — the Priced, its
// strategy list, the term slab and its per-strategy windows — and the
// evaluator's three buffers, whatever the worker count and however many
// strategies survive the filter.
func TestPriceAllocsBounded(t *testing.T) {
	const ceiling = 7
	sp := conv2dSpec(t)
	first := Enumerate(sp.Desc)[0]
	cases := []struct {
		name   string
		k      int64
		filter func(Strategy) bool
	}{
		{"k=2", 2, nil},
		{"k=8", 8, nil},
		{"k=8 one strategy", 8, func(s Strategy) bool { return s == first }},
	}
	for _, c := range cases {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Price(sp, c.k, c.filter); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > ceiling {
			t.Errorf("%s: %v allocations per Price, ceiling %d", c.name, allocs, ceiling)
		}
		t.Logf("%s: %v allocations", c.name, allocs)
	}
}

func BenchmarkPrice(b *testing.B) {
	for _, c := range []struct {
		name string
		sp   *Spec
	}{
		{"wresnet-conv2d", conv2dSpec(b)},
		{"transformer-bmm", bmmSpec(b)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Price(c.sp, 8, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
