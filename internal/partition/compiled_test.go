package partition

import (
	"math"
	"testing"

	"tofu/internal/shape"
	"tofu/internal/tdl"
)

// edgeSpecs exercise what the benchmark models do not: strided, offset,
// reversed and dilated indices (fractional and negative coefficients,
// constant offsets), opaque ":" dimensions, nested reductions, constant
// reduce extents, and indices whose endpoints are signed zeros.
func edgeSpecs(t testing.TB) []*Spec {
	t.Helper()
	i, j := tdl.Ax("i"), tdl.Ax("j")
	// -i has the constant -0: both endpoints are signed zeros or negative.
	negated, err := tdl.Describe("negated").In("x", 1).Out(i).Is(tdl.At("x", i.Times(-1)))
	if err != nil {
		t.Fatal(err)
	}
	// The same index beside an unmentioned symbol j, with a zero extent for i.
	negatedRow, err := tdl.Describe("negated_row").In("x", 1).Out(i, j).Is(tdl.At("x", i.Times(-1)))
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
		{Desc: twiceDesc(t), InShapes: []shape.Shape{shape.Of(40, 56)}, OutShape: shape.Of(40, 56), DType: shape.Float32},
	}
}

var workerCounts = []int64{2, 3, 4, 5, 7, 8}

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
// and the two orders agree to the bit; otherwise to rounding. InSums and
// BestOf, the table filler's kernel, must return Best's strategy and cost
// bits at every combination, on the full pricing and on a restricted view.
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
			cols := make([]int, len(sp.InShapes))
			sums := make([]float64, len(p.Strategies))
			forEachCut(sp, func(inCuts []Cut, outCut Cut) {
				if got, want := view.CostOf(0, inCuts, outCut), p.CostOf(len(keep)-1, inCuts, outCut); got != want {
					t.Errorf("%s k=%d: restricted view prices %v, full pricing %v", sp.Desc.Name, k, got, want)
				}
				for _, q := range []*Priced{p, view} {
					for i, c := range inCuts {
						cols[i] = q.Column(i, c.Dim)
					}
					q.InSums(cols, sums)
					si, cost := q.BestOf(sums, outCut.Dim)
					if wantSi, wantCost := q.Best(inCuts, outCut); si != wantSi || math.Float64bits(cost) != math.Float64bits(wantCost) {
						t.Errorf("%s k=%d cuts %v/%v: InSums and BestOf (%d, %v), Best (%d, %v)",
							sp.Desc.Name, k, inCuts, outCut, si, cost, wantSi, wantCost)
					}
				}
			})
		}
	}
}

// TestPartsOfRejectsCutBeyondRank: the term rows are flat, so a cut
// dimension past an input's rank would land on the next input's terms. It
// must fail as loudly as it did when PartsOf indexed the input's shape, and
// so must Column, where the table filler's kernel takes its cuts.
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
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rank-2 input cut on dim %d returned a column", bad)
				}
			}()
			p.Column(0, bad)
		}()
	}
}

// TestFillTermsMatchFetchBytes holds the term fill of Price to fetchBytes,
// the definition Cost prices with: on every instance of every tdl.Std
// operator the exact-access oracle runs and on the edge descriptions, at K =
// 2, 3, 4, 6 and 12, every strategy's term for every (worker, input, cut
// dimension) is fetchBytes of that worker's InputRegions box, bit for bit.
func TestFillTermsMatchFetchBytes(t *testing.T) {
	specs := edgeSpecs(t)
	for _, c := range oracleCases(t) {
		specs = append(specs, c.sp)
	}
	checked := 0
	for _, sp := range specs {
		ev := newRegionEval(sp)
		row := len(ev.regs)
		elemSize := float64(sp.DType.Size())
		for _, k := range []int64{2, 3, 4, 6, 12} {
			terms := make([]float64, int(k)*row)
			for _, s := range Enumerate(sp.Desc) {
				ev.fillTerms(terms, ev.prog.Symbol(s.Axis), k, elemSize)
				for w := int64(0); w < k; w++ {
					regions, err := InputRegions(sp, s, k, w)
					if err != nil {
						t.Fatal(err)
					}
					for i, reg := range regions {
						for d := range reg {
							want := fetchBytes(reg, d, w, k, float64(sp.InShapes[i].Dim(d)), elemSize)
							got := terms[int(w)*row+ev.prog.Offsets[i]+d]
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%s %v k=%d worker %d input %d dim %d: term %v, fetchBytes %v",
									sp.Desc.Name, s, k, w, i, d, got, want)
							}
							checked++
						}
					}
				}
			}
		}
	}
	t.Logf("%d specs, %d terms", len(specs), checked)
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
// evaluator's two buffers, whatever the worker count and however many
// strategies survive the filter.
func TestPriceAllocsBounded(t *testing.T) {
	const ceiling = 6
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

// twiceDesc reads one input at two accesses whose boxes differ, the later
// one narrower and at a constant index: only their union holds both.
func twiceDesc(t testing.TB) *tdl.OpDesc {
	t.Helper()
	i, j := tdl.Ax("i"), tdl.Ax("j")
	d, err := tdl.Describe("twice").In("x", 2).Out(i, j).
		Is(tdl.Add(tdl.At("x", i, j.PlusConst(3)), tdl.At("x", tdl.IdxConst(2), j.Times(0.5))))
	if err != nil {
		t.Fatal(err)
	}
	return d
}
