package partition

import (
	"fmt"
	"math"

	"tofu/internal/tdl"
)

// Range is a half-open index range [Lo, Hi) along one tensor dimension,
// clamped to the dimension's extent.
type Range struct{ Lo, Hi float64 }

// Size returns the number of indices covered.
func (r Range) Size() float64 { return math.Max(0, r.Hi-r.Lo) }

// Intersect returns the overlap of two ranges.
func (r Range) Intersect(o Range) Range {
	lo := math.Max(r.Lo, o.Lo)
	hi := math.Min(r.Hi, o.Hi)
	if hi < lo {
		hi = lo
	}
	return Range{Lo: lo, Hi: hi}
}

// Region is the per-dimension bounding box of an input region.
type Region []Range

// Elems returns the number of elements in the box.
func (r Region) Elems() float64 {
	n := 1.0
	for _, d := range r {
		n *= d.Size()
	}
	return n
}

// InputRegions runs the interval analysis (Sec 4.2) for worker w of k under
// the given strategy and returns, per operator input, the bounding box of the
// region that worker must read. This is the information Fig 2's stripe
// diagrams visualize.
func InputRegions(sp *Spec, s Strategy, k, w int64) ([]Region, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if k < 1 || w < 0 || w >= k {
		return nil, fmt.Errorf("partition: worker %d of %d out of range", w, k)
	}
	ev := newRegionEval(sp)
	ev.eval(ev.prog.Symbol(s.Axis), k, w)
	regions := make([]Region, len(sp.InShapes))
	for i := range regions {
		regions[i] = ev.input(i)
	}
	return regions, nil
}

// regionEval evaluates a description's compiled region program
// (tdl.RegionProgram) at one Spec's shapes: the symbols' concrete extents are
// resolved once, then each (split symbol, worker) is a pass over the access
// dimensions that writes one flat row of ranges and allocates nothing.
type regionEval struct {
	prog *tdl.RegionProgram
	ext  []float64 // concrete extent per symbol
	dim  []float64 // extent of the input dimension behind each region slot
	regs []Range   // the last evaluated worker's regions, one per slot
}

func newRegionEval(sp *Spec) *regionEval {
	prog := sp.Desc.Regions()
	slots := prog.Offsets[len(sp.InShapes)]
	floats := make([]float64, len(prog.Symbols)+slots)
	ev := &regionEval{
		prog: prog,
		ext:  floats[:len(prog.Symbols)],
		dim:  floats[len(prog.Symbols):],
		regs: make([]Range, slots),
	}
	for j, ref := range prog.Extents {
		switch ref.Input {
		case tdl.ExtentFromOutput:
			ev.ext[j] = float64(sp.OutShape.Dim(ref.Dim))
		case tdl.ExtentFromConst:
			ev.ext[j] = float64(ref.Const)
		default:
			ev.ext[j] = float64(sp.InShapes[ref.Input].Dim(ref.Dim))
		}
	}
	for i, ishape := range sp.InShapes {
		for d := range ishape {
			ev.dim[prog.Offsets[i]+d] = float64(ishape.Dim(d))
		}
	}
	return ev
}

// input returns input i's region within the last evaluated row.
func (ev *regionEval) input(i int) Region {
	return Region(ev.regs[ev.prog.Offsets[i]:ev.prog.Offsets[i+1]:ev.prog.Offsets[i+1]])
}

// eval fills regs with the regions worker w of k reads when symbol split is
// partitioned: the split symbol ranges over the worker's share
// [w/k·X, (w+1)/k·X], every other symbol over its full range [0, X] — the
// paper's two analysis runs with ZV[u_b = 1/2] and ZV[l_b = 1/2, u_b = 1].
// Each access dimension sums coefficient·range per term (a negative
// coefficient swaps the endpoints), is clipped to the input's extent and
// widened into the input's bounding box. exact_oracle_test.go holds the
// boxes to the indices the worker's iteration points actually read.
//
//tofu:hotpath once per (strategy, worker) of every pricing; enforced by tofu-vet/hotalloc
func (ev *regionEval) eval(split int, k, w int64) {
	shareLo, shareHi := float64(w)/float64(k), float64(w+1)/float64(k)
	for i := range ev.prog.Dims {
		ad := &ev.prog.Dims[i]
		lo, hi := ad.Const, ad.Const
		for _, t := range ad.Terms {
			l, h := 0.0, 1.0
			if t.Sym == split {
				l, h = shareLo, shareHi
			}
			l *= t.Coeff
			h *= t.Coeff
			if t.Coeff < 0 {
				l, h = h, l
			}
			lo += l * ev.ext[t.Sym]
			hi += h * ev.ext[t.Sym]
		}
		lo = max(lo, 0)
		extent := ev.dim[ad.Slot]
		if ad.Point {
			hi = lo + 1
		}
		hi = min(hi, extent)
		if ad.Full {
			lo, hi = 0, extent
		}
		if ad.Union {
			// A later access of the same input widens the bounding box.
			r := ev.regs[ad.Slot]
			lo, hi = min(r.Lo, lo), max(r.Hi, hi)
		}
		ev.regs[ad.Slot] = Range{Lo: lo, Hi: hi}
	}
}
