package partition

import (
	"fmt"
	"math"

	"tofu/internal/interval"
	"tofu/internal/tdl"
)

// referenceInputRegions is InputRegions as it stood before the region
// analysis was compiled per description (tdl.RegionProgram): one symbolic
// execution per call — a fresh interval.Space, an environment map, Index.Eval
// and Concretize per access dimension. Kept verbatim as the oracle the
// compiled evaluator is held to bit for bit.
func referenceInputRegions(sp *Spec, s Strategy, k, w int64) ([]Region, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if k < 1 || w < 0 || w >= k {
		return nil, fmt.Errorf("partition: worker %d of %d out of range", w, k)
	}
	desc := sp.Desc

	// Build the symbol space: output axes, top-level reduce axes, nested
	// reduce axes.
	names := append([]string(nil), desc.OutAxes...)
	for _, ra := range desc.ReduceAxes() {
		names = append(names, ra.Name)
	}
	for _, ra := range desc.NestedReduceAxes() {
		names = append(names, ra.Name)
	}
	space := interval.NewSpace(names...)

	// Resolve the concrete extent of every symbol.
	extents := make([]float64, len(names))
	for i, ax := range desc.OutAxes {
		extents[space.IndexOf(ax)] = float64(sp.OutShape.Dim(i))
	}
	for _, ra := range append(append([]tdl.ReduceAxis(nil), desc.ReduceAxes()...), desc.NestedReduceAxes()...) {
		ext, err := resolveExtent(sp, ra)
		if err != nil {
			return nil, err
		}
		extents[space.IndexOf(ra.Name)] = ext
	}

	// Environment: the split axis gets the worker's share [w/k·X,(w+1)/k·X];
	// every other axis gets its full range [0, X]. This mirrors the paper's
	// two analysis runs with ZV[u_b = 1/2] and ZV[l_b = 1/2, u_b = 1].
	env := make(map[string]interval.Interval, len(names))
	for _, n := range names {
		var iv interval.Interval
		var err error
		if n == s.Axis {
			iv, err = interval.Span(space, n, float64(w)/float64(k), float64(w+1)/float64(k), 0, 0)
		} else {
			iv, err = interval.Variable(space, n)
		}
		if err != nil {
			return nil, err
		}
		env[n] = iv
	}

	// Start each input region empty; union in every access box.
	regions := make([]Region, len(desc.Inputs))
	seen := make([]bool, len(desc.Inputs))
	for i, p := range desc.Inputs {
		regions[i] = make(Region, p.Rank)
	}

	for _, ta := range desc.AllAccesses() {
		ti := desc.InputIndex(ta.Access.Tensor)
		ishape := sp.InShapes[ti]
		for d, ix := range ta.Access.Index {
			iv, err := ix.Eval(space, env)
			if err != nil {
				return nil, fmt.Errorf("partition: op %s input %s dim %d: %w", desc.Name, ta.Access.Tensor, d, err)
			}
			lo, hi, err := iv.Concretize(extents)
			if err != nil {
				return nil, err
			}
			// Constant-index dims (e.g. an opaque Full dim encoded as 0, or a
			// literal offset) cover a single position unless marked Full.
			if len(ix.Terms) == 0 && !isOpaqueFullDim(desc, ta.Access, d) {
				hi = lo + 1
			}
			hi = math.Min(hi, float64(ishape.Dim(d)))
			lo = math.Max(lo, 0)
			if isOpaqueFullDim(desc, ta.Access, d) {
				lo, hi = 0, float64(ishape.Dim(d))
			}
			r := Range{Lo: lo, Hi: hi}
			if !seen[ti] {
				regions[ti][d] = r
			} else {
				regions[ti][d] = Range{
					Lo: math.Min(regions[ti][d].Lo, r.Lo),
					Hi: math.Max(regions[ti][d].Hi, r.Hi),
				}
			}
		}
		seen[ti] = true
	}

	// Inputs never accessed (possible for degenerate descriptions) need no
	// data at all.
	for i := range regions {
		if !seen[i] {
			for d := range regions[i] {
				regions[i][d] = Range{}
			}
		}
	}
	return regions, nil
}

// isOpaqueFullDim reports whether access dim d came from an opaque ":".
// Opaque Full dims are encoded as empty Index expressions by the tdl
// package; distinguish them from a genuine constant-0 index by checking the
// description's opaque arguments.
func isOpaqueFullDim(desc *tdl.OpDesc, acc *tdl.Access, d int) bool {
	if !desc.HasOpaque() {
		return false
	}
	full := false
	walkBody(desc, func(o *tdl.OpaqueExpr) {
		for _, a := range o.Args {
			if a.Tensor != acc.Tensor || d >= len(a.Dims) {
				continue
			}
			if a.Dims[d].Full {
				full = true
			}
		}
	})
	return full
}

func walkBody(desc *tdl.OpDesc, fn func(*tdl.OpaqueExpr)) {
	var walk func(e tdl.Scalar)
	walk = func(e tdl.Scalar) {
		switch v := e.(type) {
		case *tdl.OpaqueExpr:
			fn(v)
		case *tdl.Bin:
			walk(v.L)
			walk(v.R)
		case *tdl.Unary:
			walk(v.X)
		case *tdl.ReduceExpr:
			walk(v.Body)
		}
	}
	walk(desc.Body)
}

func resolveExtent(sp *Spec, ra tdl.ReduceAxis) (float64, error) {
	if ra.Extent.Input == "" {
		return float64(ra.Extent.Const), nil
	}
	idx := sp.Desc.InputIndex(ra.Extent.Input)
	if idx < 0 {
		return 0, fmt.Errorf("partition: reduce axis %s bound to unknown input %s", ra.Name, ra.Extent.Input)
	}
	return float64(sp.InShapes[idx].Dim(ra.Extent.Dim)), nil
}
