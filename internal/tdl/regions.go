package tdl

// RegionProgram is a description's tensor accesses compiled for the region
// analysis of Sec 4.2: the symbolic execution of every affine index
// expression, done once when the description is validated, so the partition
// analyzer evaluates a worker's input regions with a handful of
// multiply-adds per access dimension (partition.Price). It depends on the
// description alone — never on shapes, strategies or workers — and is
// read-only once built.
type RegionProgram struct {
	// Symbols names the symbolic extents in analysis order: output axes,
	// top-level reduce axes, nested reduce axes.
	Symbols []string
	// Extents says where each symbol's concrete extent comes from.
	Extents []ExtentRef
	// Offsets lays the inputs' dimensions out in one flat row of region
	// slots: input i owns slots Offsets[i]..Offsets[i+1]-1, one per
	// dimension; Offsets[len(Inputs)] is the row length.
	Offsets []int
	// Dims lists every access dimension, accesses in AllAccesses order and
	// dimensions ascending within each.
	Dims []AccessDim
}

// ExtentRef locates the concrete extent of one symbol: dimension Dim of
// input Input, dimension Dim of the output (Input == ExtentFromOutput), or
// Const (Input == ExtentFromConst).
type ExtentRef struct {
	Input int
	Dim   int
	Const int64
}

// Sentinel ExtentRef.Input values.
const (
	ExtentFromOutput = -1
	ExtentFromConst  = -2
)

// AccessDim is one dimension of one tensor access: the interval
// [Σ lo·X + Const, Σ hi·X + Const] its index expression evaluates to, with
// the per-symbol endpoint coefficients left to the evaluator because the
// split symbol's depend on the worker.
type AccessDim struct {
	// Slot is the region slot the access lands in (Offsets[input] + dim).
	Slot int
	// Const is the constant offset of both endpoints.
	Const float64
	// Terms are the index expression's axis terms, ascending by symbol.
	Terms []SymTerm
	// Point marks a constant index, which covers the single position
	// [lo, lo+1) rather than an empty interval.
	Point bool
	// Full marks a dimension some opaque function slices whole (":"): every
	// access of it covers the full extent.
	Full bool
	// Union is set on every access of an input but its first: the range is
	// merged into the slot instead of stored.
	Union bool
}

// SymTerm is one axis term of an index expression, its axis resolved to a
// position in RegionProgram.Symbols.
type SymTerm struct {
	Sym   int
	Coeff float64
}

// Regions returns the description's compiled region program.
func (d *OpDesc) Regions() *RegionProgram { return d.regions }

// Symbol returns the position of the named axis in Symbols, or -1.
func (p *RegionProgram) Symbol(axis string) int {
	for i, n := range p.Symbols {
		if n == axis {
			return i
		}
	}
	return -1
}

// compileRegions builds the region program of a description whose accesses
// validate() has already checked: known tensors, matching ranks, bound axes,
// one term per axis.
func compileRegions(d *OpDesc) *RegionProgram {
	nsym := len(d.OutAxes) + len(d.reduceAxes) + len(d.nestedAxes)
	p := &RegionProgram{
		Symbols: make([]string, 0, nsym),
		Extents: make([]ExtentRef, 0, nsym),
		Offsets: make([]int, len(d.Inputs)+1),
	}
	for i, ax := range d.OutAxes {
		p.Symbols = append(p.Symbols, ax)
		p.Extents = append(p.Extents, ExtentRef{Input: ExtentFromOutput, Dim: i})
	}
	for _, axes := range [][]ReduceAxis{d.reduceAxes, d.nestedAxes} {
		for _, ra := range axes {
			ref := ExtentRef{Input: ExtentFromConst, Const: ra.Extent.Const}
			if ra.Extent.Input != "" {
				ref = ExtentRef{Input: d.InputIndex(ra.Extent.Input), Dim: ra.Extent.Dim}
			}
			p.Symbols = append(p.Symbols, ra.Name)
			p.Extents = append(p.Extents, ref)
		}
	}
	for i, in := range d.Inputs {
		p.Offsets[i+1] = p.Offsets[i] + in.Rank
	}

	// full[slot]: some opaque argument slices the (input, dim) whole.
	full := make([]bool, p.Offsets[len(d.Inputs)])
	walkOpaque(d.Body, func(o *OpaqueExpr) {
		for _, a := range o.Args {
			ti := d.InputIndex(a.Tensor)
			for dim, sd := range a.Dims {
				if sd.Full {
					full[p.Offsets[ti]+dim] = true
				}
			}
		}
	})

	accs := d.AllAccesses()
	ndims, nterms := 0, 0
	for _, ta := range accs {
		ndims += len(ta.Access.Index)
		for _, ix := range ta.Access.Index {
			nterms += len(ix.Terms)
		}
	}
	p.Dims = make([]AccessDim, 0, ndims)
	terms := make([]SymTerm, 0, nterms)
	seen := make([]bool, len(d.Inputs))
	for _, ta := range accs {
		ti := d.InputIndex(ta.Access.Tensor)
		for dim, ix := range ta.Access.Index {
			slot := p.Offsets[ti] + dim
			ad := AccessDim{
				Slot:  slot,
				Const: ix.Const,
				Full:  full[slot],
				Union: seen[ti],
			}
			ad.Point = len(ix.Terms) == 0 && !ad.Full
			start := len(terms)
			for _, t := range ix.Terms {
				// Insert ascending by symbol (index terms are sorted by name).
				j := len(terms)
				terms = append(terms, SymTerm{})
				sym := p.Symbol(t.Axis)
				for j > start && terms[j-1].Sym > sym {
					terms[j] = terms[j-1]
					j--
				}
				terms[j] = SymTerm{Sym: sym, Coeff: t.Coeff}
			}
			ad.Terms = terms[start:len(terms):len(terms)]
			p.Dims = append(p.Dims, ad)
		}
		seen[ti] = true
	}
	return p
}
