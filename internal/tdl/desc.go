package tdl

import (
	"fmt"
)

// Param declares one input tensor of an operator: a name and a rank.
type Param struct {
	Name string
	Rank int
}

// OpDesc is the TDL description of one operator: its inputs, the output
// lambda's index variables, and the body expression. An OpDesc is the unit
// the partition analyzer consumes.
type OpDesc struct {
	Name    string
	Inputs  []Param
	OutAxes []string // output lambda variables, one per output dimension
	Body    Scalar

	// validated caches
	validated   bool
	reduceAxes  []ReduceAxis // top-level reduce axes (case-2 candidates)
	nestedAxes  []ReduceAxis // reduce axes of nested (non-top-level) reductions
	topReducer  Reducer
	elementwise bool
	hasOpaque   bool
	opaqueOut   map[string]bool // output axes owned by an opaque result
	regions     *RegionProgram  // the accesses compiled for the region analysis
}

// Builder assembles an OpDesc fluently; see the package example.
type Builder struct {
	d   OpDesc
	err error
}

// Describe starts a new operator description.
func Describe(name string) *Builder {
	return &Builder{d: OpDesc{Name: name}}
}

// In declares an input tensor parameter.
func (b *Builder) In(name string, rank int) *Builder {
	b.d.Inputs = append(b.d.Inputs, Param{Name: name, Rank: rank})
	return b
}

// Out declares the output lambda's index variables in dimension order.
func (b *Builder) Out(axes ...Index) *Builder {
	for _, ax := range axes {
		name, coeff, ok := ax.IsSingleAxis()
		if !ok || coeff != 1 || ax.Const != 0 {
			b.err = fmt.Errorf("tdl: output axes must be bare variables, got %v", ax)
			return b
		}
		b.d.OutAxes = append(b.d.OutAxes, name)
	}
	return b
}

// Is sets the body expression and finalizes the description.
func (b *Builder) Is(body Scalar) (*OpDesc, error) {
	if b.err != nil {
		return nil, b.err
	}
	b.d.Body = body
	if err := b.d.validate(); err != nil {
		return nil, err
	}
	return &b.d, nil
}

// MustIs is Is that panics on error; for the static registry.
func (b *Builder) MustIs(body Scalar) *OpDesc {
	d, err := b.Is(body)
	if err != nil {
		panic(err)
	}
	return d
}

// ReduceAxes returns the top-level reduction axes, which are the candidates
// for "case 2" output-reduction partition strategies.
func (d *OpDesc) ReduceAxes() []ReduceAxis { return d.reduceAxes }

// NestedReduceAxes returns reduce axes of reductions nested below the top
// level (e.g. softmax's normalizer); they bind symbols the analyzer must
// know about but yield no partition strategies.
func (d *OpDesc) NestedReduceAxes() []ReduceAxis { return d.nestedAxes }

// TopReducer returns the reducer of the top-level reduction (NoReduce if the
// body is not a reduction).
func (d *OpDesc) TopReducer() Reducer { return d.topReducer }

// IsElementwise reports whether the operator maps every input element at
// position p to the output element at the same position p — the property the
// coarsening pass uses to coalesce operator chains (Sec 5.1).
func (d *OpDesc) IsElementwise() bool { return d.elementwise }

// HasOpaque reports whether the description uses an opaque function.
func (d *OpDesc) HasOpaque() bool { return d.hasOpaque }

// OpaqueOutAxis reports whether the named output axis is produced by an
// opaque function's result and therefore cannot be partitioned.
func (d *OpDesc) OpaqueOutAxis(name string) bool { return d.opaqueOut[name] }

// InputRank returns the declared rank of the named input, or -1.
func (d *OpDesc) InputRank(name string) int {
	for _, p := range d.Inputs {
		if p.Name == name {
			return p.Rank
		}
	}
	return -1
}

// InputIndex returns the position of the named input, or -1.
func (d *OpDesc) InputIndex(name string) int {
	for i, p := range d.Inputs {
		if p.Name == name {
			return i
		}
	}
	return -1
}

// AllAccesses returns every tensor access in the body.
func (d *OpDesc) AllAccesses() []TaggedAccess {
	var out []TaggedAccess
	d.Body.accesses(false, &out)
	return out
}

// AxisNames returns all axis names (output then reduce), for building the
// symbolic interval space.
func (d *OpDesc) AxisNames() []string {
	names := append([]string(nil), d.OutAxes...)
	for _, r := range d.reduceAxes {
		names = append(names, r.Name)
	}
	return names
}

// validate checks the structural rules of TDL and caches derived facts.
func (d *OpDesc) validate() error {
	if d.validated {
		return nil
	}
	if d.Name == "" {
		return fmt.Errorf("tdl: operator has no name")
	}
	if d.Body == nil {
		return fmt.Errorf("tdl: operator %s has no body", d.Name)
	}
	if len(d.OutAxes) == 0 {
		return fmt.Errorf("tdl: operator %s has no output axes (scalars unsupported)", d.Name)
	}
	seen := map[string]bool{}
	for _, a := range d.OutAxes {
		if seen[a] {
			return fmt.Errorf("tdl: operator %s repeats output axis %q", d.Name, a)
		}
		seen[a] = true
	}

	// Top-level reduction (possibly the whole body) provides case-2 axes.
	if r, ok := d.Body.(*ReduceExpr); ok {
		d.topReducer = r.Red
		d.reduceAxes = r.Axes
		for _, ra := range r.Axes {
			if seen[ra.Name] {
				return fmt.Errorf("tdl: operator %s reuses axis %q as both output and reduction", d.Name, ra.Name)
			}
			seen[ra.Name] = true
			if ra.Extent.Input != "" && d.InputRank(ra.Extent.Input) < 0 {
				return fmt.Errorf("tdl: operator %s reduce axis %q binds extent to unknown input %q", d.Name, ra.Name, ra.Extent.Input)
			}
		}
	}

	// Collect nested (non-top-level) reduce axes so access validation knows
	// every bound axis. Walk the tree for ReduceExpr nodes.
	bound := map[string]bool{}
	for k := range seen {
		bound[k] = true
	}
	if err := collectNestedReduceAxes(d, d.Body, bound, d.Body); err != nil {
		return err
	}

	// Validate accesses: known tensors, matching ranks, bound axes.
	for _, ta := range d.AllAccesses() {
		acc := ta.Access
		rank := d.InputRank(acc.Tensor)
		if rank < 0 {
			return fmt.Errorf("tdl: operator %s accesses undeclared input %q", d.Name, acc.Tensor)
		}
		if len(acc.Index) != rank {
			return fmt.Errorf("tdl: operator %s accesses %q with %d indices, rank is %d",
				d.Name, acc.Tensor, len(acc.Index), rank)
		}
		for _, ix := range acc.Index {
			for ti, t := range ix.Terms {
				if !bound[t.Axis] {
					return fmt.Errorf("tdl: operator %s uses unbound axis %q", d.Name, t.Axis)
				}
				for _, prev := range ix.Terms[:ti] {
					if prev.Axis == t.Axis {
						return fmt.Errorf("tdl: operator %s index %v repeats axis %q", d.Name, ix, t.Axis)
					}
				}
			}
		}
	}

	// Opaque bookkeeping.
	d.opaqueOut = map[string]bool{}
	walkOpaque(d.Body, func(o *OpaqueExpr) {
		d.hasOpaque = true
		for _, a := range o.OutAxes {
			d.opaqueOut[a] = true
		}
	})

	d.elementwise = d.computeElementwise()
	d.regions = compileRegions(d)
	d.validated = true
	return nil
}

func collectNestedReduceAxes(d *OpDesc, e Scalar, bound map[string]bool, top Scalar) error {
	switch v := e.(type) {
	case *ReduceExpr:
		if v != top { // nested reductions bind their axes locally
			for _, ra := range v.Axes {
				if bound[ra.Name] {
					return fmt.Errorf("tdl: operator %s rebinds axis %q in nested reduction", d.Name, ra.Name)
				}
				bound[ra.Name] = true
				d.nestedAxes = append(d.nestedAxes, ra)
				if ra.Extent.Input != "" && d.InputRank(ra.Extent.Input) < 0 {
					return fmt.Errorf("tdl: operator %s nested reduce axis %q binds extent to unknown input %q", d.Name, ra.Name, ra.Extent.Input)
				}
			}
		}
		return collectNestedReduceAxes(d, v.Body, bound, nil)
	case *Bin:
		if err := collectNestedReduceAxes(d, v.L, bound, nil); err != nil {
			return err
		}
		return collectNestedReduceAxes(d, v.R, bound, nil)
	case *Unary:
		return collectNestedReduceAxes(d, v.X, bound, nil)
	default:
		return nil
	}
}

func walkOpaque(e Scalar, fn func(*OpaqueExpr)) {
	switch v := e.(type) {
	case *OpaqueExpr:
		fn(v)
	case *Bin:
		walkOpaque(v.L, fn)
		walkOpaque(v.R, fn)
	case *Unary:
		walkOpaque(v.X, fn)
	case *ReduceExpr:
		walkOpaque(v.Body, fn)
	}
}

// computeElementwise checks that every access of every input is the identity
// mapping output-axis-i -> input-dim-i, with no reductions and no opaques.
func (d *OpDesc) computeElementwise() bool {
	if d.hasOpaque || len(d.reduceAxes) > 0 {
		return false
	}
	if _, isReduce := d.Body.(*ReduceExpr); isReduce {
		return false
	}
	for _, ta := range d.AllAccesses() {
		if ta.UnderReduce {
			return false
		}
		acc := ta.Access
		if len(acc.Index) != len(d.OutAxes) {
			return false
		}
		for i, ix := range acc.Index {
			ax, coeff, ok := ix.IsSingleAxis()
			if !ok || coeff != 1 || ix.Const != 0 || ax != d.OutAxes[i] {
				return false
			}
		}
	}
	return true
}

// String renders the description in the paper's lambda style.
func (d *OpDesc) String() string {
	ins := make([]string, len(d.Inputs))
	for i, p := range d.Inputs {
		ins[i] = fmt.Sprintf("%s/%d", p.Name, p.Rank)
	}
	return fmt.Sprintf("%s(%v) = lambda %v: %s", d.Name, ins, d.OutAxes, d.Body)
}
