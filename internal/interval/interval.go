// Package interval implements the symbolic interval analysis of Tofu
// (EuroSys'19, Sec 4.2). Intervals live in an abstract domain where both
// endpoints are affine functions of the symbolic upper bounds X1..Xn of the
// operator's index variables:
//
//	I = [Σ li·Xi + cl, Σ ui·Xi + cu]
//
// The paper's Figure 4 defines the permitted arithmetic: adding/subtracting
// constants and intervals, and scaling by constants. Products or comparisons
// of two intervals are non-affine and rejected with ErrNonAffine, mirroring
// the prototype's behaviour ("we did not encounter any such non-affine
// operations among MXNet operators").
//
//tofu:searchpath reachable from dp.Solve / recursive.Partition; nodeterm enforces determinism
package interval

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrNonAffine is returned when an operation would leave the affine domain.
var ErrNonAffine = errors.New("interval: non-affine operation on symbolic intervals")

// Space names the symbolic dimensions an interval may reference. All
// intervals combined by arithmetic must share the same Space.
type Space struct {
	names []string
	index map[string]int
}

// NewSpace creates a space over the given symbolic extent names (e.g. the
// output axes "b", "co", "x" and the reduction axes "ci", "dx" of conv1d).
func NewSpace(names ...string) *Space {
	idx := make(map[string]int, len(names))
	for i, n := range names {
		if _, dup := idx[n]; dup {
			panic(fmt.Sprintf("interval: duplicate symbol %q", n))
		}
		idx[n] = i
	}
	return &Space{names: append([]string(nil), names...), index: idx}
}

// Size returns the number of symbols in the space.
func (s *Space) Size() int { return len(s.names) }

// Names returns the symbol names in index order.
func (s *Space) Names() []string { return append([]string(nil), s.names...) }

// IndexOf returns the position of a symbol name, or -1.
func (s *Space) IndexOf(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Interval is an affine symbolic interval over a Space. Lo and Hi hold the
// per-symbol coefficients of the lower and upper endpoints; CLo and CHi the
// constant offsets. The paper's representation ⟨l1..ln,u1..un,c⟩ is the
// special case CLo == CHi.
type Interval struct {
	space    *Space
	Lo, Hi   []float64
	CLo, CHi float64
}

// Zero returns the degenerate interval [0, 0].
func Zero(sp *Space) Interval {
	return Interval{space: sp, Lo: make([]float64, sp.Size()), Hi: make([]float64, sp.Size())}
}

// Const returns the degenerate interval [c, c].
func Const(sp *Space, c float64) Interval {
	iv := Zero(sp)
	iv.CLo, iv.CHi = c, c
	return iv
}

// Variable returns the initial interval of index variable name: [0, X_name].
// This is the paper's ZV[u_i = 1] initialisation.
func Variable(sp *Space, name string) (Interval, error) {
	i := sp.IndexOf(name)
	if i < 0 {
		return Interval{}, fmt.Errorf("interval: unknown symbol %q", name)
	}
	iv := Zero(sp)
	iv.Hi[i] = 1
	return iv, nil
}

// Span returns the interval [lo·X_name + clo, hi·X_name + chi]; used to seed
// a partition analysis run (e.g. worker 1 of 2 gets [X/2, X]).
func Span(sp *Space, name string, lo, hi, clo, chi float64) (Interval, error) {
	i := sp.IndexOf(name)
	if i < 0 {
		return Interval{}, fmt.Errorf("interval: unknown symbol %q", name)
	}
	iv := Zero(sp)
	iv.Lo[i] = lo
	iv.Hi[i] = hi
	iv.CLo, iv.CHi = clo, chi
	return iv, nil
}

// Space returns the symbol space the interval is defined over.
func (iv Interval) Space() *Space { return iv.space }

func (iv Interval) clone() Interval {
	out := iv
	out.Lo = append([]float64(nil), iv.Lo...)
	out.Hi = append([]float64(nil), iv.Hi...)
	return out
}

// MulConst returns iv × k (Figure 4, row 2). Negative k swaps the endpoints.
func (iv Interval) MulConst(k float64) Interval {
	out := iv.clone()
	for i := range out.Lo {
		out.Lo[i] *= k
		out.Hi[i] *= k
	}
	out.CLo *= k
	out.CHi *= k
	if k < 0 {
		out.Lo, out.Hi = out.Hi, out.Lo
		out.CLo, out.CHi = out.CHi, out.CLo
	}
	return out
}

// Add returns iv + o (Figure 4, row 4).
func (iv Interval) Add(o Interval) (Interval, error) {
	if err := iv.compatible(o); err != nil {
		return Interval{}, err
	}
	out := iv.clone()
	for i := range out.Lo {
		out.Lo[i] += o.Lo[i]
		out.Hi[i] += o.Hi[i]
	}
	out.CLo += o.CLo
	out.CHi += o.CHi
	return out, nil
}

// Sub returns iv - o (Figure 4, row 4 with minus: [lo-hi', hi-lo']).
func (iv Interval) Sub(o Interval) (Interval, error) {
	if err := iv.compatible(o); err != nil {
		return Interval{}, err
	}
	out := iv.clone()
	for i := range out.Lo {
		out.Lo[i] -= o.Hi[i]
		out.Hi[i] -= o.Lo[i]
	}
	out.CLo -= o.CHi
	out.CHi -= o.CLo
	return out, nil
}

// Mul of two non-degenerate intervals leaves the affine domain. It succeeds
// only when one side is a constant (degenerate) interval.
func (iv Interval) Mul(o Interval) (Interval, error) {
	if k, ok := o.AsConst(); ok {
		return iv.MulConst(k), nil
	}
	if k, ok := iv.AsConst(); ok {
		return o.MulConst(k), nil
	}
	return Interval{}, ErrNonAffine
}

// AsConst reports whether the interval is the degenerate constant [c, c]
// with no symbolic component, returning c.
func (iv Interval) AsConst() (float64, bool) {
	for i := range iv.Lo {
		if iv.Lo[i] != 0 || iv.Hi[i] != 0 {
			return 0, false
		}
	}
	if iv.CLo != iv.CHi {
		return 0, false
	}
	return iv.CLo, true
}

// Coeff returns (lo, hi) coefficients of symbol i.
func (iv Interval) Coeff(i int) (lo, hi float64) { return iv.Lo[i], iv.Hi[i] }

// DependsOn reports whether either endpoint references symbol i.
func (iv Interval) DependsOn(i int) bool { return iv.Lo[i] != 0 || iv.Hi[i] != 0 }

// Symbols returns the indices of all symbols the interval depends on.
func (iv Interval) Symbols() []int {
	var out []int
	for i := range iv.Lo {
		if iv.DependsOn(i) {
			out = append(out, i)
		}
	}
	return out
}

// Concretize evaluates the endpoints with concrete extents per symbol. The
// result clamps the lower end at 0 (regions never start before the tensor).
func (iv Interval) Concretize(extents []float64) (lo, hi float64, err error) {
	if len(extents) != len(iv.Lo) {
		return 0, 0, fmt.Errorf("interval: got %d extents for %d symbols", len(extents), len(iv.Lo))
	}
	lo, hi = iv.CLo, iv.CHi
	for i, x := range extents {
		lo += iv.Lo[i] * x
		hi += iv.Hi[i] * x
	}
	lo = math.Max(lo, 0)
	return lo, hi, nil
}

func (iv Interval) compatible(o Interval) error {
	if iv.space != o.space {
		return errors.New("interval: mixing intervals from different spaces")
	}
	return nil
}

func (iv Interval) String() string {
	var lo, hi strings.Builder
	writeAffine(&lo, iv.space, iv.Lo, iv.CLo)
	writeAffine(&hi, iv.space, iv.Hi, iv.CHi)
	return "[" + lo.String() + ", " + hi.String() + "]"
}

func writeAffine(b *strings.Builder, sp *Space, coeffs []float64, c float64) {
	first := true
	for i, k := range coeffs {
		if k == 0 {
			continue
		}
		if !first {
			b.WriteString(" + ")
		}
		first = false
		name := fmt.Sprintf("X%d", i)
		if sp != nil && i < len(sp.names) {
			name = sp.names[i]
		}
		if k == 1 {
			b.WriteString(name)
		} else {
			fmt.Fprintf(b, "%g·%s", k, name)
		}
	}
	if first || c != 0 {
		if !first {
			b.WriteString(" + ")
		}
		fmt.Fprintf(b, "%g", c)
	}
}
