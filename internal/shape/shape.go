// Package shape provides tensor shape arithmetic shared by every Tofu
// subsystem: the TDL analyzer, the partition search, the memory planner and
// the simulator all reason about dense n-dimensional tensors whose extents
// are known statically, exactly as MXNet's shape inference provides them to
// the original Tofu prototype.
//
//tofu:searchpath reachable from dp.Solve / recursive.Partition; nodeterm enforces determinism
package shape

import (
	"fmt"
	"strconv"
)

// DType identifies the element type of a tensor. The paper's workloads are
// all float32; the other widths exist for the swap engine and for tests.
type DType int

const (
	Float32 DType = iota
	Float16
	Float64
	Int32
	Int64
)

// Size returns the width of the element type in bytes.
func (d DType) Size() int64 {
	switch d {
	case Float16:
		return 2
	case Float32, Int32:
		return 4
	case Float64, Int64:
		return 8
	default:
		panic(fmt.Sprintf("shape: unknown dtype %d", int(d)))
	}
}

func (d DType) String() string {
	switch d {
	case Float32:
		return "float32"
	case Float16:
		return "float16"
	case Float64:
		return "float64"
	case Int32:
		return "int32"
	case Int64:
		return "int64"
	default:
		return fmt.Sprintf("dtype(%d)", int(d))
	}
}

// Shape is the list of extents of a dense tensor. A nil/empty Shape is a
// scalar. Shapes are treated as immutable; mutating helpers return copies.
type Shape []int64

// Of builds a shape from the given extents.
func Of(dims ...int64) Shape {
	s := make(Shape, len(dims))
	copy(s, dims)
	return s
}

// Rank returns the number of dimensions.
//
//tofu:hotpath allocation-free by PR 3; enforced by tofu-vet/hotalloc
func (s Shape) Rank() int { return len(s) }

// Dim returns the extent of dimension i.
//
//tofu:hotpath allocation-free by PR 3; enforced by tofu-vet/hotalloc
func (s Shape) Dim(i int) int64 { return s[i] }

// Elems returns the total number of elements (1 for a scalar).
//
//tofu:hotpath allocation-free by PR 3; enforced by tofu-vet/hotalloc
func (s Shape) Elems() int64 {
	n := int64(1)
	for _, d := range s {
		n *= d
	}
	return n
}

// Bytes returns the storage size of a tensor of this shape and dtype.
//
//tofu:hotpath allocation-free by PR 3; enforced by tofu-vet/hotalloc
func (s Shape) Bytes(d DType) int64 { return s.Elems() * d.Size() }

// Clone returns a copy that may be mutated independently.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// Equal reports whether two shapes have identical rank and extents.
//
//tofu:hotpath allocation-free by PR 3; enforced by tofu-vet/hotalloc
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Valid reports whether every extent is positive.
func (s Shape) Valid() bool {
	for _, d := range s {
		if d <= 0 {
			return false
		}
	}
	return true
}

// Split returns the shape of one of ways equal parts along dim. It errors if
// the extent does not divide evenly: Tofu only partitions tensors whose
// extents are divisible by the worker count at every recursive step, which
// holds for all of the paper's benchmarks (powers of two everywhere).
func (s Shape) Split(dim int, ways int64) (Shape, error) {
	if dim < 0 || dim >= len(s) {
		return nil, fmt.Errorf("shape: split dim %d out of range for %v", dim, s)
	}
	if ways <= 0 {
		return nil, fmt.Errorf("shape: split ways must be positive, got %d", ways)
	}
	if s[dim]%ways != 0 {
		return nil, fmt.Errorf("shape: dim %d extent %d not divisible by %d", dim, s[dim], ways)
	}
	c := s.Clone()
	c[dim] /= ways
	return c, nil
}

// SplitInPlace divides dim by ways, mutating the receiver — for callers
// that own the shape (e.g. a Clone they hold exclusively, like the
// recursive driver's progressively divided shape table). Everyone else
// should use Split, which follows the package's immutability convention.
func (s Shape) SplitInPlace(dim int, ways int64) error {
	if dim < 0 || dim >= len(s) {
		return fmt.Errorf("shape: split dim %d out of range for %v", dim, s)
	}
	if ways <= 0 {
		return fmt.Errorf("shape: split ways must be positive, got %d", ways)
	}
	if s[dim]%ways != 0 {
		return fmt.Errorf("shape: dim %d extent %d not divisible by %d", dim, s[dim], ways)
	}
	s[dim] /= ways
	return nil
}

// CanSplit reports whether dim can be divided into ways equal parts.
//
//tofu:hotpath allocation-free by PR 3; enforced by tofu-vet/hotalloc
func (s Shape) CanSplit(dim int, ways int64) bool {
	return dim >= 0 && dim < len(s) && s[dim] >= ways && s[dim]%ways == 0
}

//tofu:hotpath allocation-free by PR 3; enforced by tofu-vet/hotalloc
func (s Shape) String() string {
	if len(s) == 0 {
		return "()"
	}
	buf := make([]byte, 0, 2+12*len(s))
	buf = append(buf, '(')
	for i, d := range s {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, d, 10)
	}
	buf = append(buf, ')')
	return string(buf)
}
