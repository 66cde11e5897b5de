package interval

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func mustVar(t *testing.T, sp *Space, name string) Interval {
	t.Helper()
	iv, err := Variable(sp, name)
	if err != nil {
		t.Fatal(err)
	}
	return iv
}

func TestVariableInit(t *testing.T) {
	sp := NewSpace("i", "j")
	iv := mustVar(t, sp, "j")
	// ZV[u_j = 1]: lower bound 0, upper bound X_j.
	lo, hi, err := iv.Concretize([]float64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if lo != 0 || hi != 20 {
		t.Fatalf("Concretize = [%g,%g], want [0,20]", lo, hi)
	}
}

func TestFigure4Arithmetic(t *testing.T) {
	sp := NewSpace("x")
	x := mustVar(t, sp, "x")

	// (x + 2): [2, X+2]
	s, err := x.Add(Const(sp, 2))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, _ := s.Concretize([]float64{8})
	if lo != 2 || hi != 10 {
		t.Fatalf("x+2 over X=8 = [%g,%g]", lo, hi)
	}

	// (x * 3): [0, 3X]
	m := x.MulConst(3)
	lo, hi, _ = m.Concretize([]float64{8})
	if lo != 0 || hi != 24 {
		t.Fatalf("3x over X=8 = [%g,%g]", lo, hi)
	}

	// interval + interval
	sum, err := x.Add(s)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, _ = sum.Concretize([]float64{8})
	if lo != 2 || hi != 18 {
		t.Fatalf("x + (x+2) over X=8 = [%g,%g]", lo, hi)
	}
}

func TestSubSwapsEndpoints(t *testing.T) {
	sp := NewSpace("y", "ky")
	y := mustVar(t, sp, "y")
	ky := mustVar(t, sp, "ky")
	// y - ky over Y=10, KY=3: [0-3, 10-0] = [-3, 10]; Concretize clamps lo at 0.
	diff, err := y.Sub(ky)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, _ := diff.Concretize([]float64{10, 3})
	if lo != 0 || hi != 10 {
		t.Fatalf("y-ky = [%g,%g], want [0,10]", lo, hi)
	}
}

func TestNegativeScaleSwapsEndpoints(t *testing.T) {
	sp := NewSpace("x")
	x := mustVar(t, sp, "x")
	n, err := x.MulConst(-1).Add(Const(sp, 5)) // 5 - x: [5-X, 5]
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, _ := n.Concretize([]float64{3})
	if lo != 2 || hi != 5 {
		t.Fatalf("5-x over X=3 = [%g,%g], want [2,5]", lo, hi)
	}
}

func TestNonAffineMul(t *testing.T) {
	sp := NewSpace("x")
	x := mustVar(t, sp, "x")
	if _, err := x.Mul(x); !errors.Is(err, ErrNonAffine) {
		t.Fatalf("x*x should be non-affine, got %v", err)
	}
	// Multiplying by a degenerate constant interval stays affine.
	c := Const(sp, 4)
	got, err := x.Mul(c)
	if err != nil {
		t.Fatal(err)
	}
	_, hi, _ := got.Concretize([]float64{2})
	if hi != 8 {
		t.Fatalf("x*[4,4] upper = %g, want 8", hi)
	}
}

func TestMixedSpacesRejected(t *testing.T) {
	a := mustVar(t, NewSpace("x"), "x")
	b := mustVar(t, NewSpace("x"), "x")
	if _, err := a.Add(b); err == nil {
		t.Fatal("expected error mixing spaces")
	}
}

func TestSpanWorkerShares(t *testing.T) {
	sp := NewSpace("b")
	// Worker 1 of 2: [X/2, X].
	iv, err := Span(sp, "b", 0.5, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, _ := iv.Concretize([]float64{128})
	if lo != 64 || hi != 128 {
		t.Fatalf("worker1 share = [%g,%g], want [64,128]", lo, hi)
	}
}

func TestIsWholeAndDepends(t *testing.T) {
	sp := NewSpace("i", "j")
	i := mustVar(t, sp, "i")
	if lo, hi, _ := i.Concretize([]float64{5, 7}); lo != 0 || hi != 5 {
		t.Errorf("fresh variable must be whole over its own symbol: [%g,%g], want [0,5]", lo, hi)
	}
	if !i.DependsOn(0) || i.DependsOn(1) {
		t.Error("dependence bookkeeping wrong")
	}
	if got := i.Symbols(); len(got) != 1 || got[0] != 0 {
		t.Errorf("Symbols = %v", got)
	}
}

func TestAsConst(t *testing.T) {
	sp := NewSpace("x")
	if v, ok := Const(sp, 7).AsConst(); !ok || v != 7 {
		t.Fatalf("AsConst = %v,%v", v, ok)
	}
	x := mustVar(t, sp, "x")
	if _, ok := x.AsConst(); ok {
		t.Fatal("variable should not be const")
	}
}

func TestUnknownSymbol(t *testing.T) {
	sp := NewSpace("x")
	if _, err := Variable(sp, "nope"); err == nil {
		t.Fatal("expected unknown-symbol error")
	}
	if _, err := Span(sp, "nope", 0, 1, 0, 0); err == nil {
		t.Fatal("expected unknown-symbol error for Span")
	}
}

func TestConcretizeArity(t *testing.T) {
	sp := NewSpace("x", "y")
	x := mustVar(t, sp, "x")
	if _, _, err := x.Concretize([]float64{1}); err == nil {
		t.Fatal("expected arity error")
	}
}

// Property: Add is commutative and MulConst distributes over Add, checked on
// concretized endpoints.
func TestQuickAffineLaws(t *testing.T) {
	sp := NewSpace("a", "b")
	a := mustVar(t, sp, "a")
	b := mustVar(t, sp, "b")
	f := func(ka, kb float64, ea, eb uint16) bool {
		if math.IsNaN(ka) || math.IsNaN(kb) || math.IsInf(ka, 0) || math.IsInf(kb, 0) {
			return true
		}
		ka = math.Mod(ka, 1e3)
		kb = math.Mod(kb, 1e3)
		x := a.MulConst(ka)
		y := b.MulConst(kb)
		xy, err1 := x.Add(y)
		yx, err2 := y.Add(x)
		if err1 != nil || err2 != nil {
			return false
		}
		ext := []float64{float64(ea%512) + 1, float64(eb%512) + 1}
		lo1, hi1, _ := xy.Concretize(ext)
		lo2, hi2, _ := yx.Concretize(ext)
		if lo1 != lo2 || hi1 != hi2 {
			return false
		}
		// k·(x+y) == k·x + k·y on endpoints (k ≥ 0 to avoid swap order
		// differences interacting with the lo-clamp).
		k := math.Abs(ka)
		lhs := xy.MulConst(k)
		rhsA := x.MulConst(k)
		rhsB := y.MulConst(k)
		rhs, err := rhsA.Add(rhsB)
		if err != nil {
			return false
		}
		llo, lhi, _ := lhs.Concretize(ext)
		rlo, rhi, _ := rhs.Concretize(ext)
		return closeEnough(llo, rlo) && closeEnough(lhi, rhi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func closeEnough(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b))
}

func TestString(t *testing.T) {
	sp := NewSpace("x")
	x := mustVar(t, sp, "x")
	if got := x.MulConst(2).String(); got == "" {
		t.Fatal("String should render something")
	}
	if got := Const(sp, 0).String(); got != "[0, 0]" {
		t.Fatalf("zero const renders %q", got)
	}
}
