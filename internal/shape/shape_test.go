package shape

import (
	"testing"
	"testing/quick"
)

func TestDTypeSize(t *testing.T) {
	cases := []struct {
		d    DType
		want int64
	}{
		{Float32, 4}, {Float16, 2}, {Float64, 8}, {Int32, 4}, {Int64, 8},
	}
	for _, c := range cases {
		if got := c.d.Size(); got != c.want {
			t.Errorf("%v.Size() = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestElemsAndBytes(t *testing.T) {
	s := Of(8, 256, 56, 56)
	if got := s.Elems(); got != 8*256*56*56 {
		t.Fatalf("Elems = %d", got)
	}
	if got := s.Bytes(Float32); got != 8*256*56*56*4 {
		t.Fatalf("Bytes = %d", got)
	}
	if got := Of().Elems(); got != 1 {
		t.Fatalf("scalar Elems = %d, want 1", got)
	}
}

func TestSplit(t *testing.T) {
	s := Of(128, 1024)
	half, err := s.Split(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !half.Equal(Of(64, 1024)) {
		t.Fatalf("Split = %v", half)
	}
	if !s.Equal(Of(128, 1024)) {
		t.Fatalf("Split mutated receiver: %v", s)
	}
	if _, err := s.Split(1, 3); err == nil {
		t.Fatal("expected error for non-divisible split")
	}
	if _, err := s.Split(2, 2); err == nil {
		t.Fatal("expected error for out-of-range dim")
	}
	if _, err := s.Split(0, 0); err == nil {
		t.Fatal("expected error for zero ways")
	}
}

func TestCanSplit(t *testing.T) {
	s := Of(7, 8)
	if s.CanSplit(0, 2) {
		t.Error("7 should not split by 2")
	}
	if !s.CanSplit(1, 2) || !s.CanSplit(1, 8) {
		t.Error("8 should split by 2 and 8")
	}
	if s.CanSplit(1, 16) {
		t.Error("8 should not split by 16")
	}
	if s.CanSplit(-1, 2) || s.CanSplit(2, 2) {
		t.Error("out-of-range dims must not split")
	}
}

func TestSplitPreservesTotal(t *testing.T) {
	// Property: splitting any divisible dim by w divides Elems by w.
	f := func(a, b uint8, waysExp uint8) bool {
		d0 := int64(a%32+1) * 2
		d1 := int64(b%32 + 1)
		ways := int64(1) << (waysExp % 2) // 1 or 2; d0 is always even
		s := Of(d0, d1)
		out, err := s.Split(0, ways)
		if err != nil {
			return false
		}
		return out.Elems()*ways == s.Elems()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValid(t *testing.T) {
	if !Of(1, 2).Valid() {
		t.Error("positive shape should be valid")
	}
	if Of(1, 0).Valid() || Of(-1).Valid() {
		t.Error("non-positive extents should be invalid")
	}
}

func TestString(t *testing.T) {
	if got := Of(2, 3).String(); got != "(2,3)" {
		t.Errorf("String = %q", got)
	}
	if got := Of().String(); got != "()" {
		t.Errorf("scalar String = %q", got)
	}
}
