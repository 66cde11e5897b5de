package graph

import (
	"strings"
	"testing"

	"tofu/internal/shape"
	"tofu/internal/tdl"
)

func buildMLPLayer(t *testing.T) (*Graph, *Tensor, *Tensor, *Tensor) {
	t.Helper()
	g := New()
	x := g.Input("x", shape.Of(32, 64))
	w := g.Weight("w", shape.Of(64, 128))
	b := g.Weight("b", shape.Of(128))
	h := g.Apply("matmul", nil, x, w)
	h = g.Apply("bias_add", nil, h, b)
	h = g.Apply("relu", nil, h)
	return g, x, w, h
}

func TestApplyShapeInference(t *testing.T) {
	g, _, _, h := buildMLPLayer(t)
	if !h.Shape.Equal(shape.Of(32, 128)) {
		t.Fatalf("relu output shape %v", h.Shape)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != 3 {
		t.Fatalf("nodes = %d", len(g.Nodes))
	}
}

func TestApplyErrors(t *testing.T) {
	g := New()
	x := g.Input("x", shape.Of(4, 8))
	y := g.Input("y", shape.Of(8, 3))
	if _, err := g.TryApply("matmul", nil, y, x); err == nil {
		t.Error("expected inner-dim mismatch error")
	}
	if _, err := g.TryApply("nonsense_op", nil, x); err == nil {
		t.Error("expected unknown-op error")
	}
	if _, err := g.TryApply("matmul", nil, x, nil); err == nil {
		t.Error("expected nil-input error")
	}
	if _, err := g.TryApply("add", nil, x, y); err == nil {
		t.Error("expected elementwise shape mismatch error")
	}
}

func TestRankAttrInjection(t *testing.T) {
	g := New()
	x := g.Input("x", shape.Of(2, 3, 4, 5))
	g.Apply("relu", nil, x)
	n := g.Nodes[0]
	if n.Attrs.Get("rank", 0) != 4 {
		t.Fatalf("relu rank attr = %d, want 4", n.Attrs.Get("rank", 0))
	}
	// The injected rank must make the TDL description resolvable.
	d, err := g.Describe(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.OutAxes) != 4 {
		t.Fatalf("described rank %d", len(d.OutAxes))
	}
}

func TestBackwardSimpleChain(t *testing.T) {
	g, x, w, h := buildMLPLayer(t)
	seed := g.NewTensor("dh", Activation, h.Shape, shape.Float32)
	if err := g.Backward(map[*Tensor]*Tensor{h: seed}, AutodiffOptions{InPlaceAgg: true}); err != nil {
		t.Fatal(err)
	}
	if w.Grad == nil {
		t.Fatal("weight has no gradient")
	}
	if !w.Grad.Shape.Equal(w.Shape) {
		t.Fatalf("dW shape %v != %v", w.Grad.Shape, w.Shape)
	}
	if x.Grad == nil || !x.Grad.Shape.Equal(x.Shape) {
		t.Fatal("input gradient missing or mis-shaped")
	}
	if w.Grad.Kind != Gradient || w.Grad.GradOf != w {
		t.Fatal("gradient bookkeeping broken")
	}
	// Every backward node must link to its forward node.
	for _, n := range g.Nodes {
		if n.Output.Kind == Gradient && n.FwdOf == nil && !n.GradAgg {
			t.Errorf("backward node %v missing FwdOf", n)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBackwardAggregation(t *testing.T) {
	// A weight consumed by two matmuls must receive an aggregation add.
	g := New()
	x1 := g.Input("x1", shape.Of(4, 8))
	x2 := g.Input("x2", shape.Of(4, 8))
	w := g.Weight("w", shape.Of(8, 8))
	h1 := g.Apply("matmul", nil, x1, w)
	h2 := g.Apply("matmul", nil, x2, w)
	s := g.Apply("add", nil, h1, h2)

	seed := g.NewTensor("ds", Activation, s.Shape, shape.Float32)
	if err := g.Backward(map[*Tensor]*Tensor{s: seed}, AutodiffOptions{InPlaceAgg: true}); err != nil {
		t.Fatal(err)
	}
	if w.Grad == nil {
		t.Fatal("no aggregated gradient")
	}
	var aggs int
	for _, n := range g.Nodes {
		if n.GradAgg {
			aggs++
			if !n.InPlace {
				t.Error("aggregation should be in-place under InPlaceAgg")
			}
		}
	}
	if aggs != 1 {
		t.Fatalf("aggregation adds = %d, want 1", aggs)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBackwardIdentityWrapKeepsPairingUnique(t *testing.T) {
	// add passes dy through to both inputs; the pairing tensor<->gradient
	// must stay one-to-one via identity wrapping.
	g := New()
	a := g.Input("a", shape.Of(4, 4))
	b := g.Input("b", shape.Of(4, 4))
	s := g.Apply("add", nil, a, b)
	seed := g.NewTensor("ds", Activation, s.Shape, shape.Float32)
	if err := g.Backward(map[*Tensor]*Tensor{s: seed}, AutodiffOptions{}); err != nil {
		t.Fatal(err)
	}
	if a.Grad == nil || b.Grad == nil {
		t.Fatal("missing gradients")
	}
	if a.Grad == b.Grad {
		t.Fatal("gradients must be distinct tensors")
	}
	if a.Grad.GradOf != a || b.Grad.GradOf != b {
		t.Fatal("GradOf links wrong")
	}
}

func TestBackwardSeedValidation(t *testing.T) {
	g := New()
	x := g.Input("x", shape.Of(4, 4))
	y := g.Apply("relu", nil, x)
	bad := g.NewTensor("bad", Activation, shape.Of(2, 2), shape.Float32)
	if err := g.Backward(map[*Tensor]*Tensor{y: bad}, AutodiffOptions{}); err == nil {
		t.Fatal("expected shape mismatch error")
	}
	if err := g.Backward(nil, AutodiffOptions{}); err == nil {
		t.Fatal("expected empty-seed error")
	}
}

func TestApplyOptimizer(t *testing.T) {
	g, _, w, h := buildMLPLayer(t)
	seed := g.NewTensor("dh", Activation, h.Shape, shape.Float32)
	if err := g.Backward(map[*Tensor]*Tensor{h: seed}, AutodiffOptions{InPlaceAgg: true}); err != nil {
		t.Fatal(err)
	}
	if err := g.ApplyOptimizer("adam"); err != nil {
		t.Fatal(err)
	}
	var updates, hists int
	for _, n := range g.Nodes {
		if n.Op == "adam_update" {
			updates++
		}
	}
	for _, tt := range g.Tensors {
		if tt.Kind == OptState {
			hists++
		}
	}
	// Two weights with gradients: w and b.
	if updates != 2 || hists != 2 {
		t.Fatalf("updates=%d hists=%d, want 2 each", updates, hists)
	}
	_ = w
	if err := g.ApplyOptimizer("nope"); err == nil {
		t.Fatal("expected unknown-optimizer error")
	}
}

func TestComputeStats(t *testing.T) {
	g, _, _, _ := buildMLPLayer(t)
	st := g.ComputeStats()
	wantW := int64(64*128+128) * 4
	if st.WeightBytes != wantW {
		t.Fatalf("WeightBytes = %d, want %d", st.WeightBytes, wantW)
	}
	if st.WeightBytes3x != 3*wantW {
		t.Fatalf("WeightBytes3x = %d", st.WeightBytes3x)
	}
	if st.NumNodes != 3 {
		t.Fatalf("NumNodes = %d", st.NumNodes)
	}
}

func TestTopoDetectsCorruption(t *testing.T) {
	g := New()
	x := g.Input("x", shape.Of(4, 4))
	y := g.Apply("relu", nil, x)
	z := g.Apply("relu", nil, y)
	_ = z
	// Corrupt: move the last node first.
	g.Nodes[0], g.Nodes[1] = g.Nodes[1], g.Nodes[0]
	if _, err := g.Topo(); err == nil {
		t.Fatal("expected topological-order violation")
	}
}

// TestValidateChecksTensorIDs: the dense per-tensor tables downstream index
// by tensor ID, so a tensor out of place, or a node wired to another graph's
// tensor, is a Validate error rather than a later index panic.
func TestValidateChecksTensorIDs(t *testing.T) {
	build := func() *Graph {
		g := New()
		x := g.Input("x", shape.Of(4, 4))
		g.Apply("relu", nil, g.Apply("relu", nil, x))
		return g
	}
	g := build()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g.Tensors[0], g.Tensors[1] = g.Tensors[1], g.Tensors[0]
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "sits at position") {
		t.Fatalf("swapped tensors: err = %v", err)
	}

	g = build()
	g.Tensors = g.Tensors[:2] // the last output is no longer the graph's
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "not a tensor of this graph") {
		t.Fatalf("dropped tensor: err = %v", err)
	}

	g, other := build(), build()
	g.Nodes[0].Inputs[0] = other.Tensors[0] // same ID, other graph
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "not a tensor of this graph") {
		t.Fatalf("foreign input: err = %v", err)
	}
}

func TestNodeFLOPs(t *testing.T) {
	g := New()
	a := g.Input("a", shape.Of(16, 32))
	b := g.Input("b", shape.Of(32, 64))
	c := g.Apply("matmul", nil, a, b)
	n := c.Producer
	if got, want := NodeFLOPs(n, nil), float64(2*16*64*32); got != want {
		t.Fatalf("matmul FLOPs = %g, want %g", got, want)
	}
	r := g.Apply("relu", nil, c)
	var buf []shape.Shape
	if got := NodeFLOPs(r.Producer, &buf); got != float64(16*64) {
		t.Fatalf("relu FLOPs = %g", got)
	}
	if got := testing.AllocsPerRun(10, func() { NodeFLOPs(n, &buf) }); got != 0 {
		t.Errorf("NodeFLOPs with a warm buffer allocates %v times", got)
	}
	if got := MemBytes(r.Producer); got != int64(16*64*4*2) {
		t.Fatalf("relu MemBytes = %d", got)
	}
}

func TestWeightsAndInputs(t *testing.T) {
	g, x, w, _ := buildMLPLayer(t)
	ws := g.Weights()
	if len(ws) != 2 || ws[0] != w {
		t.Fatalf("Weights = %v", ws)
	}
	ins := g.Inputs()
	if len(ins) != 1 || ins[0] != x {
		t.Fatalf("Inputs = %v", ins)
	}
}

func TestConvChainShapes(t *testing.T) {
	g := New()
	img := g.Input("img", shape.Of(8, 3, 224, 224))
	w1 := g.Weight("w1", shape.Of(64, 3, 7, 7))
	h := g.Apply("conv2d", tdl.Attrs{"stride": 2}, img, w1)
	if !h.Shape.Equal(shape.Of(8, 64, 112, 112)) {
		t.Fatalf("conv stride-2 shape %v", h.Shape)
	}
	h = g.Apply("maxpool2d", tdl.Attrs{"stride": 2, "kernel": 2}, h)
	if !h.Shape.Equal(shape.Of(8, 64, 56, 56)) {
		t.Fatalf("pool shape %v", h.Shape)
	}
	p := g.Apply("global_avgpool", nil, h)
	if !p.Shape.Equal(shape.Of(8, 64)) {
		t.Fatalf("gap shape %v", p.Shape)
	}

	// Backward shapes mirror forward.
	seed := g.NewTensor("dp", Activation, p.Shape, shape.Float32)
	if err := g.Backward(map[*Tensor]*Tensor{p: seed}, AutodiffOptions{InPlaceAgg: true}); err != nil {
		t.Fatal(err)
	}
	if !img.Grad.Shape.Equal(img.Shape) {
		t.Fatalf("dImg shape %v", img.Grad.Shape)
	}
	if !w1.Grad.Shape.Equal(w1.Shape) {
		t.Fatalf("dW shape %v", w1.Grad.Shape)
	}
}

func TestEveryOpHasDescribableTDL(t *testing.T) {
	// Every op with registered graph info must resolve a TDL description
	// with representative attrs (rank defaults applied by Apply).
	g := New()
	x := g.Input("x", shape.Of(8, 16))
	y := g.Apply("relu", nil, x)
	z := g.Apply("add", nil, x, y)
	w := g.Weight("w", shape.Of(16, 16))
	mm := g.Apply("matmul", nil, z, w)
	_ = mm
	for _, n := range g.Nodes {
		if _, err := g.Describe(n); err != nil {
			t.Errorf("describe %v: %v", n, err)
		}
	}
}
