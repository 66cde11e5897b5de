package graph

import (
	"fmt"

	"tofu/internal/shape"
	"tofu/internal/tdl"
)

// OpInfo carries the per-operator metadata the graph layer needs beyond the
// TDL description: shape inference (MXNet's infer-shape pass), an analytic
// cost model for the simulator, and the gradient builder used by autodiff.
type OpInfo struct {
	// InferShape computes the output shape from attrs and input shapes. The
	// node's output takes ownership of the returned shape; in is a buffer
	// Apply reuses, so InferShape must not retain it.
	InferShape func(attrs tdl.Attrs, in []shape.Shape) (shape.Shape, error)
	// FLOPs estimates floating-point work; the simulator divides by the
	// device's effective throughput. Like InferShape it must not retain in.
	FLOPs func(attrs tdl.Attrs, in []shape.Shape, out shape.Shape) float64
	// Grad appends backward nodes computing the gradient w.r.t. each input
	// (nil entries mean no gradient flows). nil Grad means the op blocks
	// gradients entirely.
	Grad GradFn
	// NeedsRank marks the generic element-wise family whose TDL description
	// is parameterized by tensor rank; Apply injects a "rank" attribute.
	NeedsRank bool
}

// GradFn builds gradient contributions for a node given the output gradient.
type GradFn func(g *Graph, n *Node, dy *Tensor) ([]*Tensor, error)

var infos = map[string]OpInfo{}

// RegisterInfo installs op metadata; duplicates panic (init-time wiring).
func RegisterInfo(name string, info OpInfo) {
	if _, dup := infos[name]; dup {
		panic(fmt.Sprintf("graph: op info %q already registered", name))
	}
	infos[name] = info
}

// Info fetches op metadata.
func Info(name string) (OpInfo, error) {
	i, ok := infos[name]
	if !ok {
		return OpInfo{}, fmt.Errorf("graph: no op info for %q", name)
	}
	return i, nil
}

// MemBytes returns the memory traffic of a node: inputs read + output
// written. Element-wise kernels are bound by this, not FLOPs.
func MemBytes(n *Node) int64 {
	var b int64
	for _, in := range n.Inputs {
		b += in.Bytes()
	}
	return b + n.Output.Bytes()
}

// NodeFLOPs evaluates the registered FLOPs model for a node. It gathers the
// input shapes into *buf, grown as needed and kept for the next call, so a
// loop over a graph's nodes allocates once; a nil buf uses a fresh buffer.
func NodeFLOPs(n *Node, buf *[]shape.Shape) float64 {
	info, err := Info(n.Op)
	if err != nil || info.FLOPs == nil {
		return float64(n.Output.Shape.Elems())
	}
	if buf == nil {
		buf = new([]shape.Shape)
	}
	in := (*buf)[:0]
	for _, t := range n.Inputs {
		in = append(in, t.Shape)
	}
	*buf = in
	return info.FLOPs(n.Attrs, in, n.Output.Shape)
}

// --- shape helpers -------------------------------------------------------

// sameAsInput0 shares input 0's shape with the output: shapes are immutable
// after construction.
func sameAsInput0(_ tdl.Attrs, in []shape.Shape) (shape.Shape, error) {
	if len(in) == 0 {
		return nil, fmt.Errorf("no inputs")
	}
	return in[0], nil
}

func allSame(attrs tdl.Attrs, in []shape.Shape) (shape.Shape, error) {
	for i := 1; i < len(in); i++ {
		if !in[i].Equal(in[0]) {
			return nil, fmt.Errorf("input %d shape %v != %v", i, in[i], in[0])
		}
	}
	return sameAsInput0(attrs, in)
}

func wantRank(in []shape.Shape, ranks ...int) error {
	if len(in) != len(ranks) {
		return fmt.Errorf("want %d inputs, got %d", len(ranks), len(in))
	}
	for i, r := range ranks {
		if in[i].Rank() != r {
			return fmt.Errorf("input %d rank %d, want %d", i, in[i].Rank(), r)
		}
	}
	return nil
}

func ewFLOPs(mult float64) func(tdl.Attrs, []shape.Shape, shape.Shape) float64 {
	return func(_ tdl.Attrs, _ []shape.Shape, out shape.Shape) float64 {
		return mult * float64(out.Elems())
	}
}

// --- element-wise registration -----------------------------------------

func regUnaryEW(name string, grad GradFn) {
	RegisterInfo(name, OpInfo{
		InferShape: sameAsInput0, FLOPs: ewFLOPs(1), Grad: grad, NeedsRank: true,
	})
}

func regBinaryEW(name string, grad GradFn) {
	RegisterInfo(name, OpInfo{
		InferShape: allSame, FLOPs: ewFLOPs(1), Grad: grad, NeedsRank: true,
	})
}

func init() {
	regUnaryEW("identity", func(g *Graph, n *Node, dy *Tensor) ([]*Tensor, error) {
		return []*Tensor{g.Apply("identity", nil, dy)}, nil
	})
	regUnaryEW("negate", func(g *Graph, n *Node, dy *Tensor) ([]*Tensor, error) {
		return []*Tensor{g.Apply("negate", nil, dy)}, nil
	})
	regUnaryEW("scale", func(g *Graph, n *Node, dy *Tensor) ([]*Tensor, error) {
		return []*Tensor{g.Apply("scale", nil, dy)}, nil
	})
	regUnaryEW("relu", func(g *Graph, n *Node, dy *Tensor) ([]*Tensor, error) {
		return []*Tensor{g.Apply("relu_grad", nil, n.Inputs[0], dy)}, nil
	})
	regUnaryEW("sigmoid", func(g *Graph, n *Node, dy *Tensor) ([]*Tensor, error) {
		return []*Tensor{g.Apply("sigmoid_grad", nil, n.Output, dy)}, nil
	})
	regUnaryEW("tanh", func(g *Graph, n *Node, dy *Tensor) ([]*Tensor, error) {
		return []*Tensor{g.Apply("tanh_grad", nil, n.Output, dy)}, nil
	})
	regUnaryEW("exp", func(g *Graph, n *Node, dy *Tensor) ([]*Tensor, error) {
		return []*Tensor{g.Apply("mul", nil, dy, n.Output)}, nil
	})
	regUnaryEW("log", func(g *Graph, n *Node, dy *Tensor) ([]*Tensor, error) {
		return []*Tensor{g.Apply("div", nil, dy, n.Inputs[0])}, nil
	})
	regUnaryEW("sqrt", func(g *Graph, n *Node, dy *Tensor) ([]*Tensor, error) {
		return []*Tensor{g.Apply("div", nil, g.Apply("scale", nil, dy), n.Output)}, nil
	})
	regUnaryEW("square", func(g *Graph, n *Node, dy *Tensor) ([]*Tensor, error) {
		return []*Tensor{g.Apply("mul", nil, dy, g.Apply("scale", nil, n.Inputs[0]))}, nil
	})

	regBinaryEW("add", func(g *Graph, n *Node, dy *Tensor) ([]*Tensor, error) {
		return []*Tensor{dy, dy}, nil
	})
	regBinaryEW("sub", func(g *Graph, n *Node, dy *Tensor) ([]*Tensor, error) {
		return []*Tensor{dy, g.Apply("negate", nil, dy)}, nil
	})
	regBinaryEW("mul", func(g *Graph, n *Node, dy *Tensor) ([]*Tensor, error) {
		return []*Tensor{
			g.Apply("mul", nil, dy, n.Inputs[1]),
			g.Apply("mul", nil, dy, n.Inputs[0]),
		}, nil
	})
	regBinaryEW("div", func(g *Graph, n *Node, dy *Tensor) ([]*Tensor, error) {
		da := g.Apply("div", nil, dy, n.Inputs[1])
		db := g.Apply("negate", nil, g.Apply("mul", nil, da, g.Apply("div", nil, n.Output, n.Inputs[1])))
		return []*Tensor{da, db}, nil
	})
	regBinaryEW("maximum", nil)
	regBinaryEW("minimum", nil)

	// Backward-only and optimizer element-wise kernels: no second-order.
	regBinaryEW("relu_grad", nil)
	regBinaryEW("sigmoid_grad", nil)
	regBinaryEW("tanh_grad", nil)
	regBinaryEW("sgd_update", nil)
	RegisterInfo("adam_update", OpInfo{InferShape: allSame, FLOPs: ewFLOPs(4), NeedsRank: true})
	RegisterInfo("fma", OpInfo{InferShape: allSame, FLOPs: ewFLOPs(2), NeedsRank: true})

	registerMatmulInfo()
	registerConvInfo()
	registerPoolInfo()
	registerBNInfo()
	registerSoftmaxInfo()
	registerSliceInfo()
	registerOpaqueInfo()
}

// --- matmul ---------------------------------------------------------------

func matmulFLOPs(m, n, k int64) float64 { return 2 * float64(m) * float64(n) * float64(k) }

func registerMatmulInfo() {
	RegisterInfo("matmul", OpInfo{
		InferShape: func(_ tdl.Attrs, in []shape.Shape) (shape.Shape, error) {
			if err := wantRank(in, 2, 2); err != nil {
				return nil, err
			}
			if in[0].Dim(1) != in[1].Dim(0) {
				return nil, fmt.Errorf("matmul inner dims %v x %v", in[0], in[1])
			}
			return shape.Of(in[0].Dim(0), in[1].Dim(1)), nil
		},
		FLOPs: func(_ tdl.Attrs, in []shape.Shape, out shape.Shape) float64 {
			return matmulFLOPs(out.Dim(0), out.Dim(1), in[0].Dim(1))
		},
		Grad: func(g *Graph, n *Node, dy *Tensor) ([]*Tensor, error) {
			da := g.Apply("matmul_nt", nil, dy, n.Inputs[1])
			db := g.Apply("matmul_tn", nil, n.Inputs[0], dy)
			return []*Tensor{da, db}, nil
		},
	})
	RegisterInfo("matmul_nt", OpInfo{
		InferShape: func(_ tdl.Attrs, in []shape.Shape) (shape.Shape, error) {
			if err := wantRank(in, 2, 2); err != nil {
				return nil, err
			}
			if in[0].Dim(1) != in[1].Dim(1) {
				return nil, fmt.Errorf("matmul_nt inner dims %v x %v", in[0], in[1])
			}
			return shape.Of(in[0].Dim(0), in[1].Dim(0)), nil
		},
		FLOPs: func(_ tdl.Attrs, in []shape.Shape, out shape.Shape) float64 {
			return matmulFLOPs(out.Dim(0), out.Dim(1), in[0].Dim(1))
		},
	})
	RegisterInfo("matmul_tn", OpInfo{
		InferShape: func(_ tdl.Attrs, in []shape.Shape) (shape.Shape, error) {
			if err := wantRank(in, 2, 2); err != nil {
				return nil, err
			}
			if in[0].Dim(0) != in[1].Dim(0) {
				return nil, fmt.Errorf("matmul_tn inner dims %v x %v", in[0], in[1])
			}
			return shape.Of(in[0].Dim(1), in[1].Dim(1)), nil
		},
		FLOPs: func(_ tdl.Attrs, in []shape.Shape, out shape.Shape) float64 {
			return matmulFLOPs(out.Dim(0), out.Dim(1), in[0].Dim(0))
		},
	})
	RegisterInfo("bias_add", OpInfo{
		InferShape: func(_ tdl.Attrs, in []shape.Shape) (shape.Shape, error) {
			if err := wantRank(in, 2, 1); err != nil {
				return nil, err
			}
			if in[0].Dim(1) != in[1].Dim(0) {
				return nil, fmt.Errorf("bias_add dims %v + %v", in[0], in[1])
			}
			return in[0].Clone(), nil
		},
		FLOPs: ewFLOPs(1),
		Grad: func(g *Graph, n *Node, dy *Tensor) ([]*Tensor, error) {
			return []*Tensor{dy, g.Apply("reduce_sum_axis0", nil, dy)}, nil
		},
	})
	RegisterInfo("reduce_sum_axis0", OpInfo{
		InferShape: func(_ tdl.Attrs, in []shape.Shape) (shape.Shape, error) {
			if err := wantRank(in, 2); err != nil {
				return nil, err
			}
			return shape.Of(in[0].Dim(1)), nil
		},
		FLOPs: func(_ tdl.Attrs, in []shape.Shape, _ shape.Shape) float64 {
			return float64(in[0].Elems())
		},
	})
	RegisterInfo("transpose", OpInfo{
		InferShape: func(_ tdl.Attrs, in []shape.Shape) (shape.Shape, error) {
			if err := wantRank(in, 2); err != nil {
				return nil, err
			}
			return shape.Of(in[0].Dim(1), in[0].Dim(0)), nil
		},
		FLOPs: ewFLOPs(1),
		Grad: func(g *Graph, n *Node, dy *Tensor) ([]*Tensor, error) {
			return []*Tensor{g.Apply("transpose", nil, dy)}, nil
		},
	})
}

// --- convolution ----------------------------------------------------------

func convFLOPs(out shape.Shape, ci, kh, kw int64) float64 {
	return 2 * float64(out.Elems()) * float64(ci) * float64(kh) * float64(kw)
}

func registerConvInfo() {
	RegisterInfo("conv2d", OpInfo{
		InferShape: func(attrs tdl.Attrs, in []shape.Shape) (shape.Shape, error) {
			if err := wantRank(in, 4, 4); err != nil {
				return nil, err
			}
			s := attrs.Get("stride", 1)
			data, w := in[0], in[1]
			if data.Dim(1) != w.Dim(1) {
				return nil, fmt.Errorf("conv2d channels %v vs %v", data, w)
			}
			if data.Dim(2)%s != 0 || data.Dim(3)%s != 0 {
				return nil, fmt.Errorf("conv2d stride %d does not divide %v", s, data)
			}
			return shape.Of(data.Dim(0), w.Dim(0), data.Dim(2)/s, data.Dim(3)/s), nil
		},
		FLOPs: func(_ tdl.Attrs, in []shape.Shape, out shape.Shape) float64 {
			return convFLOPs(out, in[1].Dim(1), in[1].Dim(2), in[1].Dim(3))
		},
		Grad: func(g *Graph, n *Node, dy *Tensor) ([]*Tensor, error) {
			s := n.Attrs.Get("stride", 1)
			w := n.Inputs[1]
			dData := g.Apply("conv2d_bwd_data", tdl.Attrs{"stride": s}, dy, w)
			dW := g.Apply("conv2d_bwd_weight", tdl.Attrs{
				"stride": s, "kh": w.Shape.Dim(2), "kw": w.Shape.Dim(3),
			}, dy, n.Inputs[0])
			return []*Tensor{dData, dW}, nil
		},
	})
	RegisterInfo("conv2d_bwd_data", OpInfo{
		InferShape: func(attrs tdl.Attrs, in []shape.Shape) (shape.Shape, error) {
			if err := wantRank(in, 4, 4); err != nil {
				return nil, err
			}
			s := attrs.Get("stride", 1)
			dy, w := in[0], in[1]
			return shape.Of(dy.Dim(0), w.Dim(1), dy.Dim(2)*s, dy.Dim(3)*s), nil
		},
		FLOPs: func(_ tdl.Attrs, in []shape.Shape, out shape.Shape) float64 {
			return convFLOPs(out, in[1].Dim(0), in[1].Dim(2), in[1].Dim(3))
		},
	})
	RegisterInfo("conv2d_bwd_weight", OpInfo{
		InferShape: func(attrs tdl.Attrs, in []shape.Shape) (shape.Shape, error) {
			if err := wantRank(in, 4, 4); err != nil {
				return nil, err
			}
			dy, data := in[0], in[1]
			return shape.Of(dy.Dim(1), data.Dim(1), attrs.Get("kh", 1), attrs.Get("kw", 1)), nil
		},
		FLOPs: func(_ tdl.Attrs, in []shape.Shape, out shape.Shape) float64 {
			return 2 * float64(in[0].Elems()) * float64(out.Dim(1)) * float64(out.Dim(2)) * float64(out.Dim(3))
		},
	})
	RegisterInfo("conv1d", OpInfo{
		InferShape: func(_ tdl.Attrs, in []shape.Shape) (shape.Shape, error) {
			if err := wantRank(in, 3, 3); err != nil {
				return nil, err
			}
			data, f := in[0], in[1]
			if data.Dim(1) != f.Dim(0) {
				return nil, fmt.Errorf("conv1d channels %v vs %v", data, f)
			}
			return shape.Of(data.Dim(0), f.Dim(1), data.Dim(2)), nil
		},
		FLOPs: func(_ tdl.Attrs, in []shape.Shape, out shape.Shape) float64 {
			return 2 * float64(out.Elems()) * float64(in[1].Dim(0)) * float64(in[1].Dim(2))
		},
	})
}

// --- pooling ----------------------------------------------------------------

func registerPoolInfo() {
	RegisterInfo("maxpool2d", OpInfo{
		InferShape: func(attrs tdl.Attrs, in []shape.Shape) (shape.Shape, error) {
			if err := wantRank(in, 4); err != nil {
				return nil, err
			}
			s := attrs.Get("stride", 2)
			d := in[0]
			if d.Dim(2)%s != 0 || d.Dim(3)%s != 0 {
				return nil, fmt.Errorf("maxpool2d stride %d does not divide %v", s, d)
			}
			return shape.Of(d.Dim(0), d.Dim(1), d.Dim(2)/s, d.Dim(3)/s), nil
		},
		FLOPs: func(attrs tdl.Attrs, _ []shape.Shape, out shape.Shape) float64 {
			k := attrs.Get("kernel", 2)
			return float64(out.Elems()) * float64(k*k)
		},
		Grad: func(g *Graph, n *Node, dy *Tensor) ([]*Tensor, error) {
			return []*Tensor{g.Apply("maxpool2d_grad", tdl.Attrs{
				"stride": n.Attrs.Get("stride", 2),
			}, n.Inputs[0], dy)}, nil
		},
	})
	RegisterInfo("maxpool2d_grad", OpInfo{
		InferShape: func(_ tdl.Attrs, in []shape.Shape) (shape.Shape, error) {
			if err := wantRank(in, 4, 4); err != nil {
				return nil, err
			}
			return in[0].Clone(), nil
		},
		FLOPs: ewFLOPs(1),
	})
	RegisterInfo("global_avgpool", OpInfo{
		InferShape: func(_ tdl.Attrs, in []shape.Shape) (shape.Shape, error) {
			if err := wantRank(in, 4); err != nil {
				return nil, err
			}
			return shape.Of(in[0].Dim(0), in[0].Dim(1)), nil
		},
		FLOPs: func(_ tdl.Attrs, in []shape.Shape, _ shape.Shape) float64 {
			return float64(in[0].Elems())
		},
		Grad: func(g *Graph, n *Node, dy *Tensor) ([]*Tensor, error) {
			in := n.Inputs[0]
			return []*Tensor{g.Apply("global_avgpool_grad", tdl.Attrs{
				"h": in.Shape.Dim(2), "w": in.Shape.Dim(3),
			}, dy)}, nil
		},
	})
	RegisterInfo("global_avgpool_grad", OpInfo{
		InferShape: func(attrs tdl.Attrs, in []shape.Shape) (shape.Shape, error) {
			if err := wantRank(in, 2); err != nil {
				return nil, err
			}
			return shape.Of(in[0].Dim(0), in[0].Dim(1), attrs.Get("h", 1), attrs.Get("w", 1)), nil
		},
		FLOPs: ewFLOPs(1),
	})
}

// --- batch norm -------------------------------------------------------------

func registerBNInfo() {
	chanOf := func(_ tdl.Attrs, in []shape.Shape) (shape.Shape, error) {
		if in[0].Rank() != 4 {
			return nil, fmt.Errorf("bn wants NCHW, got %v", in[0])
		}
		return shape.Of(in[0].Dim(1)), nil
	}
	reduceFLOPs := func(_ tdl.Attrs, in []shape.Shape, _ shape.Shape) float64 {
		return float64(in[0].Elems())
	}
	// Stats are stop-gradient (frozen-stats training step); DESIGN.md
	// records the deviation.
	RegisterInfo("bn_mean", OpInfo{InferShape: chanOf, FLOPs: reduceFLOPs})
	RegisterInfo("bn_var", OpInfo{InferShape: chanOf, FLOPs: reduceFLOPs})
	RegisterInfo("bn_norm", OpInfo{
		InferShape: sameAsInput0,
		FLOPs:      ewFLOPs(4),
		Grad: func(g *Graph, n *Node, dy *Tensor) ([]*Tensor, error) {
			x, mean, vr, gamma := n.Inputs[0], n.Inputs[1], n.Inputs[2], n.Inputs[3]
			dx := g.Apply("bn_data_grad", nil, dy, x, mean, vr, gamma)
			dGamma := g.Apply("bn_gamma_grad", nil, dy, x)
			dBeta := g.Apply("bn_beta_grad", nil, dy)
			return []*Tensor{dx, nil, nil, dGamma, dBeta}, nil
		},
	})
	RegisterInfo("bn_gamma_grad", OpInfo{InferShape: chanOf, FLOPs: reduceFLOPs})
	RegisterInfo("bn_beta_grad", OpInfo{InferShape: chanOf, FLOPs: reduceFLOPs})
	RegisterInfo("bn_data_grad", OpInfo{InferShape: sameAsInput0, FLOPs: ewFLOPs(5)})
}

// --- softmax / loss ------------------------------------------------------

func registerSoftmaxInfo() {
	RegisterInfo("softmax", OpInfo{
		InferShape: func(_ tdl.Attrs, in []shape.Shape) (shape.Shape, error) {
			if err := wantRank(in, 2); err != nil {
				return nil, err
			}
			return in[0].Clone(), nil
		},
		FLOPs: ewFLOPs(5),
	})
	RegisterInfo("softmax_ce_grad", OpInfo{
		InferShape: allSame,
		FLOPs:      ewFLOPs(1),
	})
}

// --- slicing ---------------------------------------------------------------

func registerSliceInfo() {
	RegisterInfo("slice_axis1", OpInfo{
		InferShape: func(attrs tdl.Attrs, in []shape.Shape) (shape.Shape, error) {
			if err := wantRank(in, 2); err != nil {
				return nil, err
			}
			off := attrs.Get("offset", 0)
			size := attrs.Get("size", in[0].Dim(1)-off)
			if off < 0 || size <= 0 || off+size > in[0].Dim(1) {
				return nil, fmt.Errorf("slice [%d:%d] out of %v", off, off+size, in[0])
			}
			return shape.Of(in[0].Dim(0), size), nil
		},
		FLOPs: ewFLOPs(1),
		Grad: func(g *Graph, n *Node, dy *Tensor) ([]*Tensor, error) {
			return []*Tensor{g.Apply("slice_axis1_grad", tdl.Attrs{
				"offset": n.Attrs.Get("offset", 0),
				"width":  n.Inputs[0].Shape.Dim(1),
			}, dy)}, nil
		},
	})
	RegisterInfo("slice_axis1_grad", OpInfo{
		InferShape: func(attrs tdl.Attrs, in []shape.Shape) (shape.Shape, error) {
			if err := wantRank(in, 2); err != nil {
				return nil, err
			}
			return shape.Of(in[0].Dim(0), attrs.Get("width", in[0].Dim(1))), nil
		},
		FLOPs: ewFLOPs(1),
	})
}

// --- opaque batch ops -----------------------------------------------------

func registerOpaqueInfo() {
	sq := func(_ tdl.Attrs, in []shape.Shape) (shape.Shape, error) {
		if err := wantRank(in, 3); err != nil {
			return nil, err
		}
		if in[0].Dim(1) != in[0].Dim(2) {
			return nil, fmt.Errorf("batched matrix op wants square slices, got %v", in[0])
		}
		return in[0].Clone(), nil
	}
	cubeFLOPs := func(_ tdl.Attrs, in []shape.Shape, _ shape.Shape) float64 {
		n := float64(in[0].Dim(1))
		return float64(in[0].Dim(0)) * n * n * n / 3
	}
	RegisterInfo("batch_cholesky", OpInfo{InferShape: sq, FLOPs: cubeFLOPs})
	RegisterInfo("batch_inverse", OpInfo{InferShape: sq, FLOPs: cubeFLOPs})
}
