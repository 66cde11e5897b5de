package models

import (
	"fmt"

	"tofu/internal/graph"
	"tofu/internal/shape"
	"tofu/internal/tdl"
)

// DefaultUnrollSteps matches the paper's RNN setup: "All RNN model variants
// use LSTM cell and are unrolled for 20 steps" (Sec 7.1).
const DefaultUnrollSteps = 20

// DefaultSeqLen is the Transformer sequence length used by Build.
const DefaultSeqLen = 128

// RNN builds a multi-layer LSTM language-model training graph in the style
// of Jozefowicz et al., the paper's RNN benchmark. Each timestep's input is
// a dense [batch, hidden] tensor (embedding lookup is data-dependent
// indexing, which TDL cannot express — Sec 9; the substitution is recorded
// in DESIGN.md). Weights are shared across timesteps, so the backward pass
// exercises gradient aggregation, and every cell op carries an UnrollTag so
// the coarsening pass can merge timesteps (Sec 5.1).
func RNN(layers int, hidden, batch int64, steps int) (*Model, error) {
	if layers < 1 || steps < 1 {
		return nil, fmt.Errorf("models: RNN needs layers >= 1 and steps >= 1")
	}
	const classes = 128 // small projection head; LSTM weights dominate
	g := graph.New()

	// Per-layer shared weights.
	type layerW struct{ wx, wh, b *graph.Tensor }
	ws := make([]layerW, layers)
	for l := range ws {
		ws[l] = layerW{
			wx: g.Weight(fmt.Sprintf("l%d.wx", l), shape.Of(hidden, 4*hidden)),
			wh: g.Weight(fmt.Sprintf("l%d.wh", l), shape.Of(hidden, 4*hidden)),
			b:  g.Weight(fmt.Sprintf("l%d.b", l), shape.Of(4*hidden)),
		}
	}

	// Initial hidden/cell state per layer.
	hs := make([]*graph.Tensor, layers)
	cs := make([]*graph.Tensor, layers)
	for l := 0; l < layers; l++ {
		hs[l] = g.Input(fmt.Sprintf("h0.l%d", l), shape.Of(batch, hidden))
		cs[l] = g.Input(fmt.Sprintf("c0.l%d", l), shape.Of(batch, hidden))
	}

	// Per-layer unroll tags and the four gate slices' attributes, shared by
	// every cell (node attributes are never mutated).
	tags := make([]string, layers)
	for l := range tags {
		tags[l] = fmt.Sprintf("lstm/l%d", l)
	}
	var gates [4]tdl.Attrs
	for i := range gates {
		gates[i] = tdl.Attrs{"offset": int64(i) * hidden, "size": hidden}
	}

	for t := 0; t < steps; t++ {
		x := g.Input(fmt.Sprintf("x.t%d", t), shape.Of(batch, hidden))
		for l := 0; l < layers; l++ {
			h, c := lstmCell(g, tags[l], t, x, hs[l], cs[l], ws[l].wx, ws[l].wh, ws[l].b, &gates)
			hs[l], cs[l] = h, c
			x = h // the layer's output feeds the next layer
		}
	}

	// Classifier on the top layer's final hidden state.
	projW := g.Weight("proj.w", shape.Of(hidden, classes))
	logits := g.Apply("matmul", nil, hs[layers-1], projW)

	if err := finishTraining(g, logits, classes); err != nil {
		return nil, err
	}
	m := &Model{
		Name:   fmt.Sprintf("RNN-%d-%s", layers, hiddenName(hidden)),
		Family: "rnn",
		G:      g,
		Batch:  batch,
		Cfg:    Config{Family: "rnn", Depth: layers, Width: hidden, Batch: batch},
		Logits: logits,
	}
	return m, nil
}

// lstmCell emits the standard LSTM cell as fine-grained operators: two
// matmuls into fused gates, slicing, non-linearities and the state update.
// gateAttrs[i] selects gate i's columns of the fused gate tensor.
func lstmCell(g *graph.Graph, tag string, t int, x, hPrev, cPrev, wx, wh, bias *graph.Tensor, gateAttrs *[4]tdl.Attrs) (h, c *graph.Tensor) {
	start := len(g.Nodes)

	gx := g.Apply("matmul", nil, x, wx)
	gh := g.Apply("matmul", nil, hPrev, wh)
	gates := g.Apply("add", nil, gx, gh)
	gates = g.Apply("bias_add", nil, gates, bias)

	gate := func(idx int, fn string) *graph.Tensor {
		s := g.Apply("slice_axis1", gateAttrs[idx], gates)
		return g.Apply(fn, nil, s)
	}
	in := gate(0, "sigmoid")
	forget := gate(1, "sigmoid")
	cand := gate(2, "tanh")
	out := gate(3, "sigmoid")

	c = g.Apply("add", nil,
		g.Apply("mul", nil, forget, cPrev),
		g.Apply("mul", nil, in, cand))
	h = g.Apply("mul", nil, out, g.Apply("tanh", nil, c))

	for _, n := range g.Nodes[start:] {
		n.UnrollTag = tag
		n.Timestep = t
	}
	return h, c
}

func hiddenName(h int64) string {
	if h%1024 == 0 {
		return fmt.Sprintf("%dK", h/1024)
	}
	return fmt.Sprintf("%d", h)
}
