package hybrid_test

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tofu/internal/coarsen"
	"tofu/internal/dp"
	"tofu/internal/graph"
	"tofu/internal/graphgen"
	"tofu/internal/hybrid"
	"tofu/internal/obs"
	"tofu/internal/partition"
	"tofu/internal/plan"
	"tofu/internal/recursive"
	"tofu/internal/shape"
	"tofu/internal/tdl"
	"tofu/internal/topo"
)

// FuzzPartition decodes its input into a small training or forward graph and
// a machine (decodeFuzzInput) and holds every layer that skips work on the
// strength of a key or a bound — the table memo, the step memo's shared
// preparations and replayed sweeps, the structural segment memo, the lazy
// boundary search, the bounded sweep and the ordering branch-and-bound — to a
// reference that skips nothing of the kind:
//
//   - flat DP: dp.Solve at each prime factor of the machine ≡ an exact sweep
//     with no price cache and no incumbent bound (a frontier bound no
//     frontier reaches turns the bound off) in VarCut and CommBytes bits, and
//     ≡ brute force over the coarse variables (dp.NewEvaluator) where the
//     assignment space is small;
//   - each recursive step of the searched plan ≡ a fresh dp.Solve with no
//     price cache at that step's divided shapes, bit for bit;
//   - the ordering search ≡ Options.TopoExhaustive on hierarchical machines;
//   - the hybrid search ≡ an exhaustive shortest path over boundary sets whose
//     segments are each searched directly (recursive.Search on
//     Coarse.Segment), level and stage groups included;
//   - every emitted step, re-priced op by op with partition.Cost from the
//     graph, its materialized cuts and strategies, ≡ its CommBytes;
//   - every pipeline stage's execution over the whole graph — its op and
//     tensor shards, alias roots, memplan.Plan and sim.Run — ≡ its
//     extraction's (checkStageExecution), alias chains and reads across
//     stage edges included;
//   - Parallelism 1, 2 and 8 give the same plan bytes and effort counters;
//   - raising any level's bandwidth never raises the cost.
//
// The committed corpus (testdata/fuzz/FuzzPartition) exercises every layer;
// after a full corpus run the per-layer counts are logged, and a layer no
// entry exercised fails the run.
func FuzzPartition(f *testing.F) {
	var cov fuzzCoverage
	f.Cleanup(func() { cov.report(f) })
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := decodeFuzzInput(data)
		if err != nil {
			t.Skip(err)
		}
		t.Log(in.desc)
		cov.add(checkPartition(t, in))
	})
}

// fuzzMachines are the machines an input picks from: level group sizes,
// innermost first. Single-level machines run the flat recursion only.
var fuzzMachines = [][]int64{{2}, {3}, {4}, {6}, {2, 2}, {2, 3}, {3, 2}, {2, 2, 2}, {2, 3, 2}}

var (
	fuzzBandwidths = []float64{40e9, 20e9, 10e9, 5e9}
	// Batches that turn odd after one or two halvings (12, 10, 18, 20, 6)
	// stop a dimension from splitting mid-chain.
	fuzzBatches = []int64{12, 24, 36, 48, 10, 18, 20, 6}
	fuzzWidths  = []int64{4, 6, 8, 12, 16, 24}
)

// fuzzInput is one decoded input: a training graph and the machine to
// partition it for.
type fuzzInput struct {
	g    *graph.Graph
	tp   topo.Topology
	desc string
}

// fuzzBytes hands out the input one choice at a time; an exhausted input
// chooses 0.
type fuzzBytes []byte

func (r *fuzzBytes) pick(n int) int {
	if len(*r) == 0 {
		return 0
	}
	v := int((*r)[0]) % n
	*r = (*r)[1:]
	return v
}

// decodeFuzzInput reads a machine (group sizes and a bandwidth per level), a
// batch and an input width, then up to five motifs, and closes the forward
// graph into a training graph — softmax cross-entropy, backward, optimizer —
// or, for one optimizer choice, leaves it a forward graph ending in the
// softmax: a backward pass mirrors each forward variable in a gradient one,
// and a forward graph is partitioned as well. An input whose operators do
// not fit together is an error (skipped).
func decodeFuzzInput(data []byte) (*fuzzInput, error) {
	r := fuzzBytes(data)
	sizes := fuzzMachines[r.pick(len(fuzzMachines))]
	tp := topo.Topology{Name: "fuzz", HW: topo.DefaultHW()}
	k := int64(1)
	for i, gs := range sizes {
		tp.Levels = append(tp.Levels, topo.Level{Name: fmt.Sprintf("l%d", i), GroupSize: gs,
			Bandwidth: fuzzBandwidths[r.pick(len(fuzzBandwidths))]})
		k *= gs
	}
	tp.HW.NumGPUs, tp.HW.P2PBandwidth = int(k), tp.Levels[0].Bandwidth

	b := &fuzzBuilder{g: graph.New(), r: &r, batch: fuzzBatches[r.pick(len(fuzzBatches))]}
	b.desc = fmt.Sprintf("machine %v batch %d:", sizes, b.batch)
	h := b.g.Input("x", shape.Of(b.batch, fuzzWidths[r.pick(len(fuzzWidths))]))
	for m := 0; m < 5 && len(r) > 0; m++ {
		h = b.motif(m, h)
	}
	classes := fuzzWidths[r.pick(len(fuzzWidths))]
	logits := b.apply("matmul", nil, h, b.weight(width(h), classes))
	probs := b.apply("softmax", nil, logits)
	// The byte's parity picks the optimizer, as for the committed corpus
	// entries, except 3 mod 4: a forward graph.
	opt := []string{"sgd", "adam", "sgd", "none"}[r.pick(4)]
	if opt == "none" {
		b.desc += " (forward only)"
		return &fuzzInput{g: b.g, tp: tp, desc: b.desc}, b.err
	}
	labels := b.g.Input("labels", shape.Of(b.batch, classes))
	dLogits := b.apply("softmax_ce_grad", nil, probs, labels)
	if b.err != nil {
		return nil, b.err
	}
	if err := b.g.Backward(map[*graph.Tensor]*graph.Tensor{logits: dLogits}, graph.AutodiffOptions{InPlaceAgg: true}); err != nil {
		return nil, err
	}
	if err := b.g.ApplyOptimizer(opt); err != nil {
		return nil, err
	}
	return &fuzzInput{g: b.g, tp: tp, desc: b.desc}, nil
}

// fuzzBuilder grows a forward graph of [batch, width] activations. The first
// operator that fails leaves err set and every later one a no-op.
type fuzzBuilder struct {
	g       *graph.Graph
	r       *fuzzBytes
	batch   int64
	squares []*graph.Tensor // square weights, for sharing
	last    []byte          // the bytes the previous block read
	desc    string
	err     error
}

func width(t *graph.Tensor) int64 {
	if t == nil {
		return 1
	}
	return t.Shape.Dim(1)
}

func (b *fuzzBuilder) apply(op string, attrs tdl.Attrs, in ...*graph.Tensor) *graph.Tensor {
	if b.err != nil {
		return nil
	}
	out, err := b.g.TryApply(op, attrs, in...)
	b.err = err
	return out
}

func (b *fuzzBuilder) weight(rows, cols int64) *graph.Tensor {
	return b.g.Weight(fmt.Sprintf("w%d", len(b.g.Tensors)), shape.Of(rows, cols))
}

// square returns a d×d weight: an earlier one of that size when the input
// asks to share and there is one, otherwise a new one.
func (b *fuzzBuilder) square(d int64) *graph.Tensor {
	if b.r.pick(2) == 1 {
		for _, w := range b.squares {
			if w.Shape.Dim(0) == d {
				return w
			}
		}
	}
	w := b.weight(d, d)
	b.squares = append(b.squares, w)
	return w
}

func (b *fuzzBuilder) act(h *graph.Tensor) *graph.Tensor {
	return b.apply([]string{"relu", "tanh", "sigmoid"}[b.r.pick(3)], nil, h)
}

// motif appends one building block to h and returns its output: a block
// (block), or the previous block again (repeat), so that segments repeat.
func (b *fuzzBuilder) motif(m int, h *graph.Tensor) *graph.Tensor {
	start := *b.r
	code := b.r.pick(8)
	if code == 7 {
		return b.repeat(m, h)
	}
	h = b.block(code, m, h)
	b.last = start[:len(start)-len(*b.r)]
	return h
}

// repeat replays the bytes of the previous block, one of them possibly
// replaced: an identical block, or one that differs in a single choice —
// an activation, an operator, an operand order, a step count.
func (b *fuzzBuilder) repeat(m int, h *graph.Tensor) *graph.Tensor {
	if b.last == nil {
		return h
	}
	again := append([]byte(nil), b.last...)
	if at := b.r.pick(len(again) + 1); at < len(again) {
		again[at] = byte(b.r.pick(256))
	}
	again[0] %= 7 // a block, not another repeat
	b.desc += " repeat:"
	saved := b.r
	sub := fuzzBytes(again)
	b.r = &sub
	h = b.motif(m, h)
	b.r = saved
	return h
}

// block appends building block code to h.
func (b *fuzzBuilder) block(code, m int, h *graph.Tensor) *graph.Tensor {
	if h == nil {
		return nil
	}
	d := width(h)
	switch code {
	case 0: // dense layer, possibly changing the width
		d2 := fuzzWidths[b.r.pick(len(fuzzWidths))]
		b.desc += fmt.Sprintf(" dense(%d→%d)", d, d2)
		h = b.apply("matmul", nil, h, b.weight(d, d2))
		if b.r.pick(2) == 1 {
			h = b.apply("bias_add", nil, h, b.g.Weight(fmt.Sprintf("b%d", len(b.g.Tensors)), shape.Of(d2)))
		}
		return b.act(h)
	case 1: // residual block of one or two layers, the second's skip from
		// the block's input or from the first layer
		op := []string{"matmul", "matmul_nt"}[b.r.pick(2)]
		t := b.act(b.apply(op, nil, h, b.square(d)))
		if b.r.pick(2) == 0 {
			b.desc += fmt.Sprintf(" residual(%s %d)", op, d)
			return b.apply("add", nil, h, t)
		}
		skip := h
		if b.r.pick(2) == 1 {
			skip = t
		}
		b.desc += fmt.Sprintf(" residual2(%s %d, inner skip %v)", op, d, skip == t)
		return b.apply("add", nil, b.apply("matmul", nil, t, b.square(d)), skip)
	case 2: // fan-out into 2 to 11 branches, all computed before a chain
		// joins them one at a time: an element-wise join would merge the
		// branches into one variable, a product join keeps them live apart.
		// The join's scores take their operands either way round: both are
		// variables seen before, so only the operand IDs tell the two apart.
		v := b.r.pick(20)
		n, swap := 2+v%10, v >= 10
		b.desc += fmt.Sprintf(" fan(%d×%d, swapped %v)", n, d, swap)
		branches := make([]*graph.Tensor, n)
		for i := range branches {
			branches[i] = b.act(b.apply("matmul", nil, h, b.square(d)))
		}
		out := branches[0]
		for _, br := range branches[1:] {
			x, y := out, br
			if swap {
				x, y = br, out
			}
			out = b.apply("matmul", nil, b.apply("matmul_nt", nil, x, y), br)
		}
		return out
	case 3: // a recurrent cell unrolled 2 or 3 times over shared weights,
		// its recurrence a matmul or a matmul_nt. With batch = width the
		// recurrence may put the weight first, its state numbered before
		// the weight: the product's operands then sit in the same table
		// positions as the usual cell's and only the output position (the
		// state) differs. A twin is a second cell over the same initial
		// state and weights, unrolled the other number of times, the two
		// final states added: one variable holds both cells' states, so
		// twins of 2 then 3 steps and of 3 then 2 steps differ only in their
		// slots' multiplicities.
		v := b.r.pick(16)
		steps, flip, rec, twin := 2+v%2, v/2%2 == 1 && b.batch == d, []string{"matmul", "matmul_nt"}[v/4%2], v >= 8
		fresh := b.r.pick(2) == 1
		b.desc += fmt.Sprintf(" cell(%d×%d, fresh inputs %v, %s, weight first %v, twin %v)", steps, d, fresh, rec, flip, twin)
		var s0 *graph.Tensor
		if flip {
			s0 = b.g.Input(fmt.Sprintf("s%d", m), shape.Of(b.batch, d))
		}
		wx, wh := b.square(d), b.weight(d, d)
		if !flip {
			s0 = b.g.Input(fmt.Sprintf("s%d", m), shape.Of(b.batch, d))
		}
		unroll := func(tag string, steps int) *graph.Tensor {
			s := s0
			for ts := 0; ts < steps; ts++ {
				in := h
				if fresh && ts > 0 {
					in = b.g.Input(fmt.Sprintf("x%s.%d", tag, ts), shape.Of(b.batch, d))
				}
				start := len(b.g.Nodes)
				x, y := s, wh
				if flip {
					x, y = wh, s
				}
				s = b.apply("tanh", nil, b.apply("add", nil, b.apply("matmul", nil, in, wx), b.apply(rec, nil, x, y)))
				for _, n := range b.g.Nodes[start:] {
					n.UnrollTag, n.Timestep = "cell"+tag, ts
				}
			}
			return s
		}
		out := unroll(fmt.Sprint(m), steps)
		if twin {
			out = b.apply("add", nil, out, unroll(fmt.Sprintf("%d.twin", m), 5-steps))
		}
		return out
	case 4: // self-attention across the batch
		b.desc += fmt.Sprintf(" attention(%d)", d)
		q := b.apply("matmul", nil, h, b.square(d))
		k := b.apply("matmul", nil, h, b.square(d))
		v := b.apply("matmul", nil, h, b.square(d))
		if b.r.pick(2) == 1 {
			q, k = k, q // the scores' operands the other way round
		}
		a := b.apply("softmax", nil, b.apply("matmul_nt", nil, q, k))
		return b.apply("add", nil, h, b.apply("matmul", nil, a, v))
	case 5: // a sequence read through a token-wise linear layer, its last token added in
		steps := []int64{2, 3, 4, 6}[b.r.pick(4)]
		e := fuzzWidths[b.r.pick(len(fuzzWidths))]
		b.desc += fmt.Sprintf(" sequence(%d×%d→%d)", steps, e, d)
		seq := b.g.Input(fmt.Sprintf("seq%d", m), shape.Of(b.batch, steps, e))
		y := b.act(b.apply("linear3d", nil, seq, b.weight(e, d)))
		return b.apply("add", nil, h, b.apply("last_token", tdl.Attrs{"pos": steps - 1}, y))
	default: // gated element-wise block, or a pair of equal products of one
		// weight, each added into a product of its own weight — straight or
		// crossed. The two orders differ only in which variable each of the
		// equal products writes.
		v := b.r.pick(9)
		if v < 3 {
			b.desc += fmt.Sprintf(" gate(%d)", d)
			return b.apply("mul", nil, h, b.apply([]string{"relu", "tanh", "sigmoid"}[v], nil, h))
		}
		crossed := v >= 6
		b.desc += fmt.Sprintf(" pair(%d, crossed %v)", d, crossed)
		a := b.apply("matmul", nil, h, b.weight(d, d))
		c := b.apply("matmul", nil, h, b.weight(d, d))
		w := b.weight(d, d)
		y1, y2 := b.apply("matmul", nil, h, w), b.apply("matmul", nil, h, w)
		if crossed {
			y1, y2 = y2, y1
		}
		z1, z2 := b.apply("add", nil, y1, a), b.apply("add", nil, y2, c)
		return b.apply("matmul", nil, b.apply("matmul_nt", nil, z1, z2), z2)
	}
}

// fuzzLayers names the layers FuzzPartition must see exercised, in the order
// fuzzUse counts them.
var fuzzLayers = [...]string{"table memo hits", "shared preparations", "replayed sweeps",
	"segment memo hits", "segments the lazy search skipped", "bounded sweeps", "orderings pruned",
	"brute-forced flat DPs", "hybrid searches", "segments sharing a structural key",
	"in-place chains crossing a stage edge", "tensors read by two stages"}

// fuzzUse counts what one input exercised, per fuzzLayers entry.
type fuzzUse [len(fuzzLayers)]int64

// fuzzCoverage sums fuzzUse over the inputs a run checked.
type fuzzCoverage struct {
	inputs int
	per    [len(fuzzLayers)]int // inputs that exercised each layer
	total  fuzzUse
}

func (c *fuzzCoverage) add(u fuzzUse) {
	c.inputs++
	for i, n := range u {
		c.total[i] += n
		if n > 0 {
			c.per[i]++
		}
	}
}

// report logs the per-layer counts and, after a run of the whole committed
// corpus (not a -run subset, not a fuzzing worker), fails on a layer no input
// exercised.
func (c *fuzzCoverage) report(f *testing.F) {
	if c.inputs == 0 {
		return
	}
	for i, name := range fuzzLayers {
		f.Logf("%-40s %3d of %d inputs, %d in all", name+":", c.per[i], c.inputs, c.total[i])
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "fuzz", "FuzzPartition"))
	if err != nil || c.inputs != len(entries) {
		return
	}
	for i, name := range fuzzLayers {
		if c.per[i] == 0 {
			f.Errorf("no corpus entry exercises %s", name)
		}
	}
}

// countAttr counts the spans under s (s included) carrying the attribute key.
func countAttr(s *obs.Span, key string) int64 {
	n := int64(0)
	for _, a := range s.Attrs() {
		if a.Key == key {
			n++
		}
	}
	for _, ch := range s.Children() {
		n += countAttr(ch, key)
	}
	return n
}

// checkPartition runs every relation on one input and returns what it
// exercised.
func checkPartition(t *testing.T, in *fuzzInput) fuzzUse {
	var use fuzzUse
	c, err := coarsen.Coarsen(in.g)
	if err != nil {
		t.Fatalf("coarsen: %v", err)
	}
	k := int64(in.tp.NumGPUs())
	for _, f := range distinctFactors(k) {
		checkFlatDP(t, c, f, &use)
	}
	checkRecursive(t, c, in.tp, &use)
	if in.tp.Hierarchical() && len(c.Groups) >= 2 {
		checkSegmentKeys(t, c, &use)
		checkHybrid(t, c, in.tp, &use)
	}
	return use
}

// checkSegmentKeys holds the structural key (coarsen.Coarse.AppendStructKey)
// to the premise the segment memo shares a search on: segments with equal
// keys read alike (searchView) — on every interval of groups, not only on
// those whose searches happen to differ.
func checkSegmentKeys(t *testing.T, c *coarsen.Coarse, use *fuzzUse) {
	t.Helper()
	type class struct {
		lo, hi int
		view   string
	}
	classes := map[string]class{}
	var sc coarsen.SegmentScratch
	for lo := range c.Groups {
		for hi := lo + 1; hi <= len(c.Groups); hi++ {
			seg, err := c.Segment(lo, hi, &sc)
			if err != nil {
				continue
			}
			key, view := string(seg.AppendStructKey(nil)), searchView(seg)
			first, ok := classes[key]
			if !ok {
				classes[key] = class{lo, hi, view}
				continue
			}
			use[9]++
			if first.view != view {
				t.Fatalf("groups [%d,%d) and [%d,%d) share a structural key but read differently:\n%s\n%s",
					first.lo, first.hi, lo, hi, first.view, view)
			}
		}
	}
}

// searchView spells out what dp.Prepare, Solve and LowerBound and
// recursive.Search read of a coarsening, by variable position: which
// variables an operator references and their shapes; per group, per slot the
// signature, the multiplicity and the operand variables, then the variables
// the group decides (NewVars) and its frontier (LiveAfter).
func searchView(c *coarsen.Coarse) string {
	var b strings.Builder
	ids := func(vs []*coarsen.Var) []int {
		out := make([]int, len(vs))
		for i, v := range vs {
			out[i] = v.ID
		}
		return out
	}
	for _, v := range c.Vars {
		if v.First < 0 {
			fmt.Fprintf(&b, "var %d unreferenced\n", v.ID)
		} else {
			fmt.Fprintf(&b, "var %d %v\n", v.ID, v.Shape)
		}
	}
	for _, g := range c.Groups {
		b.WriteString("group\n")
		for _, sl := range g.Slots {
			fmt.Fprintf(&b, "  %q x%d %v -> %d\n", sl.Sig, len(sl.Ops), ids(sl.In), sl.Out.ID)
		}
		fmt.Fprintf(&b, "  new %v live %v\n", ids(g.NewVars), ids(g.LiveAfter))
	}
	return b.String()
}

func distinctFactors(k int64) []int64 {
	var out []int64
	for _, f := range recursive.Factorize(k) {
		if len(out) == 0 || out[len(out)-1] != f {
			out = append(out, f)
		}
	}
	return out
}

// originalShapes is the per-variable shape table of a fresh search: every
// variable at its original shape, keyed by its first member.
func originalShapes(c *coarsen.Coarse) map[int]shape.Shape {
	out := make(map[int]shape.Shape, len(c.Vars))
	for _, v := range c.Vars {
		out[v.Tensors[0].ID] = v.Shape.Clone()
	}
	return out
}

// divide applies a step's cuts to a per-variable shape table.
func divide(t *testing.T, c *coarsen.Coarse, shapes map[int]shape.Shape, st *plan.Step) {
	t.Helper()
	for _, v := range c.Vars {
		if dim, ok := st.VarCut[v.ID]; ok {
			s, err := shapes[v.Tensors[0].ID].Split(dim, st.K)
			if err != nil {
				t.Fatalf("a plan step cuts variable %d along %d, which does not divide: %v", v.ID, dim, err)
			}
			shapes[v.Tensors[0].ID] = s
		}
	}
}

// checkFlatDP holds one flat K-way dp.Solve to an exact sweep that shares
// nothing and bounds nothing, and to brute force where that is small.
func checkFlatDP(t *testing.T, c *coarsen.Coarse, k int64, use *fuzzUse) {
	t.Helper()
	span := obs.NewSpan("fuzz")
	cache := dp.NewPriceCache()
	p := &dp.Problem{Coarse: c, K: k, Shapes: originalShapes(c), DType: shape.Float32, Parallelism: 1, Cache: cache, Trace: span}
	got, err := dp.Solve(p)
	// A frontier bound no frontier can reach prunes nothing and turns the
	// incumbent bound off (dp.Problem.MaxStates): the exhaustive sweep.
	q := &dp.Problem{Coarse: c, K: k, Shapes: originalShapes(c), DType: shape.Float32, Parallelism: 1, MaxStates: math.MaxInt32}
	want, werr := dp.Solve(q)
	if (err == nil) != (werr == nil) {
		t.Fatalf("flat DP at K=%d: error %v, exhaustive sweep's %v", k, err, werr)
	}
	if err != nil {
		return
	}
	hits, _, _ := cache.TableStats()
	use[0] += hits
	use[5] += countAttr(span, "bound_pruned")
	if math.Float64bits(got.CommBytes) != math.Float64bits(want.CommBytes) || !maps.Equal(got.VarCut, want.VarCut) {
		t.Fatalf("flat DP at K=%d: cost %v, the exhaustive sweep's %v (same cuts %v)",
			k, got.CommBytes, want.CommBytes, maps.Equal(got.VarCut, want.VarCut))
	}
	best, ok := bruteForce(t, &dp.Problem{Coarse: c, K: k, Shapes: originalShapes(c), DType: shape.Float32, Parallelism: 1}, cache)
	if !ok {
		return
	}
	use[7]++
	if math.Abs(best-got.CommBytes) > 1e-9*(1+best) {
		t.Fatalf("flat DP at K=%d: %v, brute force %v", k, got.CommBytes, best)
	}
}

// bruteForce prices every assignment of the coarse variables when there are
// at most 4096 and returns the cheapest. Each assignment is priced twice:
// with no price cache, and through shared, the cache a solve of the same step
// filled — every shared slot table must match a fresh one entry by entry.
func bruteForce(t *testing.T, p *dp.Problem, shared *dp.PriceCache) (float64, bool) {
	t.Helper()
	ev, err := dp.NewEvaluator(p)
	if err != nil {
		t.Fatalf("brute force at K=%d: %v", p.K, err)
	}
	q := *p
	q.Cache = shared
	evc, err := dp.NewEvaluator(&q)
	if err != nil {
		t.Fatalf("brute force at K=%d, shared cache: %v", p.K, err)
	}
	var vars []int
	space := 1
	for _, v := range p.Coarse.Vars {
		if v.First >= 0 {
			vars = append(vars, v.ID)
			if space *= len(ev.Configs(v.ID)); space > 4096 {
				return 0, false
			}
		}
	}
	best := math.Inf(1)
	assign := make(map[int]int, len(vars))
	var walk func(i int)
	walk = func(i int) {
		if i == len(vars) {
			cost, err := ev.Total(assign)
			if err != nil {
				t.Fatalf("brute force at K=%d: %v", p.K, err)
			}
			if cc, err := evc.Total(assign); err != nil || math.Float64bits(cc) != math.Float64bits(cost) {
				t.Fatalf("brute force at K=%d, cuts %v: %v through the shared price cache (error %v), %v without", p.K, assign, cc, err, cost)
			}
			best = math.Min(best, cost)
			return
		}
		for _, d := range ev.Configs(vars[i]) {
			assign[vars[i]] = d
			walk(i + 1)
		}
	}
	walk(0)
	return best, true
}

// checkRecursive searches the whole machine and holds the plan to fresh
// per-step solves, to re-pricing, to the flat ordering enumeration, to other
// Parallelism settings and to faster links.
func checkRecursive(t *testing.T, c *coarsen.Coarse, tp topo.Topology, use *fuzzUse) {
	t.Helper()
	k := int64(tp.NumGPUs())
	span := obs.NewSpan("fuzz")
	cache := dp.NewPriceCache()
	var st recursive.SearchStats
	got, err := recursive.PartitionCoarse(c, k, recursive.Options{Topology: &tp, Parallelism: 1, Cache: cache, Stats: &st, Trace: span})
	var ex *plan.Plan
	var exErr error
	if tp.Hierarchical() {
		ex, exErr = recursive.Search(c, k, recursive.Options{Topology: &tp, Parallelism: 1, TopoExhaustive: true})
		if (err == nil) != (exErr == nil) {
			t.Fatalf("ordering search: error %v, exhaustive enumeration's %v", err, exErr)
		}
	}
	// Callers may share one cache between searches under different strategy
	// filters (the paper-artifact baselines do): a search without
	// output-reduction strategies on the cache the search above filled ≡ the
	// same search on a cache of its own.
	noReduce := func(s partition.Strategy) bool { return s.Kind != partition.SplitReduce }
	shared, serr := recursive.PartitionCoarse(c, k, recursive.Options{Topology: &tp, Parallelism: 1, Cache: cache, StrategyFilter: noReduce})
	own, oerr := recursive.PartitionCoarse(c, k, recursive.Options{Topology: &tp, Parallelism: 1, StrategyFilter: noReduce})
	if (serr == nil) != (oerr == nil) || serr == nil && !bytes.Equal(planBytes(t, shared), planBytes(t, own)) {
		t.Fatalf("filtered search on a shared cache: error %v, on its own cache %v (or the plans differ)", serr, oerr)
	}

	// Every chain of factors runs on a step memo of its own: the walk checks
	// every ordering's, not only the winner's. The machine is feasible when
	// one is.
	chains := checkStepMemo(t, c, poolFactors(tp), use)
	if tp.Hierarchical() && (err == nil) != (len(chains) > 0) {
		t.Fatalf("ordering search: error %v, yet %d orderings feasible", err, len(chains))
	}
	if err != nil {
		return
	}
	hits, _, _ := cache.TableStats()
	use[0] += hits
	use[5] += countAttr(span, "bound_pruned")
	use[6] += int64(st.Pruned)
	if ex != nil {
		if diff := hybrid.StepsDiff(got, ex); diff != "" {
			t.Fatalf("ordering search and exhaustive enumeration differ: %s", diff)
		}
	}
	checkChain(t, got, chains, "plan")
	reprice(t, c.G, got, "plan")

	want := planBytes(t, got)
	for _, par := range []int{2, 8} {
		var pst recursive.SearchStats
		p, err := recursive.PartitionCoarse(c, k, recursive.Options{Topology: &tp, Parallelism: par, Stats: &pst})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !bytes.Equal(planBytes(t, p), want) || pst != st {
			t.Fatalf("parallelism %d: plan bytes equal %v, stats %+v, at 1 %+v", par, bytes.Equal(planBytes(t, p), want), pst, st)
		}
	}

	cost := recursive.CommTime(got, tp)
	for l := range tp.Levels {
		fast := faster(tp, l)
		p, err := recursive.Search(c, k, recursive.Options{Topology: &fast, Parallelism: 1})
		if err != nil {
			t.Fatalf("level %d twice as fast: %v", l, err)
		}
		if fc := recursive.CommTime(p, fast); fc > cost {
			t.Fatalf("level %d twice as fast: cost %v, up from %v", l, fc, cost)
		}
	}
}

// checkChain holds a searched plan's steps to the fresh chain of its step
// factors that walkChains recorded: nothing shared between steps, a fresh
// dp.Solve with no price cache per step at the shapes the steps before it
// leave.
func checkChain(t *testing.T, p *plan.Plan, chains map[string][]*dp.Result, what string) {
	t.Helper()
	ord := stepFactors(p)
	fresh, ok := chains[fmt.Sprint(ord)]
	if !ok {
		t.Fatalf("%s: factors %v, an ordering no fresh chain takes", what, ord)
	}
	for i, st := range p.Steps {
		if diff := resultDiff(st, fresh[i]); diff != "" {
			t.Fatalf("%s, step %d (x%d) and a fresh solve at its shapes differ: %s", what, i+1, st.K, diff)
		}
	}
}

// chainWalk walks every prefix of every distinct ordering of a factor
// multiset through one dp.StepMemo and price cache, as the ordering search
// shares them, holding each step to a fresh preparation (memoStep) and
// dividing the shapes along the fresh cuts. At each complete ordering it
// searches the chain (recursive.Search with those Factors: runSteps, a memo of
// its own) and holds its steps to the fresh solves along the path; an
// ordering with a prefix no fresh step takes must fail.
type chainWalk struct {
	t     *testing.T
	c     *coarsen.Coarse
	memo  dp.StepMemo
	cache *dp.PriceCache
	use   *fuzzUse // nil: not counted
	// chains holds the fresh solves of every complete ordering, by
	// fmt.Sprint of its factors.
	chains map[string][]*dp.Result
}

// walkChains walks c's prefix tree of factors (chainWalk).
func walkChains(t *testing.T, c *coarsen.Coarse, factors []int64, use *fuzzUse) *chainWalk {
	t.Helper()
	w := &chainWalk{t: t, c: c, cache: dp.NewPriceCache(), use: use, chains: map[string][]*dp.Result{}}
	w.walk(nil, factors, originalShapes(c), nil)
	return w
}

// step takes one step of K f at shapes through the memo.
func (w *chainWalk) step(f int64, shapes map[int]shape.Shape, at string) *dp.Result {
	w.t.Helper()
	want, hit, replayed := memoStep(w.t, &w.memo, &dp.Problem{Coarse: w.c, K: f, Shapes: shapes, DType: shape.Float32, Parallelism: 1, Cache: w.cache}, at)
	if w.use != nil && hit {
		w.use[1]++
	}
	if w.use != nil && replayed {
		w.use[2]++
	}
	return want
}

func (w *chainWalk) walk(prefix, rest []int64, shapes map[int]shape.Shape, path []*dp.Result) {
	w.t.Helper()
	if len(rest) == 0 {
		p, err := recursive.Search(w.c, product(prefix), recursive.Options{Factors: prefix, Parallelism: 1})
		if err != nil {
			w.t.Fatalf("factors %v: every fresh step succeeds, the search fails: %v", prefix, err)
		}
		w.chains[fmt.Sprint(prefix)] = path
		checkChain(w.t, p, w.chains, fmt.Sprintf("factors %v", prefix))
		return
	}
	seen := map[int64]bool{}
	for i, f := range rest {
		if seen[f] {
			continue
		}
		seen[f] = true
		at := append(prefix[:len(prefix):len(prefix)], f)
		tail := append(append([]int64(nil), rest[:i]...), rest[i+1:]...)
		want := w.step(f, shapes, fmt.Sprintf("factors %v", at))
		if want == nil {
			ord := append(at, tail...)
			if _, err := recursive.Search(w.c, product(ord), recursive.Options{Factors: ord, Parallelism: 1}); err == nil {
				w.t.Fatalf("factors %v: a fresh step of %v fails, the search succeeds", ord, at)
			}
			continue
		}
		next := maps.Clone(shapes)
		divide(w.t, w.c, next, &plan.Step{K: f, VarCut: want.VarCut})
		w.walk(at, tail, next, append(path[:len(path):len(path)], want))
	}
}

// checkStepMemo walks the prefix tree of factors (walkChains), then tries
// shape tables no search need reach on the same memo: one variable's
// dimension stripped of a factor, so that exactly one alphabet bit differs
// from the original shapes' key. It returns the walk's fresh chains.
func checkStepMemo(t *testing.T, c *coarsen.Coarse, factors []int64, use *fuzzUse) map[string][]*dp.Result {
	t.Helper()
	w := walkChains(t, c, factors, use)
	for _, f := range distinctFactors(product(factors)) {
		for _, v := range c.Vars {
			for d := range v.Shape.Rank() {
				if !v.Shape.CanSplit(d, f) {
					continue
				}
				s := v.Shape.Clone()
				for s.CanSplit(d, f) {
					s[d] /= f
				}
				shapes := originalShapes(c)
				shapes[v.Tensors[0].ID] = s
				w.step(f, shapes, fmt.Sprintf("K=%d with variable %d at %v", f, v.ID, s))
			}
		}
	}
	return w.chains
}

// memoStep prepares and solves p through memo and, with no price cache,
// fresh, and holds the two to the same outcome, LowerBound bits, VarCut,
// CommBytes, States and Configs. It returns the fresh result (nil when the
// step is infeasible) and whether the memo shared the preparation and
// replayed the sweep.
func memoStep(t *testing.T, memo *dp.StepMemo, p *dp.Problem, at string) (want *dp.Result, hit, replayed bool) {
	t.Helper()
	q := *p
	q.Cache = nil
	pr, hit, err := memo.Prepare(p)
	fresh, ferr := dp.Prepare(&q)
	if (err == nil) != (ferr == nil) {
		t.Fatalf("step memo at %s: preparation error %v, fresh %v", at, err, ferr)
	}
	if err != nil {
		return nil, hit, false
	}
	if got, want := pr.LowerBound(), fresh.LowerBound(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("step memo at %s (shared %v): LowerBound %v, fresh %v", at, hit, got, want)
	}
	res, replayed, err := memo.Solve(pr)
	want, werr := fresh.Solve()
	if (err == nil) != (werr == nil) {
		t.Fatalf("step memo at %s: solve error %v, fresh %v", at, err, werr)
	}
	if err != nil {
		return nil, hit, replayed
	}
	if diff := resultDiff(&plan.Step{K: p.K, VarCut: res.VarCut, CommBytes: res.CommBytes, States: res.States, Configs: res.Configs}, want); diff != "" {
		t.Fatalf("step memo at %s (shared %v, replayed %v) and a fresh solve differ: %s", at, hit, replayed, diff)
	}
	return want, hit, replayed
}

// stepFactors lists a plan's step factors.
func stepFactors(p *plan.Plan) []int64 {
	out := make([]int64, len(p.Steps))
	for i, st := range p.Steps {
		out[i] = st.K
	}
	return out
}

// poolFactors lists a machine's recursive factors, innermost level first.
func poolFactors(tp topo.Topology) []int64 {
	var out []int64
	for _, lv := range tp.Levels {
		out = append(out, recursive.Factorize(lv.GroupSize)...)
	}
	return out
}

// faster returns tp with level l's bandwidth doubled.
func faster(tp topo.Topology, l int) topo.Topology {
	tp.Levels = append([]topo.Level(nil), tp.Levels...)
	tp.Levels[l].Bandwidth *= 2
	tp.HW.P2PBandwidth = tp.Levels[0].Bandwidth
	return tp
}

// resultDiff names the first difference between a plan step and a solve.
func resultDiff(st *plan.Step, res *dp.Result) string {
	switch {
	case math.Float64bits(st.CommBytes) != math.Float64bits(res.CommBytes):
		return fmt.Sprintf("CommBytes %v, fresh %v", st.CommBytes, res.CommBytes)
	case st.States != res.States || st.Configs != res.Configs:
		return fmt.Sprintf("(States, Configs) (%d, %d), fresh (%d, %d)", st.States, st.Configs, res.States, res.Configs)
	case !maps.Equal(st.VarCut, res.VarCut):
		return "VarCut"
	}
	return ""
}

// reprice prices every operator of g under each materialized step of p from
// scratch — partition.Cost at g's original shapes (Lemma 1), the step's
// strategy and its operands' cuts — and holds the sum to the step's
// CommBytes. Each strategy must also be applicable at the step's current
// shapes.
func reprice(t *testing.T, g *graph.Graph, p *plan.Plan, what string) {
	t.Helper()
	cur := make([]shape.Shape, len(g.Tensors))
	for i, ten := range g.Tensors {
		cur[i] = ten.Shape.Clone()
	}
	for si, st := range p.Steps {
		total := 0.0
		for _, n := range g.Nodes {
			desc, err := g.Describe(n)
			if err != nil {
				t.Fatal(err)
			}
			orig := &partition.Spec{Desc: desc, OutShape: n.Output.Shape, DType: shape.Float32}
			now := &partition.Spec{Desc: desc, OutShape: cur[n.Output.ID], DType: shape.Float32}
			cuts := make([]partition.Cut, len(n.Inputs))
			for i, in := range n.Inputs {
				orig.InShapes = append(orig.InShapes, in.Shape)
				now.InShapes = append(now.InShapes, cur[in.ID])
				cuts[i] = partition.Cut{Dim: st.TensorCut[in.ID]}
			}
			s := st.OpStrategy[n.ID]
			if !now.Applicable(s, st.K) {
				t.Fatalf("%s step %d: %v runs %v, not applicable at its current shapes", what, si+1, n, s)
			}
			bd, err := partition.Cost(orig, s, st.K, cuts, partition.Cut{Dim: st.TensorCut[n.Output.ID]})
			if err != nil {
				t.Fatalf("%s step %d: pricing %v: %v", what, si+1, n, err)
			}
			total += bd.Total
		}
		if math.Abs(total-st.CommBytes) > 1e-9*(1+st.CommBytes) {
			t.Fatalf("%s step %d: re-priced at %v, CommBytes %v", what, si+1, total, st.CommBytes)
		}
		for id, dim := range st.TensorCut {
			if dim >= 0 {
				s, err := cur[id].Split(dim, st.K)
				if err != nil {
					t.Fatalf("%s step %d: tensor %d: %v", what, si+1, id, err)
				}
				cur[id] = s
			}
		}
	}
}

// stageEdges counts, over the stages of a pipeline plan, the outputs of
// in-place aggregations that another stage reads (the aggregation's alias
// chain crosses a stage edge) and the tensors that operators of two or more
// stages read: the edges at which a stage's execution over the whole graph
// must stop alias chains and reference counts.
func stageEdges(res *hybrid.Result, use *fuzzUse) {
	g := res.Stages[0].G
	stageOf := make([]int, len(g.Nodes))
	for si, stg := range res.Stages {
		for _, op := range stg.Sharded.Ops {
			stageOf[op.Node.ID] = si
		}
	}
	for _, ten := range g.Tensors {
		if p := ten.Producer; p != nil && p.InPlace {
			for _, c := range ten.Consumers {
				if stageOf[c.ID] != stageOf[p.ID] {
					use[10]++
					break
				}
			}
		}
		for _, c := range ten.Consumers {
			if stageOf[c.ID] != stageOf[ten.Consumers[0].ID] {
				use[11]++
				break
			}
		}
	}
}

// checkHybrid holds the pipeline search — every level on its own, then the
// automatic choice among them — to pipelineReference, and the automatic
// search to other Parallelism settings and faster links.
func checkHybrid(t *testing.T, c *coarsen.Coarse, tp topo.Topology, use *fuzzUse) {
	t.Helper()
	k := int64(tp.NumGPUs())
	xb := handoffs(c)
	refs, intervals := pipelineReference(t, c, tp, xb)
	var auto *pipelineRef // the innermost cheapest level: a later one must be strictly cheaper
	for i, r := range refs {
		want := &refs[i]
		if math.IsInf(r.cost, 1) {
			want = nil
		} else if auto == nil || r.cost < auto.cost {
			auto = want
		}
		// The lazy search, and the exhaustive walk, which fills every
		// segment of the level through the segment memo.
		for _, exhaustive := range []bool{false, true} {
			span := obs.NewSpan("fuzz")
			got, err := hybrid.PartitionCoarse(c, k, hybrid.Options{Topology: &tp, Level: r.level, Parallelism: 1, Exhaustive: exhaustive, Trace: span})
			use[3] += countAttr(span, "memo_hit")
			comparePipeline(t, fmt.Sprintf("hybrid at level %d (exhaustive %v)", r.level, exhaustive), c, got, err, want, xb)
		}
	}

	span := obs.NewSpan("fuzz")
	var st hybrid.Stats
	got, err := hybrid.PartitionCoarse(c, k, hybrid.Options{Topology: &tp, Parallelism: 1, Stats: &st, Trace: span, Gen: graphgen.DefaultOptions()})
	comparePipeline(t, "hybrid", c, got, err, auto, xb)
	if err != nil {
		return
	}
	use[8]++
	use[3] += countAttr(span, "memo_hit")
	use[4] += intervals - countSpans(span, "hybrid.segment")
	use[5] += countAttr(span, "bound_pruned")
	for si, stg := range got.Stages {
		// The batch only scales sim.Run's throughput.
		checkStageExecution(t, c, stg, 1, fmt.Sprintf("hybrid stage %d", si))
	}
	stageEdges(got, use)

	want := planBytes(t, got.Plan)
	for _, par := range []int{2, 8} {
		var pst hybrid.Stats
		r, err := hybrid.PartitionCoarse(c, k, hybrid.Options{Topology: &tp, Parallelism: par, Stats: &pst})
		if err != nil {
			t.Fatalf("hybrid at parallelism %d: %v", par, err)
		}
		if !bytes.Equal(planBytes(t, r.Plan), want) || pst != st {
			t.Fatalf("hybrid at parallelism %d: plan bytes equal %v, stats %+v, at 1 %+v",
				par, bytes.Equal(planBytes(t, r.Plan), want), pst, st)
		}
	}
	for l := range tp.Levels {
		fast := faster(tp, l)
		r, err := hybrid.PartitionCoarse(c, k, hybrid.Options{Topology: &fast, Parallelism: 1})
		if err != nil {
			t.Fatalf("hybrid with level %d twice as fast: %v", l, err)
		}
		if r.Cost > got.Cost {
			t.Fatalf("hybrid with level %d twice as fast: cost %v, up from %v", l, r.Cost, got.Cost)
		}
	}
}

// comparePipeline holds one pipeline search's outcome to its reference (nil:
// the search must fail): level, cost bits, stage groups, each stage's plan
// against the direct search of its groups, hand-offs, and each stage plan
// re-priced on its extracted graph.
func comparePipeline(t *testing.T, what string, c *coarsen.Coarse, got *hybrid.Result, err error, want *pipelineRef, xb []float64) {
	t.Helper()
	if (err == nil) != (want != nil) {
		t.Fatalf("%s: error %v, reference %+v", what, err, want)
	}
	if err != nil {
		return
	}
	if got.Level != want.level || math.Float64bits(got.Cost) != math.Float64bits(want.cost) || len(got.Stages) != len(want.plans) {
		t.Fatalf("%s: level %d cost %v in %d stages; reference: level %d cost %v boundaries %v",
			what, got.Level, got.Cost, len(got.Stages), want.level, want.cost, want.bounds)
	}
	for i, stg := range got.Stages {
		lo, hi := want.bounds[i], want.bounds[i+1]
		if stg.Groups != [2]int{lo, hi} {
			t.Fatalf("%s: stage %d holds groups %v, reference [%d,%d)", what, i, stg.Groups, lo, hi)
		}
		if diff := hybrid.StepsDiff(stg.Plan, want.plans[i]); diff != "" {
			t.Fatalf("%s: stage %d and the direct search of groups [%d,%d) differ: %s", what, i, lo, hi, diff)
		}
		seg, err := c.Segment(lo, hi, &coarsen.SegmentScratch{})
		if err != nil {
			t.Fatal(err)
		}
		checkChain(t, stg.Plan, walkChains(t, seg, stepFactors(stg.Plan), nil).chains, fmt.Sprintf("%s, stage %d", what, i))
		if hi < len(c.Groups) && (stg.HandoffBytes != xb[hi] || stg.HandoffBandwidth != want.bw[i+1]) {
			t.Fatalf("%s: stage %d hands off %v B at %v B/s, reference %v at %v",
				what, i, stg.HandoffBytes, stg.HandoffBandwidth, xb[hi], want.bw[i+1])
		}
		sub, p := extractStage(t, c, stg)
		reprice(t, sub.G, p, fmt.Sprintf("%s, stage %d", what, i))
	}
}

func countSpans(s *obs.Span, name string) int64 {
	n := int64(0)
	if s.Name() == name {
		n++
	}
	for _, ch := range s.Children() {
		n += countSpans(ch, name)
	}
	return n
}

// pipelineRef is the reference optimum at one stage level: cost +Inf when
// no boundary set is feasible.
type pipelineRef struct {
	level  int
	cost   float64
	bounds []int        // 0, the boundaries, L
	plans  []*plan.Plan // per stage, the direct search of its groups
	bw     []float64    // bw[j]: the link stage j-1 hands off to stage j across
}

// pipelineReference is the pipeline search restated without a memo or a
// bound, at every level whose stages fit in the groups: every boundary set in
// lexicographic order, each segment searched directly on its view of c at
// first use, the set priced left to right as the search prices it, the first
// cheapest kept. intervals counts the segments a search filling every one of
// those levels' segments would fill.
func pipelineReference(t *testing.T, c *coarsen.Coarse, tp topo.Topology, xb []float64) (refs []pipelineRef, intervals int64) {
	t.Helper()
	L := len(c.Groups)
	var sc coarsen.SegmentScratch
	for level := 1; level < len(tp.Levels); level++ {
		kSub, S := int64(1), 1
		for li, lv := range tp.Levels {
			if li < level {
				kSub *= lv.GroupSize
			} else {
				S *= int(lv.GroupSize)
			}
		}
		if S > L {
			continue
		}
		intervals += int64(L * (L + 1) / 2)
		hw := tp.HW
		hw.NumGPUs = int(kSub)
		sub := topo.Topology{Name: tp.Name + "/stage", HW: hw, Levels: append([]topo.Level(nil), tp.Levels[:level]...)}
		ref := pipelineRef{level: level, cost: math.Inf(1), bw: make([]float64, S)}
		for j := 1; j < S; j++ {
			ref.bw[j] = tp.LinkBandwidth(j*int(kSub)-1, j*int(kSub))
		}
		type seg struct {
			p    *plan.Plan
			cost float64
		}
		segs := map[[2]int]*seg{}
		solve := func(lo, hi int) *seg {
			if s, ok := segs[[2]int{lo, hi}]; ok {
				return s
			}
			co, err := c.Segment(lo, hi, &sc)
			if err != nil {
				t.Fatalf("segment [%d,%d): %v", lo, hi, err)
			}
			var s *seg
			if p, err := recursive.Search(co, kSub, recursive.Options{Topology: &sub, Parallelism: 1}); err == nil {
				s = &seg{p, recursive.CommTime(p, sub)}
			}
			segs[[2]int{lo, hi}] = s
			return s
		}
		set := make([]int, S-1)
		var walk func(j, prev int)
		walk = func(j, prev int) {
			if j < S {
				for b := prev + 1; b <= L-(S-j); b++ {
					set[j-1] = b
					walk(j+1, b)
				}
				return
			}
			g, at := 0.0, 0
			for jj, b := range set {
				s := solve(at, b)
				if s == nil {
					return
				}
				g = g + s.cost + xb[b]/ref.bw[jj+1]
				at = b
			}
			last := solve(at, L)
			if last == nil {
				return
			}
			if cost := g + last.cost; cost < ref.cost {
				ref.cost, ref.bounds = cost, append(append([]int{0}, set...), L)
			}
		}
		walk(1, 0)
		for i := 0; i+1 < len(ref.bounds); i++ {
			ref.plans = append(ref.plans, segs[[2]int{ref.bounds[i], ref.bounds[i+1]}].p)
		}
		refs = append(refs, ref)
	}
	return refs, intervals
}

// handoffs is the traffic crossing each group boundary b (between groups b-1
// and b): every produced and consumed tensor's bytes cross each boundary
// between the first and last group touching it.
func handoffs(c *coarsen.Coarse) []float64 {
	groupOf := make([]int, len(c.G.Nodes))
	for gi, grp := range c.Groups {
		for _, sl := range grp.Slots {
			for _, op := range sl.Ops {
				groupOf[op.ID] = gi
			}
		}
	}
	xb := make([]float64, len(c.Groups))
	for _, ten := range c.G.Tensors {
		if ten.Producer == nil || len(ten.Consumers) == 0 {
			continue
		}
		lo, hi := groupOf[ten.Producer.ID], groupOf[ten.Producer.ID]
		for _, n := range ten.Consumers {
			lo, hi = min(lo, groupOf[n.ID]), max(hi, groupOf[n.ID])
		}
		for b := lo + 1; b <= hi; b++ {
			xb[b] += float64(ten.Bytes())
		}
	}
	return xb
}

func product(factors []int64) int64 {
	k := int64(1)
	for _, f := range factors {
		k *= f
	}
	return k
}
