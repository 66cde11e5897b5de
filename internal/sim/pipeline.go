package sim

import (
	"fmt"
	"sort"

	"tofu/internal/graph"
	"tofu/internal/graphgen"
	"tofu/internal/topo"
)

// PipelineOptions configure the operator-placement baseline (Sec 7.1):
// whole layers are assigned to GPUs round-robin and timesteps pipeline
// across them, the Sutskever-style placement the paper compares against.
type PipelineOptions struct {
	// TFMode models TensorFlow's runtime for Table 3: no in-place gradient
	// aggregation (extra gradient buffers) plus a calibrated framework
	// overhead on kernel execution (the paper measures TF-OpPlacement at
	// roughly half of MXNet-OpPlacement and attributes it to gradient
	// aggregation; we model the memory effect structurally and fold the
	// rest into this multiplier).
	TFMode bool
	// FrameworkOverhead multiplies kernel times in TFMode (default 2.05,
	// calibrated against Table 3).
	FrameworkOverhead float64
}

// RunPipeline simulates layer-per-GPU pipelined execution of an unrolled
// RNN training graph. Cells are identified by their UnrollTag/Timestep;
// cell (t,l) depends on (t-1,l) and (t,l-1) forward, and the reverse plus
// its forward state backward. Activations between layers on different GPUs
// cross whatever interconnect level separates those GPUs — the PCIe link on
// the flat machine, the slower tier when round-robin placement straddles an
// island or node boundary.
func RunPipeline(g *graph.Graph, tp topo.Topology, batch int64, opts PipelineOptions) (Result, error) {
	hw := tp.HW
	var res Result
	sh, err := graphgen.Single(g)
	if err != nil {
		return res, err
	}

	// Bucket operator shards into per-(layer, timestep, phase) cells.
	layerOf := map[string]int{}
	var tags []string
	for _, os := range sh.Ops {
		if os.Node.UnrollTag == "" {
			continue
		}
		if _, ok := layerOf[os.Node.UnrollTag]; !ok {
			layerOf[os.Node.UnrollTag] = 0
			tags = append(tags, os.Node.UnrollTag)
		}
	}
	if len(tags) == 0 {
		return res, fmt.Errorf("sim: pipeline needs an unrolled model (no UnrollTags found)")
	}
	// Natural order: "lstm/l10" must follow "lstm/l9".
	sort.Slice(tags, func(i, j int) bool {
		if len(tags[i]) != len(tags[j]) {
			return len(tags[i]) < len(tags[j])
		}
		return tags[i] < tags[j]
	})
	for i, tag := range tags {
		layerOf[tag] = i
	}
	layers := len(tags)

	steps := 0
	type cellKey struct {
		l, t int
		bwd  bool
	}
	cellTime := map[cellKey]float64{}
	var headTime, tailTime float64 // untagged forward ops / weight updates
	overhead := 1.0
	if opts.TFMode {
		overhead = opts.FrameworkOverhead
		if overhead <= 0 {
			overhead = 2.05
		}
	}
	for _, os := range sh.Ops {
		n := os.Node
		kt := KernelTime(hw, os) * overhead
		if n.UnrollTag == "" {
			if n.Output.Kind == graph.Gradient || n.Op == "adam_update" || n.Op == "sgd_update" {
				tailTime += kt
			} else {
				headTime += kt
			}
			continue
		}
		if n.Timestep+1 > steps {
			steps = n.Timestep + 1
		}
		k := cellKey{l: layerOf[n.UnrollTag], t: n.Timestep, bwd: n.FwdOf != nil}
		cellTime[k] += kt
	}

	gpuOf := func(l int) int { return l % hw.NumGPUs }
	// Hidden-state bytes crossing between layers.
	hBytes := float64(batch) * 0 // resolved below from a representative tensor
	for _, t := range g.Tensors {
		if t.Kind == graph.Input && t.Shape.Rank() == 2 {
			hBytes = float64(t.Shape.Bytes(t.DType))
			break
		}
	}
	// Hand-off cost between two layers' GPUs, priced at the narrowest
	// interconnect level between them (on the flat machine: always the peer
	// link, exactly the old global xfer).
	xferBetween := func(la, lb int) float64 {
		return hBytes/tp.LinkBandwidth(gpuOf(la), gpuOf(lb)) + hw.PipelineSyncOverhead
	}

	gpuFree := make([]float64, hw.NumGPUs)
	finish := map[cellKey]float64{}
	run := func(k cellKey, extraBusy float64, deps ...float64) {
		start := gpuFree[gpuOf(k.l)]
		for _, d := range deps {
			if d > start {
				start = d
			}
		}
		end := start + cellTime[k] + extraBusy
		gpuFree[gpuOf(k.l)] = end
		finish[k] = end
		res.ComputeSeconds += cellTime[k]
	}
	dep := func(k cellKey, consumerLayer int, sameGPU bool) float64 {
		f, ok := finish[k]
		if !ok {
			return 0
		}
		if !sameGPU {
			xfer := xferBetween(k.l, consumerLayer)
			f += xfer
			res.CommSeconds += xfer
		}
		return f
	}
	// A cross-GPU hand-off also occupies the receiving GPU (driver sync +
	// copy launch), which is what keeps pipelined placement from perfectly
	// saturating the machine (Sec 7.2).
	recvCost := func(l int) float64 {
		if l <= 0 || gpuOf(l-1) == gpuOf(l) {
			return 0
		}
		return xferBetween(l-1, l)
	}

	// Forward wavefront in anti-diagonal order (t+l ascending): by the time
	// a cell is issued, both dependencies already ran, so a GPU holding
	// several layers interleaves ready cells instead of head-of-line
	// blocking — what a dataflow scheduler does.
	for s := 0; s <= steps+layers-2; s++ {
		for l := 0; l < layers; l++ {
			t := s - l
			if t < 0 || t >= steps {
				continue
			}
			run(cellKey{l: l, t: t}, recvCost(l),
				dep(cellKey{l: l, t: t - 1}, l, true),
				dep(cellKey{l: l - 1, t: t}, l, l > 0 && gpuOf(l-1) == gpuOf(l)))
		}
	}
	// Head (loss) on the last layer's GPU.
	lastGPU := gpuOf(layers - 1)
	gpuFree[lastGPU] += headTime
	res.ComputeSeconds += headTime
	headDone := gpuFree[lastGPU]

	// Backward wavefront, anti-diagonal from the top-right corner.
	for s := 0; s <= steps+layers-2; s++ {
		for l := layers - 1; l >= 0; l-- {
			t := steps - 1 - (s - (layers - 1 - l))
			if t < 0 || t >= steps {
				continue
			}
			deps := []float64{
				dep(cellKey{l: l, t: t + 1, bwd: true}, l, true),
				dep(cellKey{l: l + 1, t: t, bwd: true}, l, l+1 < layers && gpuOf(l+1) == gpuOf(l)),
			}
			if t == steps-1 && l == layers-1 {
				deps = append(deps, headDone)
			}
			extra := 0.0
			if l+1 < layers && gpuOf(l+1) != gpuOf(l) {
				extra = xferBetween(l+1, l)
			}
			run(cellKey{l: l, t: t, bwd: true}, extra, deps...)
		}
	}
	// Weight updates on each GPU.
	for i := range gpuFree {
		gpuFree[i] += tailTime / float64(hw.NumGPUs)
	}
	res.ComputeSeconds += tailTime

	for _, f := range gpuFree {
		if f > res.IterSeconds {
			res.IterSeconds = f
		}
	}

	// Memory: each GPU holds its layers' weights (x3 for gradient +
	// optimizer history; TF adds two extra aggregation buffers per weight)
	// plus every forward activation of its assigned cells (live until the
	// backward pass returns) plus its share of fed inputs.
	perGPU := make([]int64, hw.NumGPUs)
	gradFactor := int64(3)
	if opts.TFMode {
		gradFactor = 5
	}
	for _, t := range g.Tensors {
		l, ok := tensorLayer(t, layerOf)
		gpu := lastGPU
		if ok {
			gpu = gpuOf(l)
		}
		switch t.Kind {
		case graph.Weight:
			perGPU[gpu] += t.Bytes() * gradFactor
		case graph.Input:
			perGPU[gpu] += t.Bytes()
		case graph.Activation:
			if t.Producer != nil && t.Producer.UnrollTag != "" && t.Producer.FwdOf == nil {
				perGPU[gpu] += t.Bytes()
			}
		}
	}
	for _, b := range perGPU {
		if b > res.Mem.PeakBytes {
			res.Mem.PeakBytes = b
		}
	}
	res.Mem.PersistentBytes = res.Mem.PeakBytes
	res.OOM = !res.Mem.Fits(hw.GPUMemBytes)

	if res.IterSeconds > 0 {
		res.Throughput = float64(batch) / res.IterSeconds
	}
	return res, nil
}

// tensorLayer attributes a tensor to an unrolled layer via its producer or
// first tagged consumer.
func tensorLayer(t *graph.Tensor, layerOf map[string]int) (int, bool) {
	if t.Producer != nil && t.Producer.UnrollTag != "" {
		return layerOf[t.Producer.UnrollTag], true
	}
	for _, c := range t.Consumers {
		if c.UnrollTag != "" {
			return layerOf[c.UnrollTag], true
		}
	}
	return 0, false
}
