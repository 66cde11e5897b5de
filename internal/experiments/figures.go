package experiments

import (
	"fmt"
	"strings"

	"tofu/internal/baselines"
	"tofu/internal/dp"
	"tofu/internal/graphgen"
	"tofu/internal/memplan"
	"tofu/internal/models"
	"tofu/internal/sim"
	"tofu/internal/topo"
)

// Figure8 reproduces the WResNet throughput comparison: Ideal, SmallBatch,
// Swap and Tofu on WResNet-{50,101,152} widened {4,6,8,10}, normalized to
// the ideal baseline (global batch 128).
func Figure8(o Opts, tp topo.Topology) (string, error) {
	depths := []int{50, 101, 152}
	widths := []int64{4, 6, 8, 10}
	if o.Quick {
		depths, widths = []int{50}, []int64{4}
	}
	systems := []baselines.System{baselines.Ideal, baselines.SmallBatch, baselines.Swap, baselines.Tofu}
	var cfgs []models.Config
	for _, d := range depths {
		for _, w := range widths {
			cfgs = append(cfgs, models.Config{Family: "wresnet", Depth: d, Width: w, Batch: 128})
		}
	}
	outs, err := evaluateGrid(o, cfgs, systems, tp)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Figure 8: WResNet throughput normalized to Ideal (absolute samples/sec in label)\n")
	for ci, cfg := range cfgs {
		if ci%len(widths) == 0 {
			fmt.Fprintf(&sb, "\n-- WResNet-%d --\n", cfg.Depth)
		}
		ideal := outs[ci][0]
		fmt.Fprintf(&sb, "W=%d (ideal %.1f samples/s):\n", cfg.Width, ideal.Throughput)
		for si, sys := range systems {
			out := outs[ci][si]
			oom := out.Throughput == 0
			fmt.Fprintf(&sb, "  %-12s %s\n", sys,
				bar(out.Throughput/ideal.Throughput,
					fmt.Sprintf("%.1f (batch %d)", out.Throughput, out.Batch), oom))
		}
	}
	return sb.String(), nil
}

// evaluateGrid fans the independent (model × system) cells across the
// worker pool, collecting all errors; outs[cfg][sys] mirrors the serial
// sweep exactly. All partition searches share one pricing cache and run
// serial internally — the parallelism budget is spent at the cell level.
func evaluateGrid(o Opts, cfgs []models.Config, systems []baselines.System,
	tp topo.Topology) ([][]baselines.Outcome, error) {

	outs := make([][]baselines.Outcome, len(cfgs))
	for i := range outs {
		outs[i] = make([]baselines.Outcome, len(systems))
	}
	so := baselines.SearchOptions{Parallelism: 1, Cache: dp.NewPriceCache()}
	err := fanOut(o.Parallelism, len(cfgs)*len(systems), func(i int) error {
		ci, si := i/len(systems), i%len(systems)
		out, err := baselines.EvaluateWith(cfgs[ci], systems[si], tp, so)
		if err != nil {
			return fmt.Errorf("%v/%s: %w", cfgs[ci], systems[si], err)
		}
		outs[ci][si] = out
		return nil
	})
	return outs, err
}

// Figure9 reproduces the RNN throughput comparison: Ideal, SmallBatch,
// Swap, Op-Placement and Tofu on RNN-{6,8,10} with hidden {4K,6K,8K}
// (global batch 512).
func Figure9(o Opts, tp topo.Topology) (string, error) {
	layers := []int{6, 8, 10}
	hiddens := []int64{4096, 6144, 8192}
	if o.Quick {
		layers, hiddens = []int{6}, []int64{4096}
	}
	systems := []baselines.System{
		baselines.Ideal, baselines.SmallBatch, baselines.Swap,
		baselines.OpPlacement, baselines.Tofu,
	}
	var cfgs []models.Config
	for _, l := range layers {
		for _, h := range hiddens {
			cfgs = append(cfgs, models.Config{Family: "rnn", Depth: l, Width: h, Batch: 512})
		}
	}
	outs, err := evaluateGrid(o, cfgs, systems, tp)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Figure 9: RNN throughput normalized to Ideal (absolute samples/sec in label)\n")
	for ci, cfg := range cfgs {
		if ci%len(hiddens) == 0 {
			fmt.Fprintf(&sb, "\n-- %d-layer RNN --\n", cfg.Depth)
		}
		ideal := outs[ci][0]
		fmt.Fprintf(&sb, "H=%dK (ideal %.1f samples/s):\n", cfg.Width/1024, ideal.Throughput)
		for si, sys := range systems {
			out := outs[ci][si]
			oom := out.Throughput == 0
			fmt.Fprintf(&sb, "  %-12s %s\n", sys,
				bar(out.Throughput/ideal.Throughput,
					fmt.Sprintf("%.1f (batch %d)", out.Throughput, out.Batch), oom))
		}
	}
	return sb.String(), nil
}

// Figure10 compares partition algorithms (AllRow-Greedy, Spartan,
// EqualChop, ICML18, Tofu) at a fixed batch on 8 GPUs, reporting per-batch
// execution time with the communication overhead share — the striped bars
// of the paper's figure. Algorithms whose plan does not fit report OOM.
func Figure10(o Opts, tp topo.Topology) (string, error) {
	workloads := []models.Config{
		{Family: "rnn", Depth: 4, Width: 8192, Batch: 512},
		{Family: "wresnet", Depth: 152, Width: 10, Batch: 8},
	}
	if o.Quick {
		workloads = []models.Config{{Family: "rnn", Depth: 2, Width: 2048, Batch: 256}}
	}
	algos := []baselines.System{
		baselines.AllRowGreedy, baselines.Spartan, baselines.EqualChop,
		baselines.ICML18, baselines.Tofu,
	}
	// Every (workload × algorithm) cell is independent: fan them out,
	// rendering each cell into its slot. One pricing cache serves every
	// algorithm variant (the searches differ only in filters/factors, which
	// restrict the same cached strategy enumerations).
	ms := make([]*models.Model, len(workloads))
	for i, cfg := range workloads {
		m, err := models.Build(cfg)
		if err != nil {
			return "", err
		}
		ms[i] = m
	}
	so := baselines.SearchOptions{Parallelism: 1, Cache: dp.NewPriceCache()}
	lines := make([]string, len(workloads)*len(algos))
	err := fanOut(o.Parallelism, len(lines), func(i int) error {
		wi, ai := i/len(algos), i%len(algos)
		cfg, m, algo := workloads[wi], ms[wi], algos[ai]
		p, err := baselines.PlanForOn(m, algo, tp, so)
		if err != nil {
			lines[i] = fmt.Sprintf("  %-14s infeasible (%v)\n", algo, err)
			return nil
		}
		sh, err := graphgen.Generate(m.G, p, graphgen.DefaultOptions())
		if err != nil {
			return err
		}
		mem := memplan.Plan(sh, memplan.DefaultOptions())
		full := sim.Run(sh, tp, cfg.Batch, mem, sim.RunOptions{})
		pure := sim.Run(sh, tp, cfg.Batch, mem, sim.RunOptions{DisableComm: true})
		if full.OOM {
			lines[i] = fmt.Sprintf("  %-14s OOM (needs %s GB/GPU)\n", algo, gb(float64(full.Mem.PeakBytes)))
			return nil
		}
		overhead := 0.0
		if full.IterSeconds > 0 {
			overhead = (full.IterSeconds - pure.IterSeconds) / full.IterSeconds * 100
		}
		lines[i] = fmt.Sprintf("  %-14s %6.2fs/batch  compute %5.2fs  comm-overhead %4.1f%%  plan-comm %s GB\n",
			algo, full.IterSeconds, pure.IterSeconds, overhead, gb(p.TotalComm()))
		return nil
	})
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Figure 10: partition algorithm comparison (time per batch, 8 GPUs)\n")
	for wi, cfg := range workloads {
		fmt.Fprintf(&sb, "\n-- %s --\n", cfg)
		for ai := range algos {
			sb.WriteString(lines[wi*len(algos)+ai])
		}
	}
	return sb.String(), nil
}

// Figure11 renders the partition plan Tofu finds for WResNet-152-10 on 8
// GPUs: per convolution, how the weight and activation tensors are tiled
// (batch vs channel cuts), with repeated blocks compressed the way the
// paper's figure draws "xN".
func Figure11(o Opts) (string, error) {
	cfg := models.Config{Family: "wresnet", Depth: 152, Width: 10, Batch: 8}
	if o.Quick {
		cfg = models.Config{Family: "wresnet", Depth: 50, Width: 2, Batch: 8}
	}
	m, err := models.Build(cfg)
	if err != nil {
		return "", err
	}
	p, err := baselines.PlanFor(m, baselines.Tofu, 8)
	if err != nil {
		return "", err
	}

	dimNames := map[int]string{0: "n", 1: "c", 2: "h", 3: "w"}
	weightDims := map[int]string{0: "co", 1: "ci", 2: "kh", 3: "kw"}
	var lines []string
	for _, n := range m.G.Nodes {
		if n.Op != "conv2d" {
			continue
		}
		wTensor := n.Inputs[1]
		aTensor := n.Inputs[0]
		line := fmt.Sprintf("%-12s W[%s]  A[%s]",
			wTensor.Name,
			tileString(p.ShardDims(wTensor.ID, 4), weightDims),
			tileString(p.ShardDims(aTensor.ID, 4), dimNames))
		lines = append(lines, line)
	}

	// Compress repeated consecutive layer patterns ("xN" in the paper).
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 11: Tofu's partition for %s on 8 GPUs\n", m.Name)
	sb.WriteString("(each tensor shows ways-split per dimension; product is always 8)\n\n")
	i := 0
	for i < len(lines) {
		pat := strip(lines[i])
		j := i + 1
		for j < len(lines) && strip(lines[j]) == pat {
			j++
		}
		if j-i > 1 {
			fmt.Fprintf(&sb, "%s   x%d\n", lines[i], j-i)
		} else {
			sb.WriteString(lines[i] + "\n")
		}
		i = j
	}
	return sb.String(), nil
}

// strip drops the layer-name column so repeats compare by tiling only.
func strip(line string) string {
	if idx := strings.Index(line, " "); idx > 0 {
		return line[idx:]
	}
	return line
}

func tileString(ways []int64, names map[int]string) string {
	var parts []string
	for d, w := range ways {
		if w > 1 {
			parts = append(parts, fmt.Sprintf("%s/%d", names[d], w))
		}
	}
	if len(parts) == 0 {
		return "replicated"
	}
	return strings.Join(parts, ",")
}
