package experiments

import (
	"fmt"
	"time"

	"tofu/internal/baselines"
	"tofu/internal/cancel"
	"tofu/internal/coarsen"
	"tofu/internal/dp"
	"tofu/internal/models"
	"tofu/internal/recursive"
	"tofu/internal/shape"
	"tofu/internal/topo"
)

// Opts tune experiment scope.
type Opts struct {
	// Quick trims sweeps for unit tests; the full benches leave it false.
	Quick bool
	// FlatBudget caps the non-recursive DP measurement of Table 1 (the
	// paper's 8h/>24h row); the completion time is extrapolated from the
	// exact remaining combination count.
	FlatBudget time.Duration
	// Parallelism sizes the worker pools: the independent (model × system)
	// cells of each driver fan out across this many goroutines, and each
	// partition search uses it for its DP sweep (0 = GOMAXPROCS, 1 =
	// serial). Rendered artifacts are identical for every setting.
	Parallelism int
	// Models overrides Table 1's model set (tofu-search's -model-json
	// flag); nil keeps the paper's WResNet-152 / RNN-10 pair. Takes
	// precedence over Quick's trimmed pair.
	Models []models.Config
	// SearchDeadline bounds each recursive search's wall clock (0 = none).
	// A deadline-stopped search reports its incumbent; its timing cell is
	// suffixed "*" to mark a degraded, not proven-optimal, result.
	SearchDeadline time.Duration
}

// Table1 reproduces "Time to search for the best partition for 8 workers"
// (WResNet-152 and RNN-10): the original DP is inapplicable to non-linear
// fine-grained graphs, the coarsened-but-flat DP explodes, recursion
// finishes in seconds.
func Table1(o Opts, tp topo.Topology) (string, error) {
	t := &table{header: []string{"search algorithm", "WResNet-152", "RNN-10"}}
	cfgs := []models.Config{
		{Family: "wresnet", Depth: 152, Width: 10, Batch: 8},
		{Family: "rnn", Depth: 10, Width: 8192, Batch: 128},
	}
	if o.Quick {
		cfgs = []models.Config{
			{Family: "wresnet", Depth: 50, Width: 2, Batch: 8},
			{Family: "rnn", Depth: 2, Width: 1024, Batch: 64},
		}
		t.header = []string{"search algorithm", cfgs[0].String(), cfgs[1].String()}
	}
	if len(o.Models) > 0 {
		cfgs = o.Models
		t.header = []string{"search algorithm"}
		for _, c := range cfgs {
			t.header = append(t.header, c.String())
		}
	}

	// Cells stay serial here — Table 1 measures wall-clock search time, and
	// concurrent cells would contend for the very cores the parallel search
	// uses. The search itself still gets the worker pool.
	flatCells := make([]string, len(cfgs))
	recCells := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		m, err := models.Build(cfg)
		if err != nil {
			return "", err
		}
		// Recursion (the Tofu algorithm; topology-aware on hierarchical
		// machines, where the ordering search multiplies the DP runs).
		k := int64(tp.NumGPUs())
		start := time.Now()
		tok, stopTok := cancel.WithTimeout(o.SearchDeadline)
		p, err := recursive.Partition(m.G, k, recursive.Options{Parallelism: o.Parallelism, Topology: &tp, Cancel: tok})
		stopTok()
		if err != nil {
			return "", err
		}
		recCells[i] = time.Since(start).Round(time.Millisecond).String()
		if p.Degraded {
			recCells[i] += "*"
		}

		// Flat multi-dimensional DP under budget.
		c, err := coarsen.Coarsen(m.G)
		if err != nil {
			return "", err
		}
		shapes := map[int]shape.Shape{}
		for _, ten := range m.G.Tensors {
			shapes[ten.ID] = ten.Shape.Clone()
		}
		budget := o.FlatBudget
		if budget == 0 {
			budget = 20 * time.Second
		}
		rep, err := dp.SolveFlat(&dp.Problem{Coarse: c, K: k, Shapes: shapes, DType: shape.Float32},
			recursive.Factorize(k), budget)
		if err != nil {
			return "", err
		}
		if rep.Completed {
			flatCells[i] = rep.Elapsed.Round(time.Millisecond).String()
		} else {
			flatCells[i] = fmt.Sprintf("~%s (extrapolated, %.0f%% done)",
				rep.EstimatedTotal.Round(time.Minute),
				float64(rep.Evaluated)/rep.TotalConfigs*100)
		}
	}
	naCells := make([]string, len(cfgs))
	for i := range naCells {
		naCells[i] = "n/a (graph not linear)"
	}
	t.add(append([]string{"Original DP [ICML18]"}, naCells...)...)
	t.add(append([]string{"DP with coarsening"}, flatCells...)...)
	t.add(append([]string{"Using recursion (Tofu)"}, recCells...)...)
	return fmt.Sprintf("Table 1: partition search time, %d workers\n", tp.NumGPUs()) + t.String(), nil
}

// Table2 reproduces "Total weight tensor sizes (GB)" — weight + gradient +
// optimizer history (the 3W accounting of Sec 7.1) for every benchmark
// model.
func Table2(o Opts) (string, error) {
	var sb table
	sb.header = []string{"model", "L/W", "weights(GB)", "3W total(GB)", "paper(GB)"}
	paper := map[string]float64{
		"RNN-6-4K": 8.4, "RNN-8-4K": 11.4, "RNN-10-4K": 14.4,
		"RNN-6-6K": 18.6, "RNN-8-6K": 28.5, "RNN-10-6K": 32.1,
		"RNN-6-8K": 33.0, "RNN-8-8K": 45.3, "RNN-10-8K": 57.0,
		"WResNet-50-4": 4.2, "WResNet-50-6": 9.6, "WResNet-50-8": 17.1, "WResNet-50-10": 26.7,
		"WResNet-101-4": 7.8, "WResNet-101-6": 17.1, "WResNet-101-8": 30.6, "WResNet-101-10": 47.7,
		"WResNet-152-4": 10.5, "WResNet-152-6": 23.4, "WResNet-152-8": 41.7, "WResNet-152-10": 65.1,
	}
	rnnH := []int64{4096, 6144, 8192}
	rnnL := []int{6, 8, 10}
	wrnW := []int64{4, 6, 8, 10}
	wrnL := []int{50, 101, 152}
	if o.Quick {
		rnnH, rnnL = []int64{4096}, []int{6}
		wrnW, wrnL = []int64{4}, []int{50}
	}
	for _, l := range rnnL {
		for _, h := range rnnH {
			m, err := models.RNN(l, h, 4, 2)
			if err != nil {
				return "", err
			}
			addWeightRow(&sb, m, paper)
		}
	}
	for _, l := range wrnL {
		for _, w := range wrnW {
			m, err := models.WResNet(l, w, 4)
			if err != nil {
				return "", err
			}
			addWeightRow(&sb, m, paper)
		}
	}
	return "Table 2: total weight tensor sizes (weight + gradient + optimizer history)\n" + sb.String(), nil
}

func addWeightRow(t *table, m *models.Model, paper map[string]float64) {
	w := float64(m.WeightBytes())
	p := "-"
	if v, ok := paper[m.Name]; ok {
		p = fmt.Sprintf("%.1f", v)
	}
	t.add(m.Name, fmt.Sprintf("%d/%d", m.Cfg.Depth, m.Cfg.Width), gb(w), gb(3*w), p)
}

// Table3 reproduces the RNN framework comparison at hidden size 4096:
// Tofu vs MXNet operator placement vs TensorFlow operator placement.
func Table3(o Opts, tp topo.Topology) (string, error) {
	t := &table{header: []string{"system", "RNN-6", "RNN-8", "RNN-10"}}
	layers := []int{6, 8, 10}
	hidden := int64(4096)
	batch := int64(512)
	if o.Quick {
		layers = []int{2}
		hidden, batch = 1024, 128
		t.header = []string{"system", "RNN-2"}
	}
	systems := []baselines.System{baselines.Tofu, baselines.OpPlacement, baselines.TFOpPlacement}
	names := map[baselines.System]string{
		baselines.Tofu:          "Tofu",
		baselines.OpPlacement:   "MX-OpPlacement",
		baselines.TFOpPlacement: "TF-OpPlacement",
	}
	// The (system × model) cells are independent; fan them out and render
	// in order. Each cell's own search runs serial — the parallelism budget
	// is spent at the cell level — but all cells share one pricing cache.
	so := baselines.SearchOptions{Parallelism: 1, Cache: dp.NewPriceCache()}
	cells := make([]string, len(systems)*len(layers))
	err := fanOut(o.Parallelism, len(cells), func(i int) error {
		sys, l := systems[i/len(layers)], layers[i%len(layers)]
		out, err := baselines.EvaluateWith(models.Config{
			Family: "rnn", Depth: l, Width: hidden, Batch: batch,
		}, sys, tp, so)
		if err != nil {
			return err
		}
		if out.OOM && out.Throughput == 0 {
			cells[i] = "OOM"
		} else {
			cells[i] = fmt.Sprintf("%.0f", out.Throughput)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	for si, sys := range systems {
		t.add(append([]string{names[sys]}, cells[si*len(layers):(si+1)*len(layers)]...)...)
	}
	return "Table 3: RNN throughput (samples/sec), hidden size 4096\n" + t.String(), nil
}
