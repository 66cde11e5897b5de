package experiments

import (
	"fmt"

	"tofu/internal/baselines"
	"tofu/internal/dp"
	"tofu/internal/graphgen"
	"tofu/internal/memplan"
	"tofu/internal/models"
	"tofu/internal/plan"
	"tofu/internal/sim"
	"tofu/internal/topo"
)

// Ablations quantifies the design choices DESIGN.md calls out: the Sec 6
// graph-generation optimizations (MultiFetch fusion, control-dependency
// injection for buffer reuse, spread-out reductions), in-place gradient
// aggregation, and the output-reduction strategies (Tofu vs ICML18).
func Ablations(o Opts, tp topo.Topology) (string, error) {
	cfg := models.Config{Family: "rnn", Depth: 4, Width: 4096, Batch: 256}
	if o.Quick {
		cfg = models.Config{Family: "rnn", Depth: 2, Width: 1024, Batch: 64}
	}
	m, err := models.Build(cfg)
	if err != nil {
		return "", err
	}
	// One cache serves the Tofu and ICML18 searches (same model, different
	// strategy filters over the same cached enumerations). The up-front
	// Tofu search runs before the cell fan-out, so it gets the whole
	// worker pool; the ICML18 search inside a cell stays serial.
	cache := dp.NewPriceCache()
	p, err := baselines.PlanForOn(m, baselines.Tofu, tp,
		baselines.SearchOptions{Parallelism: o.Parallelism, Cache: cache})
	if err != nil {
		return "", err
	}
	so := baselines.SearchOptions{Parallelism: 1, Cache: cache}

	noMultiFetch := graphgen.DefaultOptions()
	noMultiFetch.MultiFetch = false
	noSpread := graphgen.DefaultOptions()
	noSpread.SpreadReduction = false
	noReuse := memplan.DefaultOptions()
	noReuse.Reuse = false
	noInPlace := memplan.DefaultOptions()
	noInPlace.InPlaceAggregation = false

	type ablation struct {
		name  string
		plan  func() (*plan.Plan, error)
		gopts graphgen.Options
		mopts memplan.Options
	}
	tofuPlan := func() (*plan.Plan, error) { return p, nil }
	cases := []ablation{
		{"full Tofu (all optimizations)", tofuPlan, graphgen.DefaultOptions(), memplan.DefaultOptions()},
		{"- MultiFetch fusion", tofuPlan, noMultiFetch, memplan.DefaultOptions()},
		{"- spread-out reduction", tofuPlan, noSpread, memplan.DefaultOptions()},
		{"- control deps (no buffer reuse)", tofuPlan, graphgen.DefaultOptions(), noReuse},
		{"- in-place gradient aggregation", tofuPlan, graphgen.DefaultOptions(), noInPlace},
		// Output reduction ablation: the ICML18 plan on the same model.
		{"- output reduction (ICML18 plan)", func() (*plan.Plan, error) {
			return baselines.PlanForOn(m, baselines.ICML18, tp, so)
		}, graphgen.DefaultOptions(), memplan.DefaultOptions()},
	}

	// Each ablation cell regenerates and simulates independently; fan out.
	rows := make([][]string, len(cases))
	err = fanOut(o.Parallelism, len(cases), func(i int) error {
		ab := cases[i]
		ap, err := ab.plan()
		if err != nil {
			return err
		}
		sh, err := graphgen.Generate(m.G, ap, ab.gopts)
		if err != nil {
			return err
		}
		res := sim.Run(sh, tp, cfg.Batch, memplan.Plan(sh, ab.mopts), sim.RunOptions{})
		rows[i] = []string{ab.name, fmt.Sprintf("%.3f", res.IterSeconds),
			gb(float64(res.Mem.PeakBytes)), gb(float64(res.Mem.CommBufferPeak))}
		return nil
	})
	if err != nil {
		return "", err
	}

	t := &table{header: []string{"configuration", "iter(s)", "peak/GPU(GB)", "comm-buffers(GB)"}}
	for _, r := range rows {
		t.add(r...)
	}
	return fmt.Sprintf("Ablations on %s (Tofu plan, 8 GPUs)\n", cfg) + t.String(), nil
}
