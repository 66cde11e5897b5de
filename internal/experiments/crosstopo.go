package experiments

import (
	"fmt"
	"reflect"
	"strings"

	"tofu/internal/baselines"
	"tofu/internal/dp"
	"tofu/internal/graphgen"
	"tofu/internal/memplan"
	"tofu/internal/models"
	"tofu/internal/plan"
	"tofu/internal/sim"
	"tofu/internal/topo"
)

// CrossTopology is the scenario sweep the topology refactor unlocks (no
// paper counterpart — the paper's testbed was a single flat PCIe box): the
// same benchmark models on the flat p2.8xlarge, the NVLink DGX-1-style box
// and the 2x8-node Ethernet cluster, comparing the topology-aware search
// (Tofu), the single-chop EqualChop baseline, and the hierarchical-naive
// layout that a topology-blind runtime produces. On the flat profile Tofu
// and hier-naive coincide by construction; on the hierarchical profiles the
// aware search puts the communication-heavy steps on the fastest links.
// The caller's machine (the -hw flag) joins the sweep when it is not
// already one of the library profiles, so user-defined topologies compare
// against the built-ins in one artifact.
func CrossTopology(o Opts, tp topo.Topology) (string, error) {
	topos := []topo.Topology{
		topo.DefaultTopology(),
		topo.DGX1Topology(),
		topo.Cluster2x8Topology(),
	}
	known := false
	for _, t := range topos {
		if reflect.DeepEqual(t, tp) {
			known = true
			break
		}
	}
	if !known {
		topos = append(topos, tp)
	}
	// RNN-4-4K is the comfortable regime (every step repeats the same
	// cheapest cut, so layouts tie); the non-power-of-two hidden sizes
	// (3000 = 8x375, 1500 = 4x375) exhaust their hidden dimension
	// mid-recursion, forcing one step onto a costlier cut — the regime where
	// keeping the heavy step off the slow link pays.
	cfgs := []models.Config{
		{Family: "rnn", Depth: 4, Width: 4096, Batch: 256},
		{Family: "rnn", Depth: 4, Width: 3000, Batch: 128},
		{Family: "rnn", Depth: 2, Width: 1500, Batch: 64},
	}
	if o.Quick {
		cfgs = []models.Config{{Family: "rnn", Depth: 2, Width: 1500, Batch: 64}}
	}
	systems := []baselines.System{baselines.Tofu, baselines.EqualChop, baselines.HierNaive}

	// Build each model once; every (topology × system) cell over it shares
	// the graph (cells only read it).
	ms := make([]*models.Model, len(cfgs))
	for i, cfg := range cfgs {
		m, err := models.Build(cfg)
		if err != nil {
			return "", err
		}
		ms[i] = m
	}

	type cell struct {
		line string
	}
	cells := make([]cell, len(topos)*len(cfgs)*len(systems))
	// One pricing cache serves every cell: slot pricings are keyed by
	// (signature, K), so the K=8 and K=16 machines coexist.
	so := baselines.SearchOptions{Parallelism: 1, Cache: dp.NewPriceCache()}
	idx := func(ti, ci, si int) int { return (ti*len(cfgs)+ci)*len(systems) + si }
	err := fanOut(o.Parallelism, len(cells), func(i int) error {
		si := i % len(systems)
		ci := (i / len(systems)) % len(cfgs)
		ti := i / (len(systems) * len(cfgs))
		tp, cfg, sys, m := topos[ti], cfgs[ci], systems[si], ms[ci]
		p, err := baselines.PlanForOn(m, sys, tp, so)
		if err != nil {
			cells[i].line = fmt.Sprintf("  %-11s infeasible (%v)\n", sys, err)
			return nil
		}
		sh, err := graphgen.Generate(m.G, p, graphgen.DefaultOptions())
		if err != nil {
			return err
		}
		res := sim.Run(sh, tp, cfg.Batch, memplan.Plan(sh, memplan.DefaultOptions()), sim.RunOptions{})
		oom := ""
		if res.OOM {
			oom = "  OOM"
		}
		cells[i].line = fmt.Sprintf("  %-11s %8.3fs/iter  %8.1f samples/s  comm %5.2f GB  steps %s%s\n",
			sys, res.IterSeconds, res.Throughput, p.TotalComm()/(1<<30), stepLayout(p, tp), oom)
		return nil
	})
	if err != nil {
		return "", err
	}

	var sb strings.Builder
	sb.WriteString("Cross-topology sweep: Tofu (topology-aware) vs EqualChop vs hierarchical-naive\n")
	sb.WriteString("(steps column: ways@level for each recursive step, innermost level fastest)\n")
	for ti, tp := range topos {
		fmt.Fprintf(&sb, "\n== %s (%d GPUs: %s) ==\n", tp.Name, tp.NumGPUs(), levelString(tp))
		for ci, cfg := range cfgs {
			fmt.Fprintf(&sb, "-- %s --\n", cfg)
			for si := range systems {
				sb.WriteString(cells[idx(ti, ci, si)].line)
			}
		}
	}
	return sb.String(), nil
}

// stepLayout renders a plan's factor-to-level sequence ("2@pcie 2@nvlink
// 2@nvlink").
func stepLayout(p *plan.Plan, tp topo.Topology) string {
	if len(p.Steps) == 0 {
		return "none"
	}
	parts := make([]string, len(p.Steps))
	for i, s := range p.Steps {
		name := "p2p"
		if s.Level >= 0 && s.Level < len(tp.Levels) {
			name = tp.Levels[s.Level].Name
		}
		parts[i] = fmt.Sprintf("%d@%s", s.K, name)
	}
	return strings.Join(parts, " ")
}

func levelString(tp topo.Topology) string {
	parts := make([]string, len(tp.Levels))
	for i, l := range tp.Levels {
		parts[i] = fmt.Sprintf("%s x%d @%.1f GB/s", l.Name, l.GroupSize, l.Bandwidth/1e9)
	}
	return strings.Join(parts, " | ")
}
