package experiments

import (
	"fmt"
	"strings"
	"time"

	"tofu/internal/cancel"
	"tofu/internal/core"
	"tofu/internal/models"
	"tofu/internal/sim"
	"tofu/internal/topo"
)

// Hybrid is the joint-search benchmark (no paper counterpart — the paper's
// testbed fit every model under pure tensor splitting): on each hierarchical
// profile it partitions a deep model twice, once with the plain
// topology-aware tensor-parallel search and once with the joint
// hybrid-parallelism search (pipeline stages across the slowest profitable
// interconnect level, the partition DP inside each stage), and reports the
// simulated iteration times side by side with the joint search's effort —
// the segment-memo dp.Solve count against the flat one-DP-per-boundary-set
// enumeration it replaces. Plans are byte-identical to the exhaustive
// boundary oracle by construction (the differential test in internal/hybrid
// enforces it); only the effort differs.
func Hybrid(o Opts, tp topo.Topology) (string, error) {
	type row struct {
		topo topo.Topology
		cfg  models.Config
	}
	rows := []row{
		{topo.Cluster2x8Topology(), models.Config{Family: "mlp", Depth: 8, Width: 256, Batch: 64}},
		{topo.Cluster4x2x8Topology(), models.Config{Family: "mlp", Depth: 8, Width: 256, Batch: 64}},
		{topo.Cluster2x4x2x12Topology(), models.Config{Family: "mlp", Depth: 8, Width: 384, Batch: 48}},
	}
	if o.Quick {
		rows = []row{
			{topo.Cluster2x8Topology(), models.Config{Family: "mlp", Depth: 4, Width: 256, Batch: 64}},
			{topo.Cluster4x2x8Topology(), models.Config{Family: "mlp", Depth: 4, Width: 256, Batch: 64}},
		}
	}

	tab := &table{header: []string{
		"machine", "k", "model", "level", "stages",
		"dp steps", "dp flat", "saving", "pruned",
		"tensor s/iter", "hybrid s/iter", "tensor GB", "hybrid GB", "search",
	}}
	for _, r := range rows {
		m, err := models.Build(r.cfg)
		if err != nil {
			return "", err
		}
		mach := r.topo
		k := int64(mach.NumGPUs())

		base := core.DefaultOptions()
		base.Topology = &mach
		base.Search.Parallelism = o.Parallelism
		ts, err := core.Partition(m.G, k, base)
		if err != nil {
			return "", fmt.Errorf("hybrid: %s tensor-only: %w", mach.Name, err)
		}
		tensorRes := core.Simulate(ts, r.cfg.Batch, base, sim.RunOptions{})

		hopts := core.DefaultOptions()
		hopts.Topology = &mach
		hopts.Search.Parallelism = o.Parallelism
		hopts.Pipeline = &core.PipelineSpec{}
		tok, stopTok := cancel.WithTimeout(o.SearchDeadline)
		hopts.Cancel = tok
		start := time.Now()
		hs, err := core.Partition(m.G, k, hopts)
		searchTime := time.Since(start)
		stopTok()
		if err != nil {
			tab.add(mach.Name, fmt.Sprint(k), r.cfg.String(), "infeasible",
				"", "", "", "", "", fmt.Sprintf("%.3f", tensorRes.IterSeconds), "",
				gb(float64(ts.Memory.PeakBytes)), "", "")
			continue
		}
		hybridRes, err := core.SimulatePipeline(hs, r.cfg.Batch, hopts, sim.RunOptions{})
		if err != nil {
			return "", fmt.Errorf("hybrid: %s simulation: %w", mach.Name, err)
		}
		st := hs.Hybrid.Stats
		tab.add(
			mach.Name,
			fmt.Sprint(k),
			r.cfg.String(),
			fmt.Sprint(st.Level),
			fmt.Sprint(st.Stages),
			fmt.Sprint(st.DPSolves),
			fmt.Sprint(st.FlatDPSolves),
			fmt.Sprintf("%.1fx", float64(st.FlatDPSolves)/float64(max(st.DPSolves, 1))),
			fmt.Sprint(st.Pruned),
			fmt.Sprintf("%.3f", tensorRes.IterSeconds),
			fmt.Sprintf("%.3f", hybridRes.IterSeconds),
			gb(float64(ts.Memory.PeakBytes)),
			gb(float64(hs.Memory.PeakBytes)),
			searchCell(searchTime, hs.Degraded),
		)
	}
	var sb strings.Builder
	sb.WriteString("Hybrid parallelism: joint pipeline+partition search vs tensor-only (plans byte-identical to the exhaustive boundary oracle)\n")
	sb.WriteString(tab.String())
	return sb.String(), nil
}

// searchCell renders a search-time cell, starring deadline-degraded runs.
func searchCell(d time.Duration, degraded bool) string {
	cell := d.Round(time.Millisecond).String()
	if degraded {
		cell += "*"
	}
	return cell
}
