package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"tofu/internal/dp"
	"tofu/internal/models"
	"tofu/internal/recursive"
	"tofu/internal/topo"
)

// Orderings is the ordering-scaling benchmark behind the branch-and-bound
// search (no paper counterpart — the paper's testbed had one interconnect
// level, so its search had exactly one ordering): for each hierarchical
// profile it runs the topology-aware search twice — the prefix-shared
// branch-and-bound tree and the flat one-full-DP-per-ordering enumeration —
// and reports the search-space size, how much of it the bounds pruned, the
// DP step executions both engines paid, and their wall times. The chosen
// plans are byte-identical by construction (the differential test in
// internal/recursive enforces it); only the effort differs. The caller's
// machine (-hw) joins the sweep when hierarchical and not already a library
// profile.
func Orderings(o Opts, tp topo.Topology) (string, error) {
	type row struct {
		topo topo.Topology
		cfg  models.Config
	}
	rows := []row{
		{topo.DGX1Topology(), models.Config{Family: "rnn", Depth: 2, Width: 1500, Batch: 64}},
		{topo.DGX2Topology(), models.Config{Family: "rnn", Depth: 2, Width: 3000, Batch: 64}},
		{topo.Cluster2x8Topology(), models.Config{Family: "rnn", Depth: 2, Width: 1500, Batch: 64}},
		{topo.Cluster4x2x8Topology(), models.Config{Family: "rnn", Depth: 2, Width: 8192, Batch: 128}},
		{topo.Cluster8x2x8Topology(), models.Config{Family: "rnn", Depth: 2, Width: 8192, Batch: 256}},
	}
	if o.Quick {
		rows = rows[:3]
	}
	if tp.Hierarchical() {
		known := false
		for _, r := range rows {
			if reflect.DeepEqual(r.topo, tp) {
				known = true
				break
			}
		}
		if !known {
			rows = append(rows, row{tp, models.Config{Family: "rnn", Depth: 2, Width: 8192, Batch: 128}})
		}
	}

	tab := &table{header: []string{
		"machine", "k", "model", "orderings", "costed", "pruned",
		"dp steps", "dp flat", "saving", "b&b", "flat enum", "speedup",
	}}
	for _, r := range rows {
		m, err := models.Build(r.cfg)
		if err != nil {
			return "", err
		}
		k := int64(r.topo.NumGPUs())
		mach := r.topo
		// Both engines get a fresh pricing cache: the comparison is
		// cold-search vs cold-search.
		var st recursive.SearchStats
		start := time.Now()
		_, err = recursive.Partition(m.G, k, recursive.Options{
			Topology: &mach, Parallelism: o.Parallelism,
			Cache: dp.NewPriceCache(), Stats: &st,
		})
		bbTime := time.Since(start)
		if err != nil {
			tab.add(mach.Name, fmt.Sprint(k), r.cfg.String(), "infeasible", "", "", "", "", "", "", "", "")
			continue
		}
		var stFlat recursive.SearchStats
		start = time.Now()
		_, err = recursive.Partition(m.G, k, recursive.Options{
			Topology: &mach, Parallelism: o.Parallelism, TopoExhaustive: true,
			Cache: dp.NewPriceCache(), Stats: &stFlat,
		})
		flatTime := time.Since(start)
		if err != nil {
			return "", fmt.Errorf("orderings: %s flat enumeration: %w", mach.Name, err)
		}
		tab.add(
			mach.Name,
			fmt.Sprint(k),
			r.cfg.String(),
			fmt.Sprint(st.Orderings),
			fmt.Sprint(st.Leaves),
			fmt.Sprint(st.Pruned),
			fmt.Sprint(st.DPSolves),
			fmt.Sprint(stFlat.DPSolves),
			fmt.Sprintf("%.1fx", float64(stFlat.DPSolves)/float64(max(st.DPSolves, 1))),
			fmt.Sprint(bbTime.Round(time.Millisecond)),
			fmt.Sprint(flatTime.Round(time.Millisecond)),
			fmt.Sprintf("%.1fx", float64(flatTime)/float64(max(bbTime, 1))),
		)
	}
	var sb strings.Builder
	sb.WriteString("Ordering-scaling: branch-and-bound prefix tree vs flat enumeration (plans byte-identical)\n")
	sb.WriteString(tab.String())
	return sb.String(), nil
}
