package graph_test

import (
	"strings"
	"testing"

	"tofu/internal/coarsen"
	"tofu/internal/graph"
	"tofu/internal/models"
)

// segmentModels are small instances of the four benchmark families — the
// graphs whose contiguous group intervals the pipeline search extracts.
var segmentModels = []models.Config{
	{Family: "mlp", Depth: 4, Width: 64, Batch: 16},
	{Family: "rnn", Depth: 2, Width: 64, Batch: 16},
	{Family: "transformer", Depth: 1, Width: 64, Batch: 8},
	{Family: "wresnet", Depth: 50, Width: 1, Batch: 4},
}

// buildGrouped builds a model and maps each node to its coarsened group.
func buildGrouped(tb testing.TB, cfg models.Config) (*graph.Graph, []int, int) {
	tb.Helper()
	m, err := models.Build(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := coarsen.Coarsen(m.G)
	if err != nil {
		tb.Fatal(err)
	}
	groupOf := make([]int, len(m.G.Nodes))
	for gi, grp := range c.Groups {
		for _, s := range grp.Slots {
			for _, n := range s.Ops {
				groupOf[n.ID] = gi
			}
		}
	}
	return m.G, groupOf, len(c.Groups)
}

// TestSubgraphMatchesReference holds the count-then-fill extraction to the
// append-based builder it replaced, field for field: tensor and node order
// and IDs, kinds (severed activations and gradients become Input), Inputs,
// Consumers order, Producer, FwdOf, GradOf/Grad, CtrlDeps, the ID maps, and
// the error on an already-extracted output.
func TestSubgraphMatchesReference(t *testing.T) {
	check := func(name string, g *graph.Graph, keep func(*graph.Node) bool) {
		t.Helper()
		want, werr := graph.SubgraphReference(g, keep)
		got, gerr := g.Subgraph(keep)
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("%s: error %v, reference %v", name, gerr, werr)
		}
		if werr != nil {
			return
		}
		if diff := graph.DiffSubgraphed(got, want); diff != "" {
			t.Fatalf("%s: differs from the reference: %s", name, diff)
		}
	}
	for _, cfg := range segmentModels {
		g, groupOf, L := buildGrouped(t, cfg)
		// The builders add no control dependencies; hang a few on the graph,
		// within and across groups, so that path is compared too.
		for i := 3; i < len(g.Nodes); i += 5 {
			g.Nodes[i].CtrlDeps = append(g.Nodes[i].CtrlDeps, g.Nodes[i-3], g.Nodes[i/2])
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		// Every interval of the small graphs; WResNet's 283 groups on a grid
		// that keeps the whole graph.
		stride := max(1, L/24)
		for lo := 0; lo < L; lo += stride {
			for hi := L; hi > lo; hi -= stride {
				check(cfg.Family, g, func(n *graph.Node) bool { return groupOf[n.ID] >= lo && groupOf[n.ID] < hi })
			}
		}
		// Keep-sets that are not group intervals: alternating groups, a
		// scattering of single nodes, everything, nothing.
		check(cfg.Family+" even groups", g, func(n *graph.Node) bool { return groupOf[n.ID]%2 == 0 })
		check(cfg.Family+" every third node", g, func(n *graph.Node) bool { return n.ID%3 == 0 })
		check(cfg.Family+" all but the first group", g, func(n *graph.Node) bool { return groupOf[n.ID] > 0 })
		check(cfg.Family+" all", g, func(*graph.Node) bool { return true })
		check(cfg.Family+" none", g, func(*graph.Node) bool { return false })
	}

	// A consumer ahead of its producer: both builders refuse the producer's
	// output, already extracted as the consumer's feed, with the same error.
	g, _, _ := buildGrouped(t, segmentModels[0])
	last := len(g.Nodes) - 1
	g.Nodes[0], g.Nodes[last] = g.Nodes[last], g.Nodes[0]
	_, err := g.Subgraph(func(*graph.Node) bool { return true })
	if err == nil || !strings.Contains(err.Error(), "produces already-extracted tensor") {
		t.Fatalf("out-of-order graph: error %v", err)
	}
	_, werr := graph.SubgraphReference(g, func(*graph.Node) bool { return true })
	if werr == nil || werr.Error() != err.Error() {
		t.Fatalf("out-of-order graph: error %v, reference %v", err, werr)
	}
}

// TestSubgraphAllocsConstant is the extraction's allocation ceiling: the
// number of objects Subgraph allocates does not depend on how much it keeps.
// The append-based builder allocated a few per kept node and tensor.
func TestSubgraphAllocsConstant(t *testing.T) {
	const ceiling = 11 // scratch, ID maps, Subgraphed, Graph, 2 pointer lists, 5 slabs; Validate allocates nothing
	for _, cfg := range segmentModels {
		g, groupOf, L := buildGrouped(t, cfg)
		for _, hi := range []int{1, L / 2, L} {
			keep := func(n *graph.Node) bool { return groupOf[n.ID] < hi }
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := g.Subgraph(keep); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > ceiling {
				t.Errorf("%s groups [0,%d) of %d: %v allocations, ceiling %d", cfg.Family, hi, L, allocs, ceiling)
			}
		}
	}
}

// BenchmarkSubgraph extracts the middle half of each family's groups — a
// typical pipeline segment. Run with -benchmem.
func BenchmarkSubgraph(b *testing.B) {
	for _, cfg := range []models.Config{
		{Family: "mlp", Depth: 8, Width: 256, Batch: 64},
		{Family: "rnn", Depth: 2, Width: 1024, Batch: 64},
		{Family: "transformer", Depth: 2, Width: 1024, Batch: 64},
	} {
		g, groupOf, L := buildGrouped(b, cfg)
		keep := func(n *graph.Node) bool { return groupOf[n.ID] >= L/4 && groupOf[n.ID] < 3*L/4 }
		b.Run(cfg.Family, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := g.Subgraph(keep); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
