package coarsen

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"tofu/internal/graph"
	"tofu/internal/models"
	"tofu/internal/shape"
	"tofu/internal/tdl"
)

// workloadModels returns the models of the repository benchmark's cold
// workloads, in file order.
func workloadModels(t testing.TB, workloads ...string) []models.Config {
	t.Helper()
	var out []models.Config
	for _, w := range workloads {
		raw, err := os.ReadFile(filepath.Join("..", "..", "bench", "workloads", w+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var spec struct {
			Cases []struct{ Model models.Config }
		}
		if err := json.Unmarshal(raw, &spec); err != nil {
			t.Fatal(err)
		}
		for _, c := range spec.Cases {
			out = append(out, c.Model)
		}
	}
	return out
}

// referenceFacts is what the two passes describeNodes replaced compute.
func referenceFacts(g *graph.Graph) (nodeFacts, error) {
	f, err := referenceDescribeNodes(g)
	if err != nil {
		return nodeFacts{}, err
	}
	f.leader = referenceSlotLeaders(g, &f)
	return f, nil
}

// diffFacts names the first field in which two node facts differ ("" when
// none does). Descriptions compare by pointer.
func diffFacts(got, want nodeFacts) string {
	switch {
	case !slices.Equal(got.desc, want.desc):
		return "desc"
	case !slices.Equal(got.cell, want.cell):
		return "cell"
	case !slices.Equal(got.price, want.price):
		return "price"
	case !slices.Equal(got.leader, want.leader):
		return "leader"
	case !slices.Equal(got.cellSig, want.cellSig):
		return "cellSig"
	case got.nsig != want.nsig:
		return fmt.Sprintf("nsig %d vs %d", got.nsig, want.nsig)
	case !slices.Equal(got.prices, want.prices):
		return "prices"
	}
	return ""
}

// stragglerGraph unrolls two same-signature matmuls per timestep, where the
// third of four timesteps has other shapes: its instances stay unmerged.
func stragglerGraph() *graph.Graph {
	g := graph.New()
	w := g.Weight("w", shape.Of(8, 8))
	for ts, rows := range []int64{4, 4, 6, 4} {
		x := g.Input(fmt.Sprintf("x%d", ts), shape.Of(rows, 8))
		for i := 0; i < 2; i++ { // two same-signature ops per timestep: ordinals 0 and 1
			y := g.Apply("matmul", nil, x, w)
			y.Producer.UnrollTag, y.Producer.Timestep = "cell", ts
		}
	}
	return g
}

// factEdges are graphs that reach the corners of the node walk:
//
//   - "timesteps": sparse and very large timesteps (0, 7, 1<<20, and -3),
//     met out of order and revisited in both directions, so the timestep
//     index inserts at either end and in the middle, walking left and right;
//   - "attrs": two operators of one tag that differ only in attributes, in
//     one timestep and across timesteps;
//   - "spill": more than four attributes, which the attribute key spills
//     into a string, on unrolled and plain nodes;
//   - "nil-empty": nil and empty attributes, which are one signature;
//   - "two-tags": one timestep shared by two tags, and tags on nodes that
//     share an operator with untagged ones.
func factEdges() []namedGraph {
	ts := graph.New()
	w := ts.Weight("w", shape.Of(8, 8))
	for _, step := range []int{7, 0, 1 << 20, 7, -3, 1 << 20, 0, 7, 3, 0, 1, 3, 1 << 20, 5, 3, -3, 1} {
		y := ts.Apply("matmul", nil, ts.Input(fmt.Sprintf("x%d", len(ts.Nodes)), shape.Of(4, 8)), w)
		z := ts.Apply("tanh", nil, y)
		for _, t := range []*graph.Tensor{y, z} {
			t.Producer.UnrollTag, t.Producer.Timestep = "cell", step
		}
	}

	at := graph.New()
	wide := at.Input("x", shape.Of(4, 16))
	for step := range 3 {
		for _, off := range []int64{0, 8, 0} {
			y := at.Apply("slice_axis1", tdl.Attrs{"offset": off, "size": 8}, wide)
			y.Producer.UnrollTag, y.Producer.Timestep = "cell", step
		}
	}

	sp := graph.New()
	x := sp.Input("x", shape.Of(4, 8))
	for step := range 3 {
		for _, a := range []tdl.Attrs{
			{"a": 1, "b": 2, "c": 3, "d": 4, "e": 5},
			{"a": 1, "b": 2, "c": 3, "d": 4, "e": 6},
			{"a": 1, "b": 2, "c": 3, "d": 4, "e": 5},
		} {
			y := sp.Apply("relu", a, x)
			y.Producer.UnrollTag, y.Producer.Timestep = "cell", step
		}
	}
	sp.Apply("relu", tdl.Attrs{"a": 1, "b": 2, "c": 3, "d": 4, "e": 5}, x)

	ne := graph.New()
	nw := ne.Weight("w", shape.Of(8, 8))
	for step := range 3 {
		for _, a := range []tdl.Attrs{nil, {}, nil} {
			y := ne.Apply("matmul", a, ne.Input(fmt.Sprintf("x%d", len(ne.Nodes)), shape.Of(4, 8)), nw)
			y.Producer.UnrollTag, y.Producer.Timestep = "cell", step
		}
	}
	ne.Apply("matmul", tdl.Attrs{}, ne.Input("y", shape.Of(4, 8)), nw)

	tt := graph.New()
	tw := tt.Weight("w", shape.Of(8, 8))
	for _, step := range []int{3, 4, 3} {
		for _, tag := range []string{"a", "b", ""} {
			y := tt.Apply("matmul", nil, tt.Input(fmt.Sprintf("x%d", len(tt.Nodes)), shape.Of(4, 8)), tw)
			y.Producer.UnrollTag, y.Producer.Timestep = tag, step
		}
	}
	return []namedGraph{{"timesteps", ts}, {"attrs", at}, {"spill", sp}, {"nil-empty", ne}, {"two-tags", tt}}
}

// TestNodeFactsMatchReference holds the one-walk describeNodes to the two
// passes it replaced (coarsen_oracle_test.go), field for field and numbering
// included — descriptions by pointer, cells, pricing signatures and their
// interning order, slot leaders — on every model of the benchmark's cold
// workloads, the small segment models, the straggler graph and the edge
// graphs of factEdges, which Coarsen also coarsens as the reference
// coarsening does.
func TestNodeFactsMatchReference(t *testing.T) {
	var graphs []namedGraph
	for _, cfg := range append(workloadModels(t, "cold-flat", "cold-topo", "cold-hybrid"), segmentModels...) {
		m, err := models.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, namedGraph{cfg.String(), m.G})
	}
	edges := append(factEdges(), namedGraph{"straggler", stragglerGraph()})
	for _, ng := range append(graphs, edges...) {
		got, err := describeNodes(ng.g)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceFacts(ng.g)
		if err != nil {
			t.Fatal(err)
		}
		if diff := diffFacts(got, want); diff != "" {
			t.Errorf("%s: node facts differ from the reference in %s", ng.name, diff)
		}
	}
	for _, ng := range edges {
		got, err := Coarsen(ng.g)
		if err != nil {
			t.Fatal(err)
		}
		want, err := coarsenReference(ng.g)
		if err != nil {
			t.Fatal(err)
		}
		if diff := diffStructure(got, want); diff != "" {
			t.Errorf("%s: Coarsen differs from the reference: %s", ng.name, diff)
		}
	}
}

// BenchmarkDescribeNodes walks the nodes of each cold-flat model, in one pass
// and in the two reference passes. Run with -benchmem.
func BenchmarkDescribeNodes(b *testing.B) {
	for _, cfg := range workloadModels(b, "cold-flat") {
		m, err := models.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(cfg.String(), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := describeNodes(m.G); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(cfg.String()+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := referenceFacts(m.G); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCoarsen coarsens each cold-flat model. Run with -benchmem.
func BenchmarkCoarsen(b *testing.B) {
	for _, cfg := range workloadModels(b, "cold-flat") {
		m, err := models.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(cfg.String(), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Coarsen(m.G); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCoarsenAllocs is Coarsen's allocation ceiling on the cold-flat models,
// in objects and in KB, set from measured values with about 10 % headroom
// (the two WResNet KB ceilings with less: they were set before the walk's
// tables were sized up front, and a ceiling is only ever lowered).
func TestCoarsenAllocs(t *testing.T) {
	ceilings := map[string]struct{ objects, kb float64 }{ // measured: 252/311, 252/798, 86/1270, 69/100
		"wresnet-50-4@32":       {277, 340},
		"wresnet-152-10@8":      {277, 865},
		"rnn-10-8192@128":       {95, 1397},
		"transformer-4-1024@16": {76, 110},
	}
	for _, cfg := range workloadModels(t, "cold-flat") {
		m, err := models.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		coarsen := func() {
			if _, err := Coarsen(m.G); err != nil {
				t.Fatal(err)
			}
		}
		objects := testing.AllocsPerRun(5, coarsen)
		kb := float64(bytesPerRun(5, coarsen)) / 1024
		c, ok := ceilings[cfg.String()]
		if !ok || objects > c.objects || kb > c.kb {
			t.Errorf("%s: Coarsen allocates %v objects and %.1f KB, ceiling %v and %.1f KB", cfg, objects, kb, c.objects, c.kb)
		}
	}
}
