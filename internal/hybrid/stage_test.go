package hybrid_test

import (
	"fmt"
	"math"
	"testing"

	"tofu/internal/coarsen"
	"tofu/internal/graph"
	"tofu/internal/graphgen"
	"tofu/internal/hybrid"
	"tofu/internal/memplan"
	"tofu/internal/models"
	"tofu/internal/partition"
	"tofu/internal/plan"
	"tofu/internal/recursive"
	"tofu/internal/shape"
	"tofu/internal/sim"
	"tofu/internal/topo"
)

// extractStage is the reference form of a stage: its nodes — the operators
// of the root coarsening's groups stg.Groups — copied out of the whole graph
// (graph.Subgraph), and its plan's dense tables and final shapes gathered
// into the extraction's IDs through the extraction's ID maps; everything
// else, VarCut included, as the stage plan holds it.
func extractStage(t testing.TB, c *coarsen.Coarse, stg hybrid.Stage) (*graph.Subgraphed, *plan.Plan) {
	t.Helper()
	in := make([]bool, len(c.G.Nodes))
	for _, grp := range c.Groups[stg.Groups[0]:stg.Groups[1]] {
		for _, sl := range grp.Slots {
			for _, n := range sl.Ops {
				in[n.ID] = true
			}
		}
	}
	sub, err := c.G.Subgraph(func(n *graph.Node) bool { return in[n.ID] })
	if err != nil {
		t.Fatalf("extracting groups %v: %v", stg.Groups, err)
	}
	p := *stg.Plan
	p.Steps = make([]*plan.Step, len(stg.Plan.Steps))
	for i, st := range stg.Plan.Steps {
		local := *st
		local.TensorCut = make([]int, len(sub.TensorID))
		for tid, id := range sub.TensorID {
			local.TensorCut[tid] = st.TensorCut[id]
		}
		local.OpStrategy = make([]partition.Strategy, len(sub.NodeID))
		local.OpComm = make([]partition.Parts, len(sub.NodeID))
		for nid, id := range sub.NodeID {
			local.OpStrategy[nid], local.OpComm[nid] = st.OpStrategy[id], st.OpComm[id]
		}
		p.Steps[i] = &local
	}
	p.FinalShapes = make(map[int]shape.Shape, len(sub.TensorID))
	for tid, id := range sub.TensorID {
		if fs, ok := stg.Plan.FinalShapes[id]; ok {
			p.FinalShapes[tid] = fs
		}
	}
	return sub, &p
}

// stageGenOptions are the graph-generation settings a stage's execution is
// checked under besides the one it was assembled with (DefaultOptions).
func stageGenOptions() []graphgen.Options {
	noMultiFetch, noSpread := graphgen.DefaultOptions(), graphgen.DefaultOptions()
	noMultiFetch.MultiFetch = false
	noSpread.SpreadReduction = false
	return []graphgen.Options{{}, noMultiFetch, noSpread}
}

// stageMemOptions are the memory planner settings a stage is swept under.
var stageMemOptions = []memplan.Options{
	memplan.DefaultOptions(),
	{Reuse: false, InPlaceAggregation: true},
	{Reuse: true, InPlaceAggregation: false},
	{Reuse: true, InPlaceAggregation: true, WorkspacePerOp: 1 << 20},
}

// checkStageExecution holds one stage's execution over the whole graph to
// its extraction's: graphgen over the extracted graph and gathered plan must
// give the same op shards (operator for operator through the node map,
// every float bit for bit) and tensor shards, memplan.AliasRoots the same
// buffers, and memplan.Plan and sim.Run the same report and result, field
// for field and bit for bit. The assembled execution (stg.Sharded) is
// checked as it is, other generation settings through graphgen.GenerateStage
// over the stage's nodes.
func checkStageExecution(t *testing.T, c *coarsen.Coarse, stg hybrid.Stage, batch int64, what string) {
	t.Helper()
	sub, p := extractStage(t, c, stg)
	kept := make([]bool, len(stg.G.Nodes))
	for _, id := range sub.NodeID {
		kept[id] = true
	}
	for gi, gen := range append([]graphgen.Options{stg.Sharded.Opts}, stageGenOptions()...) {
		got := stg.Sharded
		if gi > 0 {
			var err error
			got, err = graphgen.GenerateStage(stg.G, stg.Plan, gen, func(n *graph.Node) bool { return kept[n.ID] })
			if err != nil {
				t.Fatalf("%s gen %+v: %v", what, gen, err)
			}
		}
		want, err := graphgen.Generate(sub.G, p, gen)
		if err != nil {
			t.Fatalf("%s gen %+v: generating the extraction: %v", what, gen, err)
		}
		if d := shardedDiff(got, want, sub); d != "" {
			t.Fatalf("%s gen %+v: the execution differs from the extraction's: %s", what, gen, d)
		}
		for _, agg := range []bool{true, false} {
			roots, ref := memplan.AliasRoots(got, agg), memplan.AliasRoots(want, agg)
			for tid, id := range sub.TensorID {
				if roots[id] != sub.TensorID[ref[tid]] {
					t.Fatalf("%s gen %+v: tensor %d aliases %d (in-place aggregation %v), in the extraction %d",
						what, gen, id, roots[id], agg, sub.TensorID[ref[tid]])
				}
			}
		}
		for _, mo := range stageMemOptions {
			if g, w := memplan.Plan(got, mo), memplan.Plan(want, mo); g != w {
				t.Fatalf("%s gen %+v mem %+v: report %+v, extraction's %+v", what, gen, mo, g, w)
			}
			g, w := sim.Run(got, stg.Topo, batch, mo, sim.RunOptions{}), sim.Run(want, stg.Topo, batch, mo, sim.RunOptions{})
			if d := simDiff(g, w); d != "" {
				t.Fatalf("%s gen %+v mem %+v: sim.Run differs from the extraction's: %s", what, gen, mo, d)
			}
		}
	}
}

// shardedDiff names the first difference between an execution over the whole
// graph and one over an extraction of it (sub), or returns "".
func shardedDiff(got, want *graphgen.Sharded, sub *graph.Subgraphed) string {
	if len(got.Ops) != len(want.Ops) {
		return fmt.Sprintf("%d ops, extraction %d", len(got.Ops), len(want.Ops))
	}
	bits := math.Float64bits
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if bits(a[i]) != bits(b[i]) {
				return false
			}
		}
		return true
	}
	for i := range got.Ops {
		g, w := &got.Ops[i], &want.Ops[i]
		switch {
		case g.Node.ID != sub.NodeID[w.Node.ID]:
			return fmt.Sprintf("op %d runs node %d, extraction node %d", i, g.Node.ID, sub.NodeID[w.Node.ID])
		case !g.OutShard.Equal(w.OutShard), bits(g.KernelRows) != bits(w.KernelRows),
			bits(g.FLOPs) != bits(w.FLOPs), bits(g.MemBytes) != bits(w.MemBytes),
			bits(g.FetchBytes) != bits(w.FetchBytes), bits(g.OutCommBytes) != bits(w.OutCommBytes),
			!same(g.FetchByLevel, w.FetchByLevel), !same(g.OutByLevel, w.OutByLevel):
			return fmt.Sprintf("op %d (%v): %+v, extraction %+v", i, g.Node, *g, *w)
		}
	}
	for tid, id := range sub.TensorID {
		if got.TensorShard[id] != want.TensorShard[tid] {
			return fmt.Sprintf("tensor %d shard %d B, extraction %d B", id, got.TensorShard[id], want.TensorShard[tid])
		}
	}
	if bits(got.TotalFetchBytes) != bits(want.TotalFetchBytes) || bits(got.TotalOutBytes) != bits(want.TotalOutBytes) {
		return fmt.Sprintf("totals %v/%v, extraction %v/%v", got.TotalFetchBytes, got.TotalOutBytes, want.TotalFetchBytes, want.TotalOutBytes)
	}
	return ""
}

// simDiff names the first field in which two simulated iterations differ,
// floats by their bits, or returns "".
func simDiff(a, b sim.Result) string {
	bits := math.Float64bits
	switch {
	case bits(a.IterSeconds) != bits(b.IterSeconds):
		return fmt.Sprintf("IterSeconds %v, %v", a.IterSeconds, b.IterSeconds)
	case bits(a.ComputeSeconds) != bits(b.ComputeSeconds):
		return fmt.Sprintf("ComputeSeconds %v, %v", a.ComputeSeconds, b.ComputeSeconds)
	case bits(a.CommSeconds) != bits(b.CommSeconds):
		return fmt.Sprintf("CommSeconds %v, %v", a.CommSeconds, b.CommSeconds)
	case bits(a.Throughput) != bits(b.Throughput):
		return fmt.Sprintf("Throughput %v, %v", a.Throughput, b.Throughput)
	case a.Mem != b.Mem || a.OOM != b.OOM:
		return fmt.Sprintf("memory %+v OOM %v, %+v OOM %v", a.Mem, a.OOM, b.Mem, b.OOM)
	}
	return ""
}

// stageEdgeGraphs are forward graphs whose stages meet at awkward edges (the
// coarsening's segment edge graphs):
//   - "fan-out": relu's output feeds tanh and, past tanh's group, a matmul,
//     so a boundary between the two leaves it read by two stages;
//   - "feed": tanh reads relu's output in a stage that leaves relu out but
//     starts with another element-wise operator;
//   - "late-link": a forward link (FwdOf) points at a later operator, which
//     groups the two, and a third layer reads the later one's output, so
//     the graph has a second group to pipeline.
func stageEdgeGraphs() []namedGraph {
	fan := graph.New()
	a := fan.Apply("relu", nil, fan.Input("x", shape.Of(8, 8)))
	fan.Apply("matmul", nil, fan.Apply("tanh", nil, a), fan.Weight("w1", shape.Of(8, 8)))
	fan.Apply("matmul", nil, a, fan.Weight("w2", shape.Of(8, 8)))

	feed := graph.New()
	p := feed.Apply("relu", nil, feed.Input("x", shape.Of(8, 8)))
	feed.Apply("matmul", nil, p, feed.Weight("w", shape.Of(8, 8)))
	feed.Apply("sigmoid", nil, feed.Input("x2", shape.Of(8, 8)))
	feed.Apply("tanh", nil, p)

	late := graph.New()
	x := late.Input("x", shape.Of(8, 8))
	first := late.Apply("matmul", nil, x, late.Weight("w1", shape.Of(8, 8)))
	second := late.Apply("matmul", nil, x, late.Weight("w2", shape.Of(8, 8)))
	first.Producer.FwdOf = second.Producer
	late.Apply("matmul", nil, second, late.Weight("w3", shape.Of(8, 8)))
	return []namedGraph{{"fan-out", fan}, {"feed", feed}, {"late-link", late}}
}

type namedGraph struct {
	name string
	g    *graph.Graph
}

// TestStageExecutionMatchesExtraction: every stage of the four cold-hybrid
// requests, and of the edge graphs on a 2×2 machine,
// executes over the whole graph exactly as its extraction does
// (checkStageExecution).
func TestStageExecutionMatchesExtraction(t *testing.T) {
	type stageCase struct {
		name  string
		g     *graph.Graph
		tp    topo.Topology
		level int
		batch int64
	}
	var cases []stageCase
	for _, c := range []struct {
		prof string
		cfg  models.Config
	}{ // bench/workloads/cold-hybrid.json
		{"cluster-2x4x2x12", models.Config{Family: "mlp", Depth: 4, Width: 384, Batch: 48}},
		{"cluster-4x2x8", models.Config{Family: "mlp", Depth: 8, Width: 256, Batch: 64}},
		{"cluster-4x2x8", models.Config{Family: "rnn", Depth: 2, Width: 1024, Batch: 64}},
		{"cluster-2x8", models.Config{Family: "transformer", Depth: 2, Width: 1024, Batch: 64}},
	} {
		tp, err := topo.Profile(c.prof)
		if err != nil {
			t.Fatal(err)
		}
		m, err := models.Build(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, stageCase{c.prof + " " + c.cfg.String(), m.G, tp, 0, c.cfg.Batch})
	}
	tp := topo.Topology{Name: "2x2", HW: topo.DefaultHW(), Levels: []topo.Level{
		{Name: "l0", GroupSize: 2, Bandwidth: 40e9}, {Name: "l1", GroupSize: 2, Bandwidth: 10e9}}}
	tp.HW.NumGPUs, tp.HW.P2PBandwidth = 4, 40e9
	for _, ng := range stageEdgeGraphs() {
		cases = append(cases, stageCase{ng.name, ng.g, tp, 1, 8})
	}
	stages := 0
	for _, c := range cases {
		co, err := recursive.Coarsen(c.g, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := hybrid.PartitionCoarse(co, int64(c.tp.NumGPUs()), hybrid.Options{Topology: &c.tp, Level: c.level, Parallelism: 1, Gen: graphgen.DefaultOptions()})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for si, stg := range res.Stages {
			checkStageExecution(t, co, stg, c.batch, fmt.Sprintf("%s stage %d", c.name, si))
			stages++
		}
	}
	t.Logf("%d stages checked", stages)
}
