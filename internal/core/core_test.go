package core

import (
	"strings"
	"testing"

	"tofu/internal/cancel"
	"tofu/internal/graph"
	"tofu/internal/memplan"
	"tofu/internal/models"
	"tofu/internal/obs"
	"tofu/internal/partition"
	"tofu/internal/recursive"
	"tofu/internal/sim"
	"tofu/internal/topo"
)

func TestPartitionEndToEnd(t *testing.T) {
	m, err := models.RNN(2, 1024, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Partition(m.G, 8, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Plan.Steps) != 3 {
		t.Fatalf("steps = %d", len(s.Plan.Steps))
	}
	if s.SearchTime <= 0 {
		t.Fatal("no search time recorded")
	}
	if s.Groups <= 0 || s.Vars <= 0 || s.Frontier <= 0 {
		t.Fatalf("coarsening stats missing: %+v", s)
	}
	if s.Memory.PeakBytes <= 0 {
		t.Fatal("no memory report")
	}
	res := Simulate(s, m.Batch, DefaultOptions(), sim.RunOptions{})
	if res.Throughput <= 0 {
		t.Fatal("no throughput")
	}
}

func TestPartitionWithRestrictedSearch(t *testing.T) {
	m, err := models.MLP(2, 256, 32)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Search = recursive.Options{
		StrategyFilter: func(st partition.Strategy) bool {
			return st.Kind != partition.SplitReduce
		},
	}
	s, err := Partition(m.G, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range s.Plan.Steps {
		for _, st := range step.OpStrategy {
			if st.Kind == partition.SplitReduce {
				t.Fatal("restricted search used output reduction")
			}
		}
	}
}

func TestSimulateWithCustomHW(t *testing.T) {
	m, err := models.MLP(2, 256, 64)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Partition(m.G, 2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	hw := topo.DefaultHW()
	hw.PeakFLOPS *= 10
	fast := topo.FlatTopology(hw)
	opts := DefaultOptions()
	opts.Topology = &fast
	quick := Simulate(s, m.Batch, opts, sim.RunOptions{})
	slow := Simulate(s, m.Batch, DefaultOptions(), sim.RunOptions{})
	if quick.IterSeconds >= slow.IterSeconds {
		t.Fatalf("10x faster GPUs should be faster: %g vs %g", quick.IterSeconds, slow.IterSeconds)
	}
}

func TestSubMachinePlanGetsBlindLayout(t *testing.T) {
	// Partitioning for fewer workers than the machine has GPUs keeps the
	// search topology-blind, but the plan must still be annotated with the
	// cyclic-placement layout: 8 workers on the 2x8 cluster sit 4 per node,
	// so the last recursive step crosses Ethernet and must not be priced at
	// PCIe speed.
	m, err := models.RNN(2, 1024, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	cl := topo.Cluster2x8Topology()
	opts := DefaultOptions()
	opts.Topology = &cl
	s, err := Partition(m.G, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	crossesEthernet := false
	for _, st := range s.Plan.Steps {
		if st.Level == len(cl.Levels)-1 {
			crossesEthernet = true
		}
	}
	if !crossesEthernet {
		t.Fatalf("sub-machine plan never crosses the outermost level: %+v", s.Plan.Steps)
	}
	onCluster := Simulate(s, m.Batch, opts, sim.RunOptions{})
	onFlat := Simulate(s, m.Batch, DefaultOptions(), sim.RunOptions{})
	if onCluster.CommSeconds <= onFlat.CommSeconds {
		t.Fatalf("Ethernet-crossing step priced too fast: %g vs flat %g",
			onCluster.CommSeconds, onFlat.CommSeconds)
	}
}

// TestPartitionValidatesGraph: a corrupt graph is a "core: " error on the
// flat and on the pipeline path alike.
func TestPartitionValidatesGraph(t *testing.T) {
	m, err := models.MLP(1, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the graph: break topological order.
	m.G.Nodes[0], m.G.Nodes[len(m.G.Nodes)-1] = m.G.Nodes[len(m.G.Nodes)-1], m.G.Nodes[0]
	cl := topo.Cluster2x8Topology()
	pipelined := DefaultOptions()
	pipelined.Topology, pipelined.Pipeline = &cl, &PipelineSpec{}
	for _, c := range []struct {
		k    int64
		opts Options
	}{{2, DefaultOptions()}, {int64(cl.NumGPUs()), pipelined}} {
		if _, err := Partition(m.G, c.k, c.opts); err == nil || !strings.HasPrefix(err.Error(), "core: graph: ") {
			t.Errorf("pipeline %v: err = %v, want a core: validation error", c.opts.Pipeline != nil, err)
		}
	}
}

// TestPartitionRejectsMisnumberedTensors: graph generation, the memory
// planner and the simulator index per-tensor slices by tensor ID, so a
// hand-built graph whose tensor IDs are not their positions is an error from
// Partition, not an index panic further down.
func TestPartitionRejectsMisnumberedTensors(t *testing.T) {
	for _, corrupt := range []func(ts []*graph.Tensor) []*graph.Tensor{
		func(ts []*graph.Tensor) []*graph.Tensor { ts[0], ts[1] = ts[1], ts[0]; return ts },
		func(ts []*graph.Tensor) []*graph.Tensor { ts[len(ts)-1].ID += 1000; return ts },
		func(ts []*graph.Tensor) []*graph.Tensor { return ts[:len(ts)-1] },
	} {
		m, err := models.MLP(1, 64, 8)
		if err != nil {
			t.Fatal(err)
		}
		m.G.Tensors = corrupt(m.G.Tensors)
		if _, err := Partition(m.G, 2, DefaultOptions()); err == nil || !strings.Contains(err.Error(), "tensor") {
			t.Errorf("misnumbered tensors: err = %v, want a validation error", err)
		}
	}
}

// TestTraceAndCancelComeFromOptions: Options.Trace and Options.Cancel reach
// the tensor search and the pipeline search alike, and the Search-level
// copies of both are rejected on both paths rather than preferred on one
// and ignored on the other.
func TestTraceAndCancelComeFromOptions(t *testing.T) {
	m, err := models.MLP(2, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	cl := topo.Cluster2x8Topology()
	pipelined := DefaultOptions()
	pipelined.Topology, pipelined.Pipeline = &cl, &PipelineSpec{}
	for _, c := range []struct {
		k    int64
		opts Options
	}{{8, DefaultOptions()}, {int64(cl.NumGPUs()), pipelined}} {
		path := "tensor"
		if c.opts.Pipeline != nil {
			path = "pipeline"
		}
		for _, set := range []func(o *Options){
			func(o *Options) { o.Search.Trace = obs.NewSpan("search") },
			func(o *Options) { o.Search.Cancel = cancel.New() },
		} {
			o := c.opts
			set(&o)
			if _, err := Partition(m.G, c.k, o); err == nil || !strings.Contains(err.Error(), "Options.Trace and Options.Cancel") {
				t.Errorf("%s: Search-level trace or token: err = %v, want a core: rejection", path, err)
			}
		}

		o := c.opts
		o.Trace = obs.NewSpan("partition")
		if _, err := Partition(m.G, c.k, o); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if kids := o.Trace.Children(); len(kids) == 0 || kids[0].Name() != "coarsen" {
			t.Errorf("%s: Options.Trace recorded %d children, want the coarsen span first", path, len(kids))
		}

		o = c.opts
		o.Cancel = cancel.New()
		o.Cancel.Cancel(cancel.NewReason("stop"))
		if _, err := Partition(m.G, c.k, o); !cancel.IsCancellation(err) {
			t.Errorf("%s: pre-cancelled Options.Cancel: err = %v, want a cancellation", path, err)
		}
	}
}

// TestSimulateReportsPartitionMemory: Simulate reports the memory Partition
// planned and plans none of its own — on a flat machine the summary's report,
// on a pipeline the worst of the summary's per-stage reports, each the
// planner's report of its stage. Partition plans with reuse off and a
// workspace per operator, Simulate is handed the default planner options:
// planning again would show.
func TestSimulateReportsPartitionMemory(t *testing.T) {
	m, err := models.MLP(4, 256, 64)
	if err != nil {
		t.Fatal(err)
	}
	mem := memplan.Options{InPlaceAggregation: true, WorkspacePerOp: 1 << 20}
	flat := DefaultOptions()
	flat.Mem = mem
	s, err := Partition(m.G, 8, flat)
	if err != nil {
		t.Fatal(err)
	}
	if s.Memory != memplan.Plan(s.Sharded, mem) || s.StageMemory != nil {
		t.Fatalf("flat summary: memory %+v, stage memory %v", s.Memory, s.StageMemory)
	}
	if s.Memory == memplan.Plan(s.Sharded, memplan.DefaultOptions()) {
		t.Fatal("flat: the default planner options plan the same report; the test cannot tell them apart")
	}
	if got := Simulate(s, m.Batch, DefaultOptions(), sim.RunOptions{}).Mem; got != s.Memory {
		t.Errorf("flat: Simulate reports %+v, the summary %+v", got, s.Memory)
	}

	cl := topo.Cluster4x2x8Topology()
	piped := DefaultOptions()
	piped.Mem, piped.Topology, piped.Pipeline = mem, &cl, &PipelineSpec{}
	s, err = Partition(m.G, int64(cl.NumGPUs()), piped)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.StageMemory) != len(s.Hybrid.Stages) || len(s.StageMemory) < 2 {
		t.Fatalf("pipeline: %d stage reports for %d stages", len(s.StageMemory), len(s.Hybrid.Stages))
	}
	var worst memplan.Report
	for i, stg := range s.Hybrid.Stages {
		if rep := memplan.Plan(stg.Sharded, mem); s.StageMemory[i] != rep {
			t.Fatalf("stage %d: summary reports %+v, the planner %+v", i, s.StageMemory[i], rep)
		}
		if s.StageMemory[i].PeakBytes > worst.PeakBytes {
			worst = s.StageMemory[i]
		}
	}
	if s.Memory != worst {
		t.Fatalf("pipeline: summary memory %+v, worst stage %+v", s.Memory, worst)
	}
	other := piped
	other.Mem = memplan.DefaultOptions()
	if got := Simulate(s, m.Batch, other, sim.RunOptions{}).Mem; got != worst {
		t.Errorf("pipeline: Simulate reports %+v, the worst stage %+v", got, worst)
	}
	got, err := SimulatePipeline(s, m.Batch, other, sim.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Mem != worst {
		t.Errorf("pipeline: SimulatePipeline reports %+v, the worst stage %+v", got.Mem, worst)
	}
}
