package tofu_test

import (
	"strings"
	"testing"

	"tofu"
)

// TestPublicAPIQuickstart exercises the documented flow end to end.
func TestPublicAPIQuickstart(t *testing.T) {
	m, err := tofu.RNN(2, 1024, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := tofu.Partition(m.G, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Plan.Steps) != 3 {
		t.Fatalf("8-way plan has %d steps", len(s.Plan.Steps))
	}
	if !s.Plan.Monotone() {
		t.Fatal("plan violates Theorem 2")
	}
	res := tofu.Simulate(s, m.Batch, tofu.DefaultPipelineOptions(), nil)
	if res.Throughput <= 0 {
		t.Fatal("no throughput")
	}
	if s.Memory.PeakBytes <= 0 {
		t.Fatal("no memory accounting")
	}
}

func TestPublicAPICustomOperator(t *testing.T) {
	i, j, k := tofu.Ax("i"), tofu.Ax("j"), tofu.Ax("k")
	d, err := tofu.DescribeOp("test_matmul_like").
		In("a", 2).In("b", 2).Out(i, j).
		Is(tofu.Reduce(tofu.Sum,
			[]tofu.ReduceAxisBinding{tofu.RVar(k, tofu.ExtentOf("a", 1))},
			tofu.Mul(tofu.At("a", i, k), tofu.At("b", k, j))))
	if err != nil {
		t.Fatal(err)
	}
	if err := tofu.RegisterOp(d); err != nil {
		t.Fatal(err)
	}
	ss, err := tofu.OpStrategies("test_matmul_like", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 3 {
		t.Fatalf("strategies = %v, want 2 output splits + 1 reduction", ss)
	}
	joined := strings.Join(ss, " ")
	if !strings.Contains(joined, "split-reduce(k/Sum)") {
		t.Fatalf("missing output-reduction strategy in %v", ss)
	}
}

func TestPublicAPIBuildersAndEvaluate(t *testing.T) {
	cfg := tofu.ModelConfig{Family: "mlp", Depth: 2, Width: 256, Batch: 32}
	m, err := tofu.BuildModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Batch != 32 {
		t.Fatal("batch lost")
	}
	out, err := tofu.EvaluateSystem(cfg, tofu.Ideal, tofu.DefaultTopology())
	if err != nil {
		t.Fatal(err)
	}
	if out.Throughput <= 0 {
		t.Fatal("ideal evaluation failed")
	}
}

func TestPublicAPIGraphConstruction(t *testing.T) {
	g := tofu.NewGraph()
	x := g.Input("x", tofu.ShapeOf(16, 64))
	w := g.Weight("w", tofu.ShapeOf(64, 64))
	h := g.Apply("matmul", nil, x, w)
	h = g.Apply("relu", nil, h)
	if !h.Shape.Equal(tofu.ShapeOf(16, 64)) {
		t.Fatalf("shape inference broken: %v", h.Shape)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPublicAPITopology exercises the topology surface: profiles, the
// topology-aware pipeline, and Simulate honoring the machine in the
// options it is handed.
func TestPublicAPITopology(t *testing.T) {
	names := tofu.TopologyProfiles()
	if len(names) < 3 {
		t.Fatalf("profile library too small: %v", names)
	}
	dgx, err := tofu.TopologyProfile("dgx1")
	if err != nil {
		t.Fatal(err)
	}
	m, err := tofu.RNN(2, 1024, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	opts := tofu.DefaultPipelineOptions()
	opts.Topology = &dgx
	s, err := tofu.PartitionWithOptions(m.G, int64(dgx.NumGPUs()), opts)
	if err != nil {
		t.Fatal(err)
	}
	onDGX := tofu.Simulate(s, m.Batch, opts, nil)
	if onDGX.Throughput <= 0 {
		t.Fatal("no throughput on dgx1")
	}
	// Same summary priced on the slower flat default machine: NVLink-level
	// transfers must not be slower than all-PCIe ones.
	onFlat := tofu.Simulate(s, m.Batch, tofu.DefaultPipelineOptions(), nil)
	if onDGX.CommSeconds > onFlat.CommSeconds {
		t.Fatalf("dgx1 comm %g slower than flat %g", onDGX.CommSeconds, onFlat.CommSeconds)
	}

	out, err := tofu.EvaluateSystem(
		tofu.ModelConfig{Family: "rnn", Depth: 2, Width: 1024, Batch: 64},
		tofu.TofuSystem, dgx)
	if err != nil {
		t.Fatal(err)
	}
	if out.Throughput <= 0 {
		t.Fatal("EvaluateSystem on dgx1 produced no throughput")
	}
}

// TestSingleWorkerTrivialPlan locks in the k=1 contract: Factorize(1) is
// the empty factor list, so Partition returns a valid zero-step plan
// (every tensor whole on the one worker) that flows through graph
// generation, memory planning and simulation end to end.
func TestSingleWorkerTrivialPlan(t *testing.T) {
	m, err := tofu.MLP(2, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := tofu.Partition(m.G, 1)
	if err != nil {
		t.Fatalf("k=1 partition: %v", err)
	}
	if len(s.Plan.Steps) != 0 {
		t.Fatalf("trivial plan has %d steps, want 0", len(s.Plan.Steps))
	}
	if c := s.Plan.TotalComm(); c != 0 {
		t.Fatalf("trivial plan has communication %g, want 0", c)
	}
	for _, ten := range m.G.Tensors {
		if fs, ok := s.Plan.FinalShapes[ten.ID]; ok && !fs.Equal(ten.Shape) {
			t.Fatalf("tensor %v shard %v != full shape %v", ten, fs, ten.Shape)
		}
	}
	res := tofu.Simulate(s, m.Batch, tofu.DefaultPipelineOptions(), nil)
	if res.Throughput <= 0 || res.OOM {
		t.Fatalf("trivial plan does not simulate: throughput %g, oom %v", res.Throughput, res.OOM)
	}
}
