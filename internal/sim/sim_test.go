package sim

import (
	"testing"

	"tofu/internal/graphgen"
	"tofu/internal/memplan"
	"tofu/internal/models"
	"tofu/internal/recursive"
	"tofu/internal/topo"
)

func singleSharded(t *testing.T, m *models.Model) *graphgen.Sharded {
	t.Helper()
	sh, err := graphgen.Single(m.G)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

func TestRunBasics(t *testing.T) {
	m, err := models.MLP(2, 256, 64)
	if err != nil {
		t.Fatal(err)
	}
	hw := topo.DefaultHW()
	res := runDefault(singleSharded(t, m), topo.FlatTopology(hw), 64, RunOptions{})
	if res.IterSeconds <= 0 || res.Throughput <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
	if res.CommSeconds != 0 {
		t.Fatal("single GPU must not communicate")
	}
	if res.ComputeSeconds > res.IterSeconds+1e-12 {
		t.Fatal("compute exceeds iteration time")
	}
}

func TestReplicasScaleThroughput(t *testing.T) {
	m, err := models.MLP(1, 128, 32)
	if err != nil {
		t.Fatal(err)
	}
	hw := topo.DefaultHW()
	one := runDefault(singleSharded(t, m), topo.FlatTopology(hw), 32, RunOptions{Replicas: 1})
	eight := runDefault(singleSharded(t, m), topo.FlatTopology(hw), 32, RunOptions{Replicas: 8})
	if eight.Throughput < one.Throughput*7.9 || eight.Throughput > one.Throughput*8.1 {
		t.Fatalf("replicas scaling wrong: %g vs %g", eight.Throughput, one.Throughput)
	}
}

func TestCommOverlapsButGates(t *testing.T) {
	m, err := models.RNN(2, 512, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := recursive.Partition(m.G, 8, recursive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := graphgen.Generate(m.G, p, graphgen.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	hw := topo.DefaultHW()
	with := runDefault(sh, topo.FlatTopology(hw), 64, RunOptions{})
	without := runDefault(sh, topo.FlatTopology(hw), 64, RunOptions{DisableComm: true})
	if with.IterSeconds < without.IterSeconds {
		t.Fatal("communication cannot speed execution up")
	}
	if without.CommSeconds != 0 {
		t.Fatal("DisableComm must zero communication")
	}
	// Figure 10's breakdown: compute-only time equals the kernel total.
	if diff := without.IterSeconds - without.ComputeSeconds; diff < 0 || diff > without.IterSeconds*0.01 {
		t.Fatalf("compute-only run should be kernel-bound, diff %g", diff)
	}
}

func TestKernelEfficiencyCurves(t *testing.T) {
	hw := topo.DefaultHW()
	// Matmul efficiency grows with rows and saturates.
	if Eff(hw, ClassMatmul, 64) >= Eff(hw, ClassMatmul, 512) {
		t.Fatal("matmul efficiency must grow with rows")
	}
	if Eff(hw, ClassMatmul, 1<<20) > hw.MatmulMaxEff {
		t.Fatal("matmul efficiency exceeds max")
	}
	// Conv stays efficient even at small batch (Sec 7.2): batch 8 within
	// 25% of batch 128.
	if Eff(hw, ClassConv, 8) < Eff(hw, ClassConv, 128)*0.75 {
		t.Fatal("conv efficiency collapsed at small batch")
	}
	// Element-wise kernels are memory-bound.
	if Eff(hw, ClassMemBound, 1) != 1 {
		t.Fatal("mem-bound class should not scale FLOPs")
	}
}

func TestClassify(t *testing.T) {
	cases := map[string]KernelClass{
		"matmul": ClassMatmul, "matmul_nt": ClassMatmul, "batch_cholesky": ClassMatmul,
		"conv2d": ClassConv, "conv2d_bwd_weight": ClassConv,
		"relu": ClassMemBound, "bn_mean": ClassMemBound,
	}
	for op, want := range cases {
		if got := Classify(op); got != want {
			t.Errorf("classify(%s) = %v, want %v", op, got, want)
		}
	}
}

func TestSwapFitsWithoutTraffic(t *testing.T) {
	// A model far below capacity must run swap-free at compute speed.
	m, err := models.MLP(2, 128, 32)
	if err != nil {
		t.Fatal(err)
	}
	hw := topo.DefaultHW()
	res := RunSwap(singleSharded(t, m), topo.FlatTopology(hw), 32)
	if res.CommSeconds != 0 {
		t.Fatalf("tiny model should not swap, traffic time %g", res.CommSeconds)
	}
	if res.OOM {
		t.Fatal("unexpected OOM")
	}
}

func TestSwapOverflowsGracefully(t *testing.T) {
	// RNN-4-2K at batch 512 exceeds 12 GB; swapping must produce traffic
	// but stay far below the pathological everything-thrashes regime.
	m, err := models.RNN(4, 2048, 512, 20)
	if err != nil {
		t.Fatal(err)
	}
	hw := topo.DefaultHW()
	sh := singleSharded(t, m)
	rep := memplan.Plan(sh, memplan.DefaultOptions())
	if rep.Fits(hw.GPUMemBytes) {
		t.Skipf("model unexpectedly fits (%d bytes)", rep.PeakBytes)
	}
	res := RunSwap(sh, topo.FlatTopology(hw), 512)
	if res.OOM {
		t.Fatal("swap should enable execution")
	}
	if res.CommSeconds <= 0 {
		t.Fatal("overflowing model must swap")
	}
	if res.IterSeconds < res.ComputeSeconds {
		t.Fatal("iteration cannot beat compute")
	}
}

func TestPipelineRNN(t *testing.T) {
	m, err := models.RNN(4, 512, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	hw := topo.DefaultHW()
	res, err := RunPipeline(m.G, topo.FlatTopology(hw), 64, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatal("pipeline produced no throughput")
	}
	// Pipelining cannot beat perfect parallelism over the busiest GPU:
	// with 4 layers on 8 GPUs, at most half the machine is busy.
	ideal := runDefault(singleSharded(t, m), topo.FlatTopology(hw), 64, RunOptions{Replicas: 8})
	if res.Throughput >= ideal.Throughput {
		t.Fatalf("pipeline %g must not reach ideal %g", res.Throughput, ideal.Throughput)
	}
}

func TestPipelineTFModeSlower(t *testing.T) {
	m, err := models.RNN(4, 512, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	hw := topo.DefaultHW()
	mx, err := RunPipeline(m.G, topo.FlatTopology(hw), 64, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tf, err := RunPipeline(m.G, topo.FlatTopology(hw), 64, PipelineOptions{TFMode: true})
	if err != nil {
		t.Fatal(err)
	}
	if tf.Throughput >= mx.Throughput {
		t.Fatalf("TF mode (%g) must be slower than MXNet mode (%g)", tf.Throughput, mx.Throughput)
	}
	if tf.Mem.PeakBytes <= mx.Mem.PeakBytes {
		t.Fatal("TF mode must use more gradient memory")
	}
}

func TestPipelineNeedsUnrolledModel(t *testing.T) {
	m, err := models.MLP(2, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunPipeline(m.G, topo.DefaultTopology(), 8, PipelineOptions{}); err == nil {
		t.Fatal("expected error for non-unrolled model")
	}
}

func TestPipelineMemoryImbalance(t *testing.T) {
	// 10 layers on 8 GPUs: two GPUs hold two layers each; peak memory must
	// reflect the heavier GPUs (the Fig 9 Op-Placement OOM mechanism).
	m10, err := models.RNN(10, 256, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	m8, err := models.RNN(8, 256, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	hw := topo.DefaultHW()
	r10, err := RunPipeline(m10.G, topo.FlatTopology(hw), 16, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := RunPipeline(m8.G, topo.FlatTopology(hw), 16, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r10.Mem.PeakBytes < r8.Mem.PeakBytes*3/2 {
		t.Fatalf("doubled-up GPUs should show ~2x memory: %d vs %d",
			r10.Mem.PeakBytes, r8.Mem.PeakBytes)
	}
}

// runDefault is Run with the execution's memory planned under the default
// options.
func runDefault(sh *graphgen.Sharded, tp topo.Topology, batch int64, ro RunOptions) Result {
	return Run(sh, tp, batch, memplan.Plan(sh, memplan.DefaultOptions()), ro)
}
