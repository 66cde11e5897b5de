package baselines

import (
	"testing"

	"tofu/internal/models"
	"tofu/internal/topo"
)

func eval(t *testing.T, cfg models.Config, sys System) Outcome {
	t.Helper()
	out, err := Evaluate(cfg, sys, topo.DefaultTopology())
	if err != nil {
		t.Fatalf("%s: %v", sys, err)
	}
	return out
}

// smallRNN is large enough to exercise partitioning but quick to search.
var smallRNN = models.Config{Family: "rnn", Depth: 2, Width: 1024, Batch: 128}

// bigRNN exceeds a single 12 GB GPU — the regime the paper targets (very
// large models); the qualitative orderings only hold under memory pressure
// (Sec 9 notes Tofu is not meant for models that fit in one GPU).
var bigRNN = models.Config{Family: "rnn", Depth: 6, Width: 4096, Batch: 512}

func TestOrderingMatchesPaper(t *testing.T) {
	// The qualitative ordering the evaluation establishes for RNNs that fit
	// only with help: Ideal >= Tofu > OpPlacement and Tofu > Swap.
	cfg := bigRNN
	ideal := eval(t, cfg, Ideal)
	tofu := eval(t, cfg, Tofu)
	opp := eval(t, cfg, OpPlacement)
	swap := eval(t, cfg, Swap)

	if tofu.Throughput > ideal.Throughput*1.001 {
		t.Errorf("Tofu %g beats Ideal %g", tofu.Throughput, ideal.Throughput)
	}
	if opp.Throughput >= tofu.Throughput {
		t.Errorf("OpPlacement %g >= Tofu %g", opp.Throughput, tofu.Throughput)
	}
	if swap.Throughput >= tofu.Throughput {
		t.Errorf("Swap %g >= Tofu %g", swap.Throughput, tofu.Throughput)
	}
}

func TestTofuWithinIdealBand(t *testing.T) {
	// Sec 7: Tofu reaches 60%-98% of ideal across the benchmarks.
	for _, cfg := range []models.Config{
		bigRNN,
		{Family: "wresnet", Depth: 50, Width: 4, Batch: 128},
	} {
		ideal := eval(t, cfg, Ideal)
		tofu := eval(t, cfg, Tofu)
		frac := tofu.Throughput / ideal.Throughput
		if frac < 0.5 || frac > 1.0 {
			t.Errorf("%v: Tofu at %.0f%% of ideal, want 50-100%%", cfg, frac*100)
		}
	}
}

func TestTFOpPlacementSlower(t *testing.T) {
	mx := eval(t, smallRNN, OpPlacement)
	tf := eval(t, smallRNN, TFOpPlacement)
	if tf.Throughput >= mx.Throughput {
		t.Errorf("TF placement %g must trail MXNet placement %g", tf.Throughput, mx.Throughput)
	}
}

func TestHeuristicsNeverBeatTofu(t *testing.T) {
	// Figure 10: Tofu's plan dominates AllRow-Greedy, Spartan, EqualChop
	// and ICML18 in communication volume.
	m, err := models.Build(smallRNN)
	if err != nil {
		t.Fatal(err)
	}
	tofu, err := PlanFor(m, Tofu, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []System{Spartan, EqualChop, ICML18} {
		p, err := PlanFor(m, sys, 8)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if p.TotalComm() < tofu.TotalComm()*0.999 {
			t.Errorf("%s comm %.0f beats Tofu %.0f", sys, p.TotalComm(), tofu.TotalComm())
		}
	}
}

func TestAllRowGreedy(t *testing.T) {
	m, err := models.Build(smallRNN)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PlanFor(m, AllRowGreedy, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Every tensor with a cut is cut along dimension 0.
	for _, s := range p.Steps {
		for tid, d := range s.TensorCut {
			if d != 0 {
				t.Fatalf("AllRow-Greedy cut tensor %d along dim %d", tid, d)
			}
		}
	}
	tofu, err := PlanFor(m, Tofu, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalComm() < tofu.TotalComm()*0.999 {
		t.Errorf("AllRow comm %.0f beats Tofu %.0f", p.TotalComm(), tofu.TotalComm())
	}
}

func TestICML18LacksOutputReduction(t *testing.T) {
	m, err := models.Build(smallRNN)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PlanFor(m, ICML18, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range p.Steps {
		for _, st := range s.OpStrategy {
			if st.Kind.String() == "reduce" {
				t.Fatal("ICML18 must not use output reduction")
			}
		}
	}
}

func TestSmallBatchShrinksUntilFit(t *testing.T) {
	// RNN-6-4096 at batch 512 exceeds 12 GB on one GPU; SmallBatch must
	// shrink the batch.
	cfg := bigRNN
	out := eval(t, cfg, SmallBatch)
	if out.OOM {
		t.Fatal("SmallBatch should have found a fitting batch")
	}
	if out.Batch >= cfg.Batch {
		t.Fatalf("SmallBatch kept batch %d", out.Batch)
	}
}

func TestIdealIgnoresMemory(t *testing.T) {
	cfg := bigRNN
	out := eval(t, cfg, Ideal)
	if out.OOM {
		t.Fatal("Ideal never OOMs")
	}
	if out.Batch != cfg.Batch {
		t.Fatal("Ideal keeps the requested batch")
	}
}

func TestSwapUsesLargerBatchThanSmallBatch(t *testing.T) {
	sb := eval(t, bigRNN, SmallBatch)
	sw := eval(t, bigRNN, Swap)
	if sw.Batch <= sb.Batch {
		t.Fatalf("swap batch %d should exceed small-batch %d", sw.Batch, sb.Batch)
	}
}

func TestUnknownSystem(t *testing.T) {
	if _, err := Evaluate(smallRNN, System("nope"), topo.DefaultTopology()); err == nil {
		t.Fatal("expected unknown-system error")
	}
	m, err := models.Build(smallRNN)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlanFor(m, Ideal, 8); err == nil {
		t.Fatal("expected not-a-partitioner error")
	}
}
