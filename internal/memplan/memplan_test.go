package memplan

import (
	"testing"

	"tofu/internal/graph"
	"tofu/internal/graphgen"
	"tofu/internal/models"
	"tofu/internal/recursive"
	"tofu/internal/shape"
)

func planFor(t *testing.T, m *models.Model, k int64, opt Options) Report {
	t.Helper()
	var sh *graphgen.Sharded
	var err error
	if k == 1 {
		sh, err = graphgen.Single(m.G)
	} else {
		p, perr := recursive.Partition(m.G, k, recursive.Options{})
		if perr != nil {
			t.Fatal(perr)
		}
		sh, err = graphgen.Generate(m.G, p, graphgen.DefaultOptions())
	}
	if err != nil {
		t.Fatal(err)
	}
	return Plan(sh, opt)
}

func TestPersistentMatchesWeights(t *testing.T) {
	m, err := models.MLP(2, 256, 32)
	if err != nil {
		t.Fatal(err)
	}
	rep := planFor(t, m, 1, DefaultOptions())
	// Persistent = weights + optimizer history + inputs.
	var want int64
	for _, ten := range m.G.Tensors {
		switch ten.Kind {
		case graph.Weight, graph.OptState, graph.Input:
			want += ten.Bytes()
		}
	}
	if rep.PersistentBytes != want {
		t.Fatalf("persistent = %d, want %d", rep.PersistentBytes, want)
	}
	if rep.PeakBytes < rep.PersistentBytes {
		t.Fatal("peak below persistent")
	}
}

func TestPartitioningDividesFootprint(t *testing.T) {
	// The paper's Sec 2 claim: k-way partitioning leaves each worker with
	// roughly 1/k of the footprint.
	m, err := models.RNN(2, 512, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	one := planFor(t, m, 1, DefaultOptions())
	eight := planFor(t, m, 8, DefaultOptions())
	ratio := float64(one.PeakBytes) / float64(eight.PeakBytes)
	if ratio < 4 || ratio > 12 {
		t.Fatalf("8-way partitioning shrank footprint by %.1fx, want ~8x", ratio)
	}
}

func TestReuseOffInflatesPeak(t *testing.T) {
	// Without Fig 7's control dependencies, buffer reuse is lost and the
	// peak grows (Sec 6's "per-worker memory consumption far exceeded the
	// expected amount").
	m, err := models.WResNet(50, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	on := planFor(t, m, 1, DefaultOptions())
	off := planFor(t, m, 1, Options{Reuse: false, InPlaceAggregation: true})
	if off.TransientPeak <= on.TransientPeak {
		t.Fatalf("no-reuse peak %d must exceed reuse peak %d", off.TransientPeak, on.TransientPeak)
	}
}

func TestInPlaceAggregationSavesMemory(t *testing.T) {
	// Shared RNN weights aggregate gradients across 6 timesteps; without
	// in-place aggregation (TensorFlow, Table 3) peak grows.
	m, err := models.RNN(2, 512, 32, 6)
	if err != nil {
		t.Fatal(err)
	}
	inplace := planFor(t, m, 1, DefaultOptions())
	copies := planFor(t, m, 1, Options{Reuse: true, InPlaceAggregation: false})
	if copies.TransientPeak <= inplace.TransientPeak {
		t.Fatalf("non-in-place peak %d must exceed in-place peak %d",
			copies.TransientPeak, inplace.TransientPeak)
	}
}

func TestWorkspaceAccounting(t *testing.T) {
	m, err := models.MLP(1, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	plain := planFor(t, m, 1, DefaultOptions())
	ws := planFor(t, m, 1, Options{Reuse: true, InPlaceAggregation: true, WorkspacePerOp: 1 << 20})
	if ws.TransientPeak < plain.TransientPeak+1<<20 {
		t.Fatalf("workspace not accounted: %d vs %d", ws.TransientPeak, plain.TransientPeak)
	}
}

func TestFits(t *testing.T) {
	r := Report{PeakBytes: 100}
	if !r.Fits(100) || r.Fits(99) {
		t.Fatal("Fits boundary wrong")
	}
}

func TestAliasRoots(t *testing.T) {
	g := graph.New()
	a := g.Input("a", shape.Of(4, 4))
	b := g.Input("b", shape.Of(4, 4))
	s1 := g.Apply("add", nil, a, b)
	agg := g.Apply("add", nil, s1, b)
	g.Nodes[len(g.Nodes)-1].GradAgg = true
	g.Nodes[len(g.Nodes)-1].InPlace = true

	sh, err := graphgen.Single(g)
	if err != nil {
		t.Fatal(err)
	}
	roots := AliasRoots(sh, true)
	if roots[agg.ID] != s1.ID {
		t.Fatalf("in-place aggregation output should alias its first input: %d vs %d",
			roots[agg.ID], s1.ID)
	}
	rootsOff := AliasRoots(sh, false)
	if rootsOff[agg.ID] != agg.ID {
		t.Fatal("with aggregation aliasing off, the output is its own root")
	}
	if roots[s1.ID] != s1.ID || roots[a.ID] != a.ID {
		t.Fatal("non-aliased tensors must be their own roots")
	}
}

func TestOptimizerUpdatesAliasWeights(t *testing.T) {
	m, err := models.MLP(1, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := graphgen.Single(m.G)
	if err != nil {
		t.Fatal(err)
	}
	roots := AliasRoots(sh, true)
	for _, n := range m.G.Nodes {
		if n.Op != "adam_update" {
			continue
		}
		if roots[n.Output.ID] != n.Inputs[0].ID {
			t.Fatalf("weight update output must alias the weight, got root %d", roots[n.Output.ID])
		}
	}
}
