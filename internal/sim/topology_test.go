package sim

import (
	"bytes"
	"testing"

	"tofu/internal/graphgen"
	"tofu/internal/models"
	"tofu/internal/plan"
	"tofu/internal/recursive"
	"tofu/internal/topo"
)

func benchmarkModels(t *testing.T) []*models.Model {
	t.Helper()
	var out []*models.Model
	for _, cfg := range []models.Config{
		{Family: "mlp", Depth: 2, Width: 512, Batch: 64},
		{Family: "rnn", Depth: 2, Width: 1024, Batch: 128},
		{Family: "wresnet", Depth: 50, Width: 2, Batch: 32},
	} {
		m, err := models.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

func planJSON(t *testing.T, p *plan.Plan) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFlatProfileEquivalence locks the refactor's compatibility contract:
// on the default (single-level) profile, the topology-aware path reproduces
// the flat search's plan JSON byte for byte and the simulator's Result
// exactly, on MLP, RNN and WResNet.
func TestFlatProfileEquivalence(t *testing.T) {
	tp := topo.DefaultTopology()
	hw := topo.DefaultHW()
	for _, m := range benchmarkModels(t) {
		flat, err := recursive.Partition(m.G, 8, recursive.Options{})
		if err != nil {
			t.Fatal(err)
		}
		aware, err := recursive.Partition(m.G, 8, recursive.Options{Topology: &tp})
		if err != nil {
			t.Fatal(err)
		}
		if fj, aj := planJSON(t, flat), planJSON(t, aware); !bytes.Equal(fj, aj) {
			t.Fatalf("%s: topology-aware plan diverged from flat plan on the default profile:\n%s\n%s",
				m.Name, fj, aj)
		}
		sh, err := graphgen.Generate(m.G, aware, graphgen.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		rFlat := runDefault(sh, topo.FlatTopology(hw), m.Batch, RunOptions{})
		rTopo := runDefault(sh, tp, m.Batch, RunOptions{})
		if rFlat != rTopo {
			t.Fatalf("%s: simulated results diverged between flat HW and default topology:\n%+v\n%+v",
				m.Name, rFlat, rTopo)
		}
	}
}

// TestNVLinkPlanDiffers is the regression guard for the topology-aware
// search actually reacting to the machine: on the DGX-1 profile the chosen
// plan (including its step-to-level layout) must differ from the flat plan
// on at least one benchmark.
func TestNVLinkPlanDiffers(t *testing.T) {
	dgx := topo.DGX1Topology()
	m, err := models.RNN(2, 1500, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := recursive.Partition(m.G, 8, recursive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	aware, err := recursive.Partition(m.G, 8, recursive.Options{Topology: &dgx})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(planJSON(t, flat), planJSON(t, aware)) {
		t.Fatal("NVLink-profile plan is identical to the flat plan; the search ignored the topology")
	}
}

// TestHierarchicalCommPricing checks the per-level transfer pricing: the
// same sharded execution costs more communication time when its slow-level
// steps cross a slower link.
func TestHierarchicalCommPricing(t *testing.T) {
	m, err := models.RNN(2, 1024, 128, 4)
	if err != nil {
		t.Fatal(err)
	}
	cl := topo.Cluster2x8Topology()
	p, err := recursive.Partition(m.G, 16, recursive.Options{Topology: &cl})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := graphgen.Generate(m.G, p, graphgen.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	hier := runDefault(sh, cl, m.Batch, RunOptions{})
	// The same execution on a fantasy flat machine whose every link runs at
	// PCIe speed must see strictly less communication time: the real
	// cluster's Ethernet level is slower than any flat link.
	fast := cl.HW
	fast.NumGPUs = 16
	flat := runDefault(sh, topo.FlatTopology(fast), m.Batch, RunOptions{})
	if hier.CommSeconds <= flat.CommSeconds {
		t.Fatalf("Ethernet-crossing steps must cost more than flat PCIe: %g vs %g",
			hier.CommSeconds, flat.CommSeconds)
	}
}
