package sim_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"tofu/internal/graphgen"
	"tofu/internal/hybrid"
	"tofu/internal/memplan"
	"tofu/internal/models"
	"tofu/internal/sim"
	"tofu/internal/topo"
)

func resultBytes(t *testing.T, r sim.Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunPipelineDeterministicHierarchical pins the layer-per-GPU pipeline
// baseline on hierarchical machines: repeated runs must produce
// byte-identical results (the simulator is a pure function of its inputs),
// and the result must be finite and positive.
func TestRunPipelineDeterministicHierarchical(t *testing.T) {
	m, err := models.Build(models.Config{Family: "rnn", Depth: 2, Width: 256, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, prof := range []string{"dgx1", "cluster-2x8"} {
		tp, err := topo.Profile(prof)
		if err != nil {
			t.Fatal(err)
		}
		first, err := sim.RunPipeline(m.G, tp, 16, sim.PipelineOptions{})
		if err != nil {
			t.Fatalf("%s: %v", prof, err)
		}
		if first.IterSeconds <= 0 || first.Throughput <= 0 {
			t.Fatalf("%s: degenerate result %+v", prof, first)
		}
		want := resultBytes(t, first)
		for run := 0; run < 3; run++ {
			r, err := sim.RunPipeline(m.G, tp, 16, sim.PipelineOptions{})
			if err != nil {
				t.Fatalf("%s run %d: %v", prof, run, err)
			}
			if !bytes.Equal(resultBytes(t, r), want) {
				t.Errorf("%s run %d: result bytes changed", prof, run)
			}
		}
	}
}

// TestRunPipelineStagesDeterministic is the hybrid-runtime counterpart:
// stages from the joint search simulated at search Parallelism 1, 2 and 8
// must all price to byte-identical results, across repeated runs — the
// fixed point the BENCH gates and golden plans rest on.
func TestRunPipelineStagesDeterministic(t *testing.T) {
	cfg := models.Config{Family: "mlp", Depth: 4, Width: 256, Batch: 64}
	m, err := models.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, prof := range []string{"dgx1", "cluster-2x8"} {
		tp, err := topo.Profile(prof)
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		for _, par := range []int{1, 2, 8} {
			res, err := hybrid.Partition(m.G, int64(tp.NumGPUs()), hybrid.Options{
				Topology: &tp, Parallelism: par, Gen: graphgen.DefaultOptions(),
			})
			if err != nil {
				t.Fatalf("%s par %d: %v", prof, par, err)
			}
			stages := make([]sim.PipelineStage, len(res.Stages))
			for i, st := range res.Stages {
				stages[i] = sim.PipelineStage{
					Sharded:          st.Sharded,
					Topo:             st.Topo,
					HandoffBytes:     st.HandoffBytes,
					HandoffBandwidth: st.HandoffBandwidth,
				}
			}
			for run := 0; run < 2; run++ {
				r, err := sim.RunPipelineStages(stages, cfg.Batch, len(stages), memplan.DefaultOptions(), sim.RunOptions{})
				if err != nil {
					t.Fatalf("%s par %d run %d: %v", prof, par, run, err)
				}
				got := resultBytes(t, r)
				if want == nil {
					if r.IterSeconds <= 0 || r.Throughput <= 0 {
						t.Fatalf("%s: degenerate result %+v", prof, r)
					}
					want = got
					continue
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s par %d run %d: result bytes differ from par-1 baseline", prof, par, run)
				}
			}
		}
	}
}

// TestRunPipelineStagesErrors covers the infeasible-split and malformed-
// stage error paths.
func TestRunPipelineStagesErrors(t *testing.T) {
	m, err := models.Build(models.Config{Family: "mlp", Depth: 4, Width: 256, Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := topo.Profile("cluster-2x8")
	if err != nil {
		t.Fatal(err)
	}
	res, err := hybrid.Partition(m.G, int64(tp.NumGPUs()), hybrid.Options{Topology: &tp, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	stages := make([]sim.PipelineStage, len(res.Stages))
	for i, st := range res.Stages {
		stages[i] = sim.PipelineStage{
			Sharded:          st.Sharded,
			Topo:             st.Topo,
			HandoffBytes:     st.HandoffBytes,
			HandoffBandwidth: st.HandoffBandwidth,
		}
	}
	opts := memplan.DefaultOptions()
	cases := []struct {
		name   string
		stages []sim.PipelineStage
		batch  int64
		micro  int
		frag   string
	}{
		{"no-stages", nil, 64, 1, "no stages"},
		{"zero-micro", stages, 64, 0, "invalid"},
		{"micro-exceeds-batch", stages, 2, 4, "exceed"},
		{"uneven-split", stages, 64, 7, "divide"},
		{"nil-sharded", []sim.PipelineStage{{Topo: tp}, {Topo: tp}}, 64, 1, "no sharded"},
		{"bad-bandwidth", []sim.PipelineStage{
			{Sharded: stages[0].Sharded, Topo: stages[0].Topo, HandoffBytes: 1024, HandoffBandwidth: 0},
			stages[len(stages)-1],
		}, 64, 1, "bandwidth"},
	}
	for _, c := range cases {
		_, err := sim.RunPipelineStages(c.stages, c.batch, c.micro, opts, sim.RunOptions{})
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.frag)
		}
	}
}
