package graphgen_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"tofu/internal/core"
	"tofu/internal/graph"
	"tofu/internal/graphgen"
	"tofu/internal/models"
	"tofu/internal/plan"
	"tofu/internal/service"
)

// coldCase is one of the repository benchmark's twelve cold requests
// (bench/workloads/cold-*.json), searched as the cold op searches it.
type coldCase struct {
	name string
	m    *models.Model
	sum  *core.Summary
}

var (
	coldOnce  sync.Once
	coldCache []coldCase
	coldErr   error
)

// coldCases searches the twelve cold requests once per test binary.
func coldCases(tb testing.TB) []coldCase {
	coldOnce.Do(func() { coldCache, coldErr = loadColdCases() })
	if coldErr != nil {
		tb.Fatal(coldErr)
	}
	return coldCache
}

func loadColdCases() ([]coldCase, error) {
	var out []coldCase
	for _, w := range []string{"cold-flat", "cold-topo", "cold-hybrid"} {
		raw, err := os.ReadFile(filepath.Join("..", "..", "bench", "workloads", w+".json"))
		if err != nil {
			return nil, err
		}
		var spec struct{ Cases []json.RawMessage }
		if err := json.Unmarshal(raw, &spec); err != nil {
			return nil, err
		}
		for _, body := range spec.Cases {
			nr, err := service.ParseRequest(body)
			if err != nil {
				return nil, err
			}
			m, err := models.Build(nr.Model)
			if err != nil {
				return nil, err
			}
			opts := nr.PipelineOptions()
			opts.Search.Parallelism = 1
			sum, err := core.Partition(m.G, nr.Workers, opts)
			if err != nil {
				return nil, err
			}
			out = append(out, coldCase{w + " " + nr.Model.String(), m, sum})
		}
	}
	return out, nil
}

// executions lists what a case generates: the whole graph under the searched
// plan, or under every pipeline stage's plan, which is in the whole graph's
// IDs. (A stage's own execution, a subset of the nodes, is held to its
// extraction's by the hybrid package's TestStageExecutionMatchesExtraction.)
func executions(c coldCase) []struct {
	g *graph.Graph
	p *plan.Plan
} {
	type exec = struct {
		g *graph.Graph
		p *plan.Plan
	}
	if c.sum.Hybrid == nil {
		return []exec{{c.m.G, c.sum.Plan}}
	}
	var out []exec
	for _, stg := range c.sum.Hybrid.Stages {
		out = append(out, exec{stg.G, stg.Plan})
	}
	return out
}

// TestGenerateMatchesOracle holds Generate and Single to the map-keyed
// builders they replaced, field for field and float for float bit, on the
// twelve cold cases at their searched plans (every stage plan of the
// pipelined ones), under each graph-generation ablation toggle, and on the
// unpartitioned graphs.
func TestGenerateMatchesOracle(t *testing.T) {
	noMultiFetch, noSpread, noCtrl := graphgen.DefaultOptions(), graphgen.DefaultOptions(), graphgen.DefaultOptions()
	noMultiFetch.MultiFetch = false
	noSpread.SpreadReduction = false
	noCtrl.ControlDeps = false
	variants := []graphgen.Options{graphgen.DefaultOptions(), noMultiFetch, noSpread, noCtrl}
	cases := coldCases(t)
	if len(cases) != 12 {
		t.Fatalf("%d cold cases, want 12", len(cases))
	}
	for _, c := range cases {
		for si, e := range executions(c) {
			for _, opts := range variants {
				sh, err := graphgen.Generate(e.g, e.p, opts)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := graphgen.GenerateReference(e.g, e.p, opts)
				if err != nil {
					t.Fatal(err)
				}
				if d := graphgen.DiffReference(sh, ref); d != "" {
					t.Errorf("%s stage %d %+v: %s", c.name, si, opts, d)
				}
			}
		}
		sh, err := graphgen.Single(c.m.G)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := graphgen.SingleReference(c.m.G)
		if err != nil {
			t.Fatal(err)
		}
		if d := graphgen.DiffReference(sh, ref); d != "" {
			t.Errorf("%s single: %s", c.name, d)
		}
	}
}

// TestGenerateAllocsConstant: Generate allocates the same number of objects
// whatever the graph's size — the 90-node mlp-2-256 and the 9 967-node
// rnn-10-8192, both 8-way.
func TestGenerateAllocsConstant(t *testing.T) {
	allocs := func(c models.Config) float64 {
		m, err := models.Build(c)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := core.Partition(m.G, 8, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := graphgen.Generate(m.G, sum.Plan, graphgen.DefaultOptions()); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := allocs(models.Config{Family: "mlp", Depth: 2, Width: 256, Batch: 64})
	large := allocs(models.Config{Family: "rnn", Depth: 10, Width: 8192, Batch: 128})
	if small != large || large > 6 {
		t.Errorf("Generate allocates %v objects on mlp-2-256 and %v on rnn-10-8192, want the same, at most 6", small, large)
	}
}
