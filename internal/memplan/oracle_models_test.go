package memplan_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"tofu/internal/core"
	"tofu/internal/graphgen"
	"tofu/internal/memplan"
	"tofu/internal/models"
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
	if len(coldCache) != 12 {
		tb.Fatalf("%d cold cases, want 12", len(coldCache))
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

// shardeds lists the executions of a case the planner sweeps: the whole
// graph's under the searched plan (under every pipeline stage's plan, when
// pipelined) with MultiFetch on and off, and the unpartitioned graph's. A
// stage's own execution, a subset of the nodes, is held to its extraction's
// by the hybrid package's TestStageExecutionMatchesExtraction.
func shardeds(tb testing.TB, c coldCase) []*graphgen.Sharded {
	noMultiFetch := graphgen.DefaultOptions()
	noMultiFetch.MultiFetch = false
	var out []*graphgen.Sharded
	gen := func(sh *graphgen.Sharded, err error) {
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, sh)
	}
	if c.sum.Hybrid == nil {
		gen(graphgen.Generate(c.m.G, c.sum.Plan, graphgen.DefaultOptions()))
		gen(graphgen.Generate(c.m.G, c.sum.Plan, noMultiFetch))
	} else {
		for _, stg := range c.sum.Hybrid.Stages {
			gen(graphgen.Generate(stg.G, stg.Plan, graphgen.DefaultOptions()))
			gen(graphgen.Generate(stg.G, stg.Plan, noMultiFetch))
		}
	}
	gen(graphgen.Single(c.m.G))
	return out
}

// TestMemplanMatchesOracle holds Plan and AliasRoots to the map-keyed
// versions they replaced on every execution of the twelve cold cases, under
// each planner ablation toggle.
func TestMemplanMatchesOracle(t *testing.T) {
	variants := []memplan.Options{
		memplan.DefaultOptions(),
		{Reuse: false, InPlaceAggregation: true},
		{Reuse: true, InPlaceAggregation: false},
		{Reuse: true, InPlaceAggregation: true, WorkspacePerOp: 1 << 20},
	}
	for _, c := range coldCases(t) {
		for i, sh := range shardeds(t, c) {
			for _, opt := range variants {
				if got, want := memplan.Plan(sh, opt), memplan.PlanReference(sh, opt); got != want {
					t.Errorf("%s execution %d %+v: report %+v, reference %+v", c.name, i, opt, got, want)
				}
			}
			for _, agg := range []bool{true, false} {
				roots, ref := memplan.AliasRoots(sh, agg), memplan.AliasRootsReference(sh.G, agg)
				if len(roots) != len(ref) {
					t.Fatalf("%s execution %d: %d roots, reference %d", c.name, i, len(roots), len(ref))
				}
				for id, r := range roots {
					if ref[id] != r {
						t.Errorf("%s execution %d: tensor %d root %d, reference %d", c.name, i, id, r, ref[id])
						break
					}
				}
			}
		}
	}
}

// TestMemplanAllocsConstant: a memory plan allocates the same number of
// objects whatever the graph's size.
func TestMemplanAllocsConstant(t *testing.T) {
	allocs := func(c models.Config) float64 {
		m, err := models.Build(c)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := core.Partition(m.G, 8, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() { memplan.Plan(sum.Sharded, memplan.DefaultOptions()) })
	}
	small := allocs(models.Config{Family: "mlp", Depth: 2, Width: 256, Batch: 64})
	large := allocs(models.Config{Family: "rnn", Depth: 10, Width: 8192, Batch: 128})
	if small != large || large > 3 {
		t.Errorf("Plan allocates %v objects on mlp-2-256 and %v on rnn-10-8192, want the same, at most 3", small, large)
	}
}
