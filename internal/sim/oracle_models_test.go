package sim_test

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"tofu/internal/core"
	"tofu/internal/graphgen"
	"tofu/internal/memplan"
	"tofu/internal/models"
	"tofu/internal/obs"
	"tofu/internal/service"
	"tofu/internal/sim"
	"tofu/internal/topo"
)

// coldCase is one of the repository benchmark's twelve cold requests
// (bench/workloads/cold-*.json), searched as the cold op searches it.
type coldCase struct {
	name string
	m    *models.Model
	opts core.Options
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
			out = append(out, coldCase{w + " " + nr.Model.String(), m, opts, sum})
		}
	}
	return out, nil
}

// execution is one sharded execution on the machine it runs on.
type execution struct {
	sh *graphgen.Sharded
	tp topo.Topology
}

// executions lists a case's searched executions (every pipeline stage's on
// its sub-machine, when pipelined) and its unpartitioned graph on one GPU.
func executions(tb testing.TB, c coldCase) []execution {
	var out []execution
	if c.sum.Hybrid == nil {
		tp := topo.DefaultTopology()
		if c.opts.Topology != nil {
			tp = *c.opts.Topology
		}
		out = append(out, execution{c.sum.Sharded, tp})
	} else {
		for _, stg := range c.sum.Hybrid.Stages {
			out = append(out, execution{stg.Sharded, stg.Topo})
		}
	}
	single, err := graphgen.Single(c.m.G)
	if err != nil {
		tb.Fatal(err)
	}
	return append(out, execution{single, topo.DefaultTopology()})
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// diffResult names the first field in which two results differ, floats by
// their bits ("" when none does).
func diffResult(a, b sim.Result) string {
	switch {
	case !sameBits(a.IterSeconds, b.IterSeconds):
		return "IterSeconds"
	case !sameBits(a.ComputeSeconds, b.ComputeSeconds):
		return "ComputeSeconds"
	case !sameBits(a.CommSeconds, b.CommSeconds):
		return "CommSeconds"
	case !sameBits(a.Throughput, b.Throughput):
		return "Throughput"
	case a.Mem != b.Mem || a.OOM != b.OOM:
		return "Mem/OOM"
	}
	return ""
}

// diffEvents names the first event at which two timelines differ.
func diffEvents(a, b []obs.Event) string {
	if len(a) != len(b) {
		return "event count"
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Lane != y.Lane || x.Name != y.Name || x.Kind != y.Kind || x.Bytes != y.Bytes || x.Level != y.Level ||
			!sameBits(x.Start, y.Start) || !sameBits(x.Dur, y.Dur) {
			return "event " + x.Lane + " " + x.Name
		}
	}
	return ""
}

// TestRunMatchesOracle holds Run to the map-keyed version it replaced, every
// Result field to the bit, on every execution of the twelve cold cases with
// communication on and off and with replicas, and a traced run event for
// event.
func TestRunMatchesOracle(t *testing.T) {
	variants := []sim.RunOptions{{}, {DisableComm: true}, {Replicas: 8}}
	mem := memplan.DefaultOptions()
	for _, c := range coldCases(t) {
		batch := c.m.Batch
		for i, e := range executions(t, c) {
			for _, ro := range variants {
				got, want := sim.Run(e.sh, e.tp, batch, memplan.Plan(e.sh, mem), ro), sim.RunReference(e.sh, e.tp, batch, mem, ro)
				if d := diffResult(got, want); d != "" {
					t.Errorf("%s execution %d %+v: %s differs: %+v vs %+v", c.name, i, ro, d, got, want)
				}
			}
			tl, ref := obs.NewTimeline(), obs.NewTimeline()
			got := sim.Run(e.sh, e.tp, batch, memplan.Plan(e.sh, mem), sim.RunOptions{Timeline: tl})
			want := sim.RunReference(e.sh, e.tp, batch, mem, sim.RunOptions{Timeline: ref})
			if d := diffResult(got, want); d != "" {
				t.Errorf("%s execution %d traced: %s differs", c.name, i, d)
			}
			if d := diffEvents(tl.Events(), ref.Events()); d != "" {
				t.Errorf("%s execution %d: timeline differs at %s", c.name, i, d)
			}
		}
	}
}

// TestSimRunAllocsConstant: an untraced Run allocates the same number of
// objects whatever the graph's size — one ready-time table; the memory plan
// is its caller's.
func TestSimRunAllocsConstant(t *testing.T) {
	allocs := func(c models.Config) float64 {
		m, err := models.Build(c)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := core.Partition(m.G, 8, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		tp := topo.DefaultTopology()
		return testing.AllocsPerRun(5, func() {
			sim.Run(sum.Sharded, tp, c.Batch, sum.Memory, sim.RunOptions{})
		})
	}
	small := allocs(models.Config{Family: "mlp", Depth: 2, Width: 256, Batch: 64})
	large := allocs(models.Config{Family: "rnn", Depth: 10, Width: 8192, Batch: 128})
	if small != large || large > 1 {
		t.Errorf("Run allocates %v objects on mlp-2-256 and %v on rnn-10-8192, want the same, at most 1", small, large)
	}
}
