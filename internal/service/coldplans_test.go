package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"tofu/internal/coarsen"
	"tofu/internal/core"
	"tofu/internal/graph"
	"tofu/internal/models"
	"tofu/internal/plan"
	"tofu/internal/shape"
)

// coldPlans pins the plan JSON of the repository benchmark's twelve cold
// cases (bench/workloads/cold-*.json) by sha256 — the list EXPERIMENTS.md has
// carried unchanged since PR 12. Search-speed work must keep every byte.
var coldPlans = []struct{ request, sha256 string }{
	{`{"model":{"family":"wresnet","depth":50,"width":4,"batch":32}}`,
		"c192214581df687ae6104a00376d970f97aa793d4bd74689211d0146172cc56a"},
	{`{"model":{"family":"wresnet","depth":152,"width":10,"batch":8}}`,
		"bb0bf6e846a64129d55a4a09e1ab9c1f7029a99ed900c61b4bd26043097f8dfd"},
	{`{"model":{"family":"rnn","depth":10,"width":8192,"batch":128}}`,
		"d18c9f0c959a5cbd481dc4f5c98d6a3bbc72bbee70013893d2ec882bf88c6965"},
	{`{"model":{"family":"transformer","depth":4,"width":1024,"batch":16}}`,
		"14a77c4b450838fcacf55adafe7ad13501db44dedbcb81cad0b4571a1b6de7d6"},
	{`{"model":{"family":"rnn","depth":2,"width":8192,"batch":256},"hw":"cluster-8x2x8"}`,
		"de4a646d28805a03a8eab55f66190b59c06d74a6e7a37864263705700beebb3f"},
	{`{"model":{"family":"transformer","depth":2,"width":1536,"batch":24},"hw":"cluster-2x4x2x12"}`,
		"3fa2106f2d917b4213d3048a4f239f59dc0519af6bab9a833effdd080c96e305"},
	{`{"model":{"family":"transformer","depth":2,"width":1024,"batch":64},"hw":"cluster-4x2x8"}`,
		"d3a7fe5641a3fe3335872f3fa4f04d213ca9cb42b792b01f587f36fe1d0a849d"},
	{`{"model":{"family":"mlp","depth":3,"width":3072,"batch":48},"hw":"cluster-2x8x2x8"}`,
		"0108016645574464d1d667efa67cb712a168b140c82d8971cb3976657fae9639"},
	{`{"model":{"family":"mlp","depth":4,"width":384,"batch":48},"hw":"cluster-2x4x2x12","pipeline":{}}`,
		"60c5514ee6a01e712ab647f9f78d85f2c3570fe4d96bbd4ab436cbd15c298339"},
	{`{"model":{"family":"mlp","depth":8,"width":256,"batch":64},"hw":"cluster-4x2x8","pipeline":{}}`,
		"4aed1f0b11cecf8dfa17395575655f82bbb3673a8f6f477c8b94d4de7e957ee2"},
	{`{"model":{"family":"rnn","depth":2,"width":1024,"batch":64},"hw":"cluster-4x2x8","pipeline":{}}`,
		"a2f71d971d1fe2f8bdf30b6772e8abb3301fb8b4f33160ad6c5aecfbe1e3c11d"},
	{`{"model":{"family":"transformer","depth":2,"width":1024,"batch":64},"hw":"cluster-2x8","pipeline":{}}`,
		"54f278dde10a3ff14bbf2843219660b117f9f06eaec03d389139a35f3002f701"},
}

// TestColdPlansPinned plans the twelve cold cases at search parallelism 1, 2
// and 8 (1 only under -short) and checks each plan's sha256.
func TestColdPlansPinned(t *testing.T) {
	pars := []int{1, 2, 8}
	if testing.Short() {
		pars = pars[:1]
	}
	for _, c := range coldPlans {
		nr, err := ParseRequest([]byte(c.request))
		if err != nil {
			t.Fatal(err)
		}
		digest, err := nr.digestNormalized()
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range pars {
			val, err := compute(nr, digest, par, nil, nil)
			if err != nil {
				t.Fatalf("%s: %v", c.request, err)
			}
			sum := sha256.Sum256(val)
			if got := hex.EncodeToString(sum[:]); got != c.sha256 {
				t.Errorf("%s at parallelism %d: plan sha256 %s, pinned %s", c.request, par, got, c.sha256)
			}
		}
	}
}

// TestFinalShapesMatchTensorDivision: the search keeps one shape per
// coarsened variable and expands it to the members only for the finished
// plan. On the twelve cold cases, and on every stage of the pipelined ones,
// each tensor's FinalShapes entry equals its original shape divided by every
// step's TensorCut, tensor by tensor (the oracle below knows nothing of
// variables), and the members of every variable of the graph's own
// coarsening share one shape after every step — the property the
// per-variable table rests on.
func TestFinalShapesMatchTensorDivision(t *testing.T) {
	for _, c := range coldPlans {
		nr, err := ParseRequest([]byte(c.request))
		if err != nil {
			t.Fatal(err)
		}
		m, err := models.Build(nr.Model)
		if err != nil {
			t.Fatal(err)
		}
		opts := nr.PipelineOptions()
		opts.Search.Parallelism = 1
		sum, err := core.Partition(m.G, nr.Workers, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.request, err)
		}
		if sum.Hybrid == nil {
			checkFinalShapes(t, c.request, m.G, sum.Plan)
			continue
		}
		for si, stg := range sum.Hybrid.Stages {
			checkFinalShapes(t, fmt.Sprintf("%s stage %d", c.request, si), stg.G, stg.Plan)
		}
	}
}

// checkFinalShapes holds p.FinalShapes to the per-tensor division of g's
// tensors by p's steps, and checks that the members of each of g's
// coarsened variables share a shape after every step.
func checkFinalShapes(t *testing.T, name string, g *graph.Graph, p *plan.Plan) {
	t.Helper()
	co, err := coarsen.Coarsen(g)
	if err != nil {
		t.Fatal(err)
	}
	cur := make([]shape.Shape, len(g.Tensors))
	for i, tn := range g.Tensors {
		cur[i] = tn.Shape.Clone()
	}
	for si, st := range p.Steps {
		for i := range cur {
			if d := st.TensorCut[i]; d >= 0 {
				if cur[i], err = cur[i].Split(d, st.K); err != nil {
					t.Fatalf("%s: step %d: tensor %d: %v", name, si+1, i, err)
				}
			}
		}
		for _, v := range co.Vars {
			for _, tn := range v.Tensors[1:] {
				if !cur[tn.ID].Equal(cur[v.Tensors[0].ID]) {
					t.Fatalf("%s: after step %d, tensor %d is %v but its variable's first member %d is %v",
						name, si+1, tn.ID, cur[tn.ID], v.Tensors[0].ID, cur[v.Tensors[0].ID])
				}
			}
		}
	}
	if len(p.FinalShapes) != len(g.Tensors) {
		t.Fatalf("%s: %d final shapes for %d tensors", name, len(p.FinalShapes), len(g.Tensors))
	}
	for i, want := range cur {
		if got, ok := p.FinalShapes[i]; !ok || !got.Equal(want) {
			t.Fatalf("%s: tensor %d ends at %v, dividing it step by step gives %v", name, i, got, want)
		}
	}
}
