package recursive

import (
	"bytes"
	"fmt"
	"testing"

	"tofu/internal/coarsen"
	"tofu/internal/models"
	"tofu/internal/plan"
	"tofu/internal/topo"
)

// segmentModels are small instances of the four benchmark families — the
// graphs whose contiguous group intervals the pipeline search partitions.
var segmentModels = []models.Config{
	{Family: "mlp", Depth: 4, Width: 64, Batch: 16},
	{Family: "rnn", Depth: 2, Width: 64, Batch: 16},
	{Family: "transformer", Depth: 1, Width: 64, Batch: 8},
	{Family: "wresnet", Depth: 50, Width: 1, Batch: 4},
}

// stageMachines are a flat and a hierarchical 4-GPU stage sub-machine.
func stageMachines() []topo.Topology {
	hw := topo.DefaultHW()
	hw.NumGPUs = 4
	flat := topo.FlatTopology(hw)
	hw.P2PBandwidth = 80e9
	return []topo.Topology{flat, {
		Name: "2x2",
		HW:   hw,
		Levels: []topo.Level{
			{Name: "nvlink", GroupSize: 2, Bandwidth: 80e9},
			{Name: "pcie", GroupSize: 2, Bandwidth: 21e9},
		},
	}}
}

func jsonOf(t *testing.T, p *plan.Plan) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSearchMaterializeMatchesPartition: on the segments the pipeline search
// partitions — contiguous group intervals of each family, segment views of
// the root coarsening — and on flat and hierarchical stage machines, the plan
// Search returns is cost-only, and Materialize, which knows nothing of the
// search but the plan, completes it into exactly what PartitionCoarse builds
// from the evaluators its solves left behind: the same JSON bytes and the
// same FinalShapes, at every pool size and on the exhaustive ordering engine.
// An infeasible segment fails both ways with the same text.
func TestSearchMaterializeMatchesPartition(t *testing.T) {
	for _, cfg := range segmentModels {
		m, err := models.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		root, err := coarsen.Coarsen(m.G)
		if err != nil {
			t.Fatal(err)
		}
		L := len(root.Groups)
		var sc coarsen.SegmentScratch
		stride := max(1, L/5) // a grid of intervals that keeps the whole graph
		feasible, tried := 0, 0
		for lo := 0; lo < L; lo += stride {
			for hi := L; hi > lo; hi -= stride {
				co, err := root.Segment(lo, hi, &sc)
				if err != nil {
					t.Fatal(err)
				}
				for _, tp := range stageMachines() {
					variants := []Options{{Parallelism: 1}, {Parallelism: 2}, {Parallelism: 8}}
					if tp.Hierarchical() {
						variants = append(variants, Options{Parallelism: 1, TopoExhaustive: true})
					}
					for _, opts := range variants {
						opts.Topology = &tp
						name := fmt.Sprintf("%s groups [%d,%d) on %s parallelism %d exhaustive %v",
							cfg.Family, lo, hi, tp.Name, opts.Parallelism, opts.TopoExhaustive)
						tried++
						want, werr := PartitionCoarse(co, 4, opts)
						got, gerr := Search(co, 4, opts)
						if werr != nil || gerr != nil {
							if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
								t.Fatalf("%s: Search fails with %v, PartitionCoarse with %v", name, gerr, werr)
							}
							continue
						}
						feasible++
						if got.FinalShapes != nil {
							t.Fatalf("%s: Search built a shape table", name)
						}
						for i, st := range got.Steps {
							if st.TensorCut != nil || st.OpStrategy != nil || st.OpComm != nil {
								t.Fatalf("%s: Search filled step %d's dense tables", name, i+1)
							}
							if st.VarCut == nil {
								t.Fatalf("%s: step %d carries no VarCut", name, i+1)
							}
						}
						if err := Materialize(co, got, opts); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if !bytes.Equal(jsonOf(t, got), jsonOf(t, want)) {
							t.Fatalf("%s: Search + Materialize plan differs from PartitionCoarse's", name)
						}
						if got.Degraded != want.Degraded || len(got.FinalShapes) != len(want.FinalShapes) {
							t.Fatalf("%s: degraded %v, %d final shapes; want %v, %d", name,
								got.Degraded, len(got.FinalShapes), want.Degraded, len(want.FinalShapes))
						}
						for tid, s := range want.FinalShapes {
							if !got.FinalShapes[tid].Equal(s) {
								t.Fatalf("%s: tensor %d ends at %v, want %v", name, tid, got.FinalShapes[tid], s)
							}
						}
					}
				}
			}
		}
		if feasible == 0 {
			t.Errorf("%s: no interval was feasible on any machine", cfg.Family)
		}
		t.Logf("%s: %d of %d searches feasible", cfg.Family, feasible, tried)
	}
}

// TestDivideShapesCheckReportsWhatDividingWould: the clone-free check a
// complete ordering makes of its last division fails exactly when dividing
// in place would, with the same text — the lowest failing tensor ID's.
func TestDivideShapesCheckReportsWhatDividingWould(t *testing.T) {
	m, err := models.Build(segmentModels[0])
	if err != nil {
		t.Fatal(err)
	}
	c, err := coarsen.Coarsen(m.G)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Search(c, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cut := p.Steps[0].VarCut
	if err := divideShapes(c, cloneShapes(c, nil), cut, 2, false); err != nil {
		t.Fatalf("checking the step's own division: %v", err)
	}
	// Make two cut tensors indivisible along their cut.
	var bad []int
	dimOf := make(map[int]int) // bad tensor -> its cut dimension
	shapes := cloneShapes(c, nil)
	for _, v := range c.Vars {
		dim, ok := cut[v.ID]
		if !ok {
			continue
		}
		for _, tn := range v.Tensors {
			if len(bad) < 2 {
				shapes[tn.ID][dim] = 7
				bad = append(bad, tn.ID)
				dimOf[tn.ID] = dim
			}
		}
	}
	if len(bad) != 2 {
		t.Fatalf("found %d cut tensors", len(bad))
	}
	lowest := min(bad[0], bad[1])
	checked := divideShapes(c, shapes, cut, 2, false)
	if checked == nil {
		t.Fatal("the check accepted an indivisible shape")
	}
	for _, tid := range bad {
		if shapes[tid][dimOf[tid]] != 7 {
			t.Fatal("the check divided a shape")
		}
	}
	divided := divideShapes(c, shapes, cut, 2, true)
	if divided == nil || divided.Error() != checked.Error() {
		t.Fatalf("check reports %q, dividing reports %q", checked, divided)
	}
	want := fmt.Sprintf("recursive: splitting tensor %d: shape: dim %d extent 7 not divisible by 2",
		lowest, dimOf[lowest])
	if checked.Error() != want {
		t.Fatalf("check reports %q, want %q", checked, want)
	}
}
