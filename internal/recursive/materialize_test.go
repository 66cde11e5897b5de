package recursive

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"tofu/internal/coarsen"
	"tofu/internal/dp"
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

// TestSegmentScratchSearchesMatchOwned: segments coarsened one after another
// into one SegmentScratch share the address of their Coarse, so anything a
// search memoizes past its own end could serve the next segment the last
// one's steps. Every window of one to three groups of each family, slid
// along the graph, coarsened into one scratch and searched back to back
// through one price cache, must plan exactly what its owned segment view
// plans, on a flat and a hierarchical stage machine at parallelism 1 and 8.
// Windows of one length mostly have as many variables with the same
// alphabets, so a step memo that outlived its search would match.
func TestSegmentScratchSearchesMatchOwned(t *testing.T) {
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
		for _, tp := range stageMachines() {
			for _, par := range []int{1, 8} {
				var scratch, own coarsen.SegmentScratch
				cache := dp.NewPriceCache()
				for w := 1; w <= 3; w++ {
					for lo := 0; lo+w <= L; lo++ {
						iv := [2]int{lo, lo + w}
						name := fmt.Sprintf("%s groups [%d,%d) on %s parallelism %d", cfg.Family, iv[0], iv[1], tp.Name, par)
						plan := func(c *coarsen.Coarse, cache *dp.PriceCache) ([]byte, error) {
							opts := Options{Topology: &tp, Parallelism: par, Cache: cache}
							p, err := Search(c, 4, opts)
							if err != nil {
								return nil, err
							}
							if err := Materialize(c, p, opts); err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							return jsonOf(t, p), nil
						}
						owned, err := root.Segment(iv[0], iv[1], &own)
						if err != nil {
							t.Fatal(err)
						}
						want, werr := plan(owned, nil)
						transient, err := root.SegmentTransient(iv[0], iv[1], &scratch)
						if err != nil {
							t.Fatal(err)
						}
						got, gerr := plan(transient, cache)
						if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
							t.Fatalf("%s: the scratch-backed segment fails with %v, the owned one with %v", name, gerr, werr)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("%s: searched after another segment in one scratch, it plans differently from its owned view", name)
						}
					}
				}
			}
		}
	}
}

// TestDivideShapesCheckReportsWhatDividingWould: the clone-free check a
// complete ordering makes of its last division fails exactly when dividing
// in place would, with the same text — the one a division of every member
// tensor in ID order meets first, which names the lowest member tensor ID of
// the indivisible variables. The shape table has one entry per variable, so
// the test makes two cut variables indivisible. It runs on a segment view,
// which lists a variable's members at first sight rather than by ID: in the
// whole-graph view of this MLP, the loss gradient's variable lists the
// softmax output ahead of the lower-numbered labels. One of the two
// variables is such a one, and the other's members all lie above its lowest,
// so the reported ID is that variable's lowest member and not its first.
func TestDivideShapesCheckReportsWhatDividingWould(t *testing.T) {
	m, err := models.Build(segmentModels[0])
	if err != nil {
		t.Fatal(err)
	}
	root, err := coarsen.Coarsen(m.G)
	if err != nil {
		t.Fatal(err)
	}
	var sc coarsen.SegmentScratch
	c, err := root.Segment(0, len(root.Groups), &sc)
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
	lowestOf := func(v *coarsen.Var) int {
		id := v.Tensors[0].ID
		for _, tn := range v.Tensors {
			id = min(id, tn.ID)
		}
		return id
	}
	var unsorted, above *coarsen.Var
	for _, v := range c.Vars {
		if _, ok := cut[v.ID]; ok && unsorted == nil && lowestOf(v) < v.Tensors[0].ID {
			unsorted = v
		}
	}
	if unsorted == nil {
		t.Fatal("no cut variable lists a member below its first")
	}
	for _, v := range c.Vars {
		if _, ok := cut[v.ID]; ok && v != unsorted && lowestOf(v) > lowestOf(unsorted) {
			above = v
			break
		}
	}
	if above == nil {
		t.Fatal("no second cut variable above the first")
	}
	shapes := cloneShapes(c, nil)
	for _, v := range []*coarsen.Var{unsorted, above} {
		shapes[v.Tensors[0].ID][cut[v.ID]] = 7
	}
	checked := divideShapes(c, shapes, cut, 2, false)
	if checked == nil {
		t.Fatal("the check accepted an indivisible shape")
	}
	for _, v := range []*coarsen.Var{unsorted, above} {
		if shapes[v.Tensors[0].ID][cut[v.ID]] != 7 {
			t.Fatal("the check divided a shape")
		}
	}
	divided := divideShapes(c, shapes, cut, 2, true)
	if divided == nil || divided.Error() != checked.Error() {
		t.Fatalf("check reports %q, dividing reports %q", checked, divided)
	}
	want := fmt.Sprintf("recursive: splitting tensor %d: shape: dim %d extent 7 not divisible by 2",
		lowestOf(unsorted), cut[unsorted.ID])
	if checked.Error() != want {
		t.Fatalf("check reports %q, want %q", checked, want)
	}
}

// TestCloneShapesAllocatesPerVariable: the search's shape table holds one
// shape per coarsened variable, not one per tensor. rnn-2-8192@256 coarsens
// its 2 022 tensors into 19 variables; a clone of its table allocates for 19
// entries (a per-tensor table allocated over 100 KB).
func TestCloneShapesAllocatesPerVariable(t *testing.T) {
	m, err := models.Build(models.Config{Family: "rnn", Depth: 2, Width: 8192, Batch: 256})
	if err != nil {
		t.Fatal(err)
	}
	c, err := coarsen.Coarsen(m.G)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Vars) != 19 || len(m.G.Tensors) != 2022 {
		t.Fatalf("%d variables over %d tensors, want 19 over 2022", len(c.Vars), len(m.G.Tensors))
	}
	root := cloneShapes(c, nil)
	if len(root) != len(c.Vars) {
		t.Fatalf("table has %d entries for %d variables", len(root), len(c.Vars))
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		cloneShapes(c, root)
	}
	runtime.ReadMemStats(&after)
	perVar := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(len(c.Vars))
	t.Logf("cloneShapes allocates %.0f bytes per variable", perVar)
	if perVar > 256 {
		t.Errorf("cloneShapes allocates %.0f bytes per variable, ceiling 256", perVar)
	}
}
