package coarsen

import (
	"bytes"
	"slices"
	"testing"

	"tofu/internal/models"
)

// frameSegment coarsens c's groups [lo, hi) the fallback way, over a frame
// of their operators, into storage of its own.
func frameSegment(c *Coarse, lo, hi int, sc *SegmentScratch) (*Coarse, error) {
	fr := sc.load(c, lo, hi)
	seg, err := coarsen(c.G, c.facts, fr, &slabs{})
	sc.clear(c.facts, fr)
	return seg, err
}

// keepsGrouping reports whether seg, a coarsening of root's groups [lo, hi),
// has exactly those groups with exactly their slots.
func keepsGrouping(root, seg *Coarse, lo, hi int) bool {
	if len(seg.Groups) != hi-lo {
		return false
	}
	for i, g := range seg.Groups {
		if !slices.EqualFunc(g.Slots, root.Groups[lo+i].Slots, func(s, r *Slot) bool { return slices.Equal(s.Ops, r.Ops) }) {
			return false
		}
	}
	return true
}

// TestSegmentViewMatchesFallback: for every interval of the four cold-hybrid
// models at their benchmark sizes and of the graphs built to tell a segment
// from the whole graph (segmentEdges), and for a grid of WResNet-50
// intervals, Segment returns what coarsening the interval's frame returns —
// the same variables, groups, slots and lists, and the same structural key
// bytes — whichever path served it. The view serves an interval exactly when
// the frame keeps the root's groups and slots: the fallback rule neither
// lets a regrouped interval through nor sends a kept one to the frame. The
// view serves intervals of every model but the RNN only partly, and a warm
// transient view allocates nothing.
func TestSegmentViewMatchesFallback(t *testing.T) {
	type testGraph struct {
		namedGraph
		// model marks a benchmark model; unrolled, one with unrolled cells.
		model, unrolled bool
	}
	var graphs []testGraph
	for _, ng := range segmentEdges() {
		graphs = append(graphs, testGraph{namedGraph: ng})
	}
	for _, cfg := range []models.Config{ // bench/workloads/cold-hybrid.json
		{Family: "mlp", Depth: 4, Width: 384, Batch: 48},
		{Family: "mlp", Depth: 8, Width: 256, Batch: 64},
		{Family: "rnn", Depth: 2, Width: 1024, Batch: 64},
		{Family: "transformer", Depth: 2, Width: 1024, Batch: 64},
		{Family: "wresnet", Depth: 50, Width: 1, Batch: 4},
	} {
		m, err := models.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, testGraph{namedGraph{cfg.String(), m.G}, true, cfg.Family == "rnn"})
	}
	for _, ng := range graphs {
		root, err := Coarsen(ng.g)
		if err != nil {
			t.Fatal(err)
		}
		L := len(root.Groups)
		stride := max(1, L/24)
		var sc, frame SegmentScratch
		views, fallbacks := 0, 0
		for lo := 0; lo < L; lo += stride {
			for hi := L; hi > lo; hi -= stride {
				want, err := frameSegment(root, lo, hi, &frame)
				if err != nil {
					t.Fatal(err)
				}
				got, err := root.Segment(lo, hi, &sc)
				if err != nil {
					t.Fatal(err)
				}
				if kept := keepsGrouping(root, want, lo, hi); sc.Viewed() != kept {
					t.Fatalf("%s groups [%d,%d): viewed %v, but the frame keeps the root's grouping: %v", ng.name, lo, hi, sc.Viewed(), kept)
				}
				if sc.Viewed() {
					views++
				} else {
					fallbacks++
				}
				if diff := diffCoarse(got, want); diff != "" {
					t.Fatalf("%s groups [%d,%d) (viewed %v): differs from the frame coarsening: %s", ng.name, lo, hi, sc.Viewed(), diff)
				}
				if !bytes.Equal(got.AppendStructKey(nil), want.AppendStructKey(nil)) {
					t.Fatalf("%s groups [%d,%d) (viewed %v): the structural keys differ", ng.name, lo, hi, sc.Viewed())
				}
				transient, err := root.SegmentTransient(lo, hi, &sc)
				if err != nil {
					t.Fatal(err)
				}
				if diff := diffCoarse(transient, want); diff != "" {
					t.Fatalf("%s groups [%d,%d): the transient view differs from the frame coarsening: %s", ng.name, lo, hi, diff)
				}
				if sc.Viewed() && lo%3 == 0 {
					if allocs := testing.AllocsPerRun(3, func() {
						if _, err := root.SegmentTransient(lo, hi, &sc); err != nil {
							t.Fatal(err)
						}
					}); allocs != 0 {
						t.Fatalf("%s groups [%d,%d): a warm transient view costs %v allocations", ng.name, lo, hi, allocs)
					}
				}
			}
		}
		t.Logf("%s: %d intervals viewed, %d coarsened as a frame", ng.name, views, fallbacks)
		if ng.model && views == 0 {
			t.Errorf("%s: the view served no interval", ng.name)
		}
		if ng.model && !ng.unrolled && fallbacks > 0 {
			t.Errorf("%s: %d intervals of a model without unrolled cells took the fallback", ng.name, fallbacks)
		}
		for _, tab := range [][]int32{sc.vvar, sc.vtensor} {
			if slices.ContainsFunc(tab, func(x int32) bool { return x != 0 }) {
				t.Fatalf("%s: a view left its scratch dirty", ng.name)
			}
		}
		if slices.ContainsFunc(sc.parent, func(x int32) bool { return x != -1 }) {
			t.Fatalf("%s: a view left its union-find dirty", ng.name)
		}
	}
}
