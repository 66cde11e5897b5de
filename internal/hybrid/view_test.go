package hybrid

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"tofu/internal/dp"
	"tofu/internal/models"
	"tofu/internal/recursive"
	"tofu/internal/topo"
)

// TestSegmentViewSearchMatchesFallback: the four cold-hybrid requests plan
// the same bytes, report the same Stats, and prepare the same segment-memo
// keys in the same order whether their segments are views of the root
// coarsening or — under the frameSegments seam — frame coarsenings. The
// views serve every segment of the MLPs and the transformer and some of the
// RNN's; the seam leaves none to them.
func TestSegmentViewSearchMatchesFallback(t *testing.T) {
	cases := []struct {
		prof string
		cfg  models.Config
	}{ // bench/workloads/cold-hybrid.json
		{"cluster-2x4x2x12", models.Config{Family: "mlp", Depth: 4, Width: 384, Batch: 48}},
		{"cluster-4x2x8", models.Config{Family: "mlp", Depth: 8, Width: 256, Batch: 64}},
		{"cluster-4x2x8", models.Config{Family: "rnn", Depth: 2, Width: 1024, Batch: 64}},
		{"cluster-2x8", models.Config{Family: "transformer", Depth: 2, Width: 1024, Batch: 64}},
	}
	type outcome struct {
		plan         []byte
		stats        Stats
		keys         []string
		views, fills int
	}
	for _, c := range cases {
		tp, err := topo.Profile(c.prof)
		if err != nil {
			t.Fatal(err)
		}
		m, err := models.Build(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		co, err := recursive.Coarsen(m.G, nil)
		if err != nil {
			t.Fatal(err)
		}
		k := int64(tp.NumGPUs())
		run := func(frame bool) outcome {
			frameSegments = frame
			defer func() { frameSegments = false }()
			var o outcome
			res, err := PartitionCoarse(co, k, Options{Topology: &tp, Parallelism: 1, Stats: &o.stats})
			if err != nil {
				t.Fatalf("%s %s: %v", c.prof, c.cfg, err)
			}
			var buf bytes.Buffer
			if err := res.Plan.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			o.plan = buf.Bytes()
			// The same search level by level, as PartitionCoarse walks it,
			// recording every key it prepares.
			s, err := newSearch(co, tp, Options{Topology: &tp, Parallelism: 1}, dp.NewPriceCache())
			if err != nil {
				t.Fatal(err)
			}
			var best *levelState
			for level := 1; level < len(tp.Levels); level++ {
				ls, err := s.newLevelState(level)
				if err != nil {
					continue // more stages than groups
				}
				prepare := ls.prepare
				ls.prepare = func(key []byte, lo, hi int) ([]byte, stageProblem, error) {
					key, pr, err := prepare(key, lo, hi)
					o.keys = append(o.keys, fmt.Sprintf("level %d groups [%d,%d): %x", level, lo, hi, key))
					o.fills++
					if s.scratch.Viewed() {
						o.views++
					}
					return key, pr, err
				}
				best = ls.contend(best)
			}
			if best == nil || best.level != o.stats.Level || best.bestCost != o.stats.BestCost {
				t.Fatalf("%s %s: the level-by-level walk found another winner than PartitionCoarse", c.prof, c.cfg)
			}
			return o
		}
		view, frame := run(false), run(true)
		t.Logf("%s %s: %d of %d segments viewed", c.prof, c.cfg, view.views, view.fills)
		if !bytes.Equal(view.plan, frame.plan) {
			t.Errorf("%s %s: the plan differs when every segment is a frame coarsening", c.prof, c.cfg)
		}
		if view.stats != frame.stats {
			t.Errorf("%s %s: stats %+v with views, %+v without", c.prof, c.cfg, view.stats, frame.stats)
		}
		if !slices.Equal(view.keys, frame.keys) {
			t.Errorf("%s %s: %d segment-memo keys with views, %d without, or in another order", c.prof, c.cfg, len(view.keys), len(frame.keys))
		}
		if frame.views != 0 {
			t.Errorf("%s %s: %d segments viewed under the frame seam", c.prof, c.cfg, frame.views)
		}
		if view.views == 0 || (c.cfg.Family != "rnn" && view.views != view.fills) {
			t.Errorf("%s %s: %d of %d segments viewed", c.prof, c.cfg, view.views, view.fills)
		}
	}
}
