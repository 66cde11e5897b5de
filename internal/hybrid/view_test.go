package hybrid

import (
	"testing"

	"tofu/internal/dp"
	"tofu/internal/models"
	"tofu/internal/recursive"
	"tofu/internal/topo"
)

// TestSegmentViewSearchPinned: the four cold-hybrid requests, whose every
// segment is a view of the root coarsening, report the search effort pinned
// below — the values the searches reported while the intervals that regroup
// on extraction were still coarsened afresh, so the views cost no effort —
// and prepare the pinned number of segment-memo keys, walking the levels as
// PartitionCoarse does to the same winner. Their plan bytes are pinned by
// TestColdPlansPinned (internal/service).
func TestSegmentViewSearchPinned(t *testing.T) {
	cases := []struct {
		prof  string
		cfg   models.Config
		stats Stats
		fills int
	}{ // bench/workloads/cold-hybrid.json
		{"cluster-2x4x2x12", models.Config{Family: "mlp", Depth: 4, Width: 384, Batch: 48},
			Stats{Level: 2, Stages: 8, BoundarySets: 3446, Leaves: 2, Expanded: 43, Pruned: 146, Segments: 34, DPSolves: 68,
				Replays: 374, FlatDPSolves: 109992, LBQueries: 827, BestCost: 0.0005747799771428571}, 78},
		{"cluster-4x2x8", models.Config{Family: "mlp", Depth: 8, Width: 256, Batch: 64},
			Stats{Level: 1, Stages: 8, BoundarySets: 660400, Leaves: 3, Expanded: 151, Pruned: 1254, Segments: 82, DPSolves: 82,
				Replays: 164, FlatDPSolves: 15828800, LBQueries: 2539, BestCost: 0.00036158707809523803}, 312},
		{"cluster-4x2x8", models.Config{Family: "rnn", Depth: 2, Width: 1024, Batch: 64},
			Stats{Level: 2, Stages: 4, BoundarySets: 348128, Leaves: 2, Expanded: 10, Pruned: 65, Segments: 27, DPSolves: 27,
				Replays: 60, FlatDPSolves: 8338880, LBQueries: 146, BestCost: 0.023949741104761904}, 28},
		{"cluster-2x8", models.Config{Family: "transformer", Depth: 2, Width: 1024, Batch: 64},
			Stats{Level: 1, Stages: 2, BoundarySets: 41, Leaves: 1, Expanded: 1, Pruned: 40, Segments: 8, DPSolves: 8,
				Replays: 16, FlatDPSolves: 246, LBQueries: 89, BestCost: 0.043215093759999997}, 8},
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
		var stats Stats
		if _, err := PartitionCoarse(co, int64(tp.NumGPUs()), Options{Topology: &tp, Parallelism: 1, Stats: &stats}); err != nil {
			t.Fatalf("%s %s: %v", c.prof, c.cfg, err)
		}
		if stats != c.stats {
			t.Errorf("%s %s: stats %+v, pinned %+v", c.prof, c.cfg, stats, c.stats)
		}
		// The same search level by level, as PartitionCoarse walks it,
		// counting the keys it prepares.
		s := newSearch(co, tp, Options{Topology: &tp, Parallelism: 1}, dp.NewPriceCache())
		var best *levelState
		fills := 0
		for level := 1; level < len(tp.Levels); level++ {
			ls, err := s.newLevelState(level)
			if err != nil {
				continue // more stages than groups
			}
			prepare := ls.prepare
			ls.prepare = func(key []byte, lo, hi int) ([]byte, stageProblem, error) {
				fills++
				return prepare(key, lo, hi)
			}
			best = ls.contend(best)
		}
		if best == nil || best.level != stats.Level || best.bestCost != stats.BestCost {
			t.Fatalf("%s %s: the level-by-level walk found another winner than PartitionCoarse", c.prof, c.cfg)
		}
		if fills != c.fills {
			t.Errorf("%s %s: %d segment-memo keys prepared, pinned %d", c.prof, c.cfg, fills, c.fills)
		}
	}
}
