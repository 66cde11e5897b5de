package hybrid

import (
	"runtime"
	"testing"

	"tofu/internal/dp"
	"tofu/internal/models"
	"tofu/internal/recursive"
	"tofu/internal/topo"
)

// TestAssembleAllocs is assemble's allocation ceiling on the four cold-hybrid
// requests: objects and bytes per call, on the winning level of a finished
// search. A stage executes over the whole graph, so what assemble allocates
// is the stage plans' copies and tables (recursive.Materialize's root-size
// tables per stage step), the executions and the combined plan; a per-stage
// graph copy or ID gather coming back would cost a stage's worth of nodes and
// tensors again and break the ceilings: on the rnn case the extractions and
// gathers alone were 116 objects and 1 366 KB of the 2 598 objects and
// 4 464 KB assemble allocated while each stage was copied out.
func TestAssembleAllocs(t *testing.T) {
	cases := []struct {
		prof    string
		cfg     models.Config
		objects float64
		kb      float64
	}{ // bench/workloads/cold-hybrid.json
		{"cluster-2x4x2x12", models.Config{Family: "mlp", Depth: 4, Width: 384, Batch: 48}, 960, 270},
		{"cluster-4x2x8", models.Config{Family: "mlp", Depth: 8, Width: 256, Batch: 64}, 780, 340},
		{"cluster-4x2x8", models.Config{Family: "rnn", Depth: 2, Width: 1024, Batch: 64}, 520, 3200},
		{"cluster-2x8", models.Config{Family: "transformer", Depth: 2, Width: 1024, Batch: 64}, 215, 290},
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
		// The search level by level, as PartitionCoarse walks it.
		s := newSearch(co, tp, Options{Topology: &tp, Parallelism: 1}, dp.NewPriceCache())
		var best *levelState
		for level := 1; level < len(tp.Levels); level++ {
			if ls, err := s.newLevelState(level); err == nil {
				best = ls.contend(best)
			}
		}
		if best == nil {
			t.Fatalf("%s %s: no level found a pipeline", c.prof, c.cfg)
		}
		assemble := func() {
			if _, err := s.assemble(best); err != nil {
				t.Fatal(err)
			}
		}
		objects := testing.AllocsPerRun(5, assemble) // one warm-up run, then the average of 5
		const runs = 5
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			assemble()
		}
		runtime.ReadMemStats(&after)
		kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
		t.Logf("%s %s: assemble allocates %.0f objects, %.0f KB", c.prof, c.cfg, objects, kb)
		if objects > c.objects || kb > c.kb {
			t.Errorf("%s %s: assemble allocates %.0f objects and %.0f KB, ceilings %.0f and %.0f",
				c.prof, c.cfg, objects, kb, c.objects, c.kb)
		}
	}
}
