package dp

import (
	"testing"

	"tofu/internal/models"
)

// BenchmarkSolveSweep times the part of Solve that repeats at every recursive
// step, ordering-tree node and pipeline segment: group-plan build, group-cost
// tables and the frontier sweep. Pricing and the per-slot tables are warm
// (EvalReuse and PriceCache filled by one untimed Solve) and the pool is
// serial, so ns/config is the kernel's own cost per (state × combination).
func BenchmarkSolveSweep(b *testing.B) {
	for _, cfg := range []models.Config{
		{Family: "transformer", Depth: 4, Width: 1024, Batch: 16},
		{Family: "wresnet", Depth: 152, Width: 10, Batch: 8},
		{Family: "mlp", Depth: 4, Width: 384, Batch: 48},
	} {
		b.Run(cfg.String(), func(b *testing.B) {
			m, err := models.Build(cfg)
			if err != nil {
				b.Fatal(err)
			}
			p := problemFor(b, m, 2)
			p.Parallelism = 1
			p.Cache = NewPriceCache()
			p.Reuse = &EvalReuse{}
			res, err := Solve(p)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Solve(p); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(res.Configs), "ns/config")
			b.ReportMetric(float64(res.Configs), "configs/op")
		})
	}
}

// BenchmarkSolveWarm times one Solve whose slot tables are already filled,
// three ways: carried by EvalReuse (no lookups at all), found in the
// PriceCache table memo (one key build and two map lookups per slot), and
// refilled from the cached pricings (a table memo with no budget: what
// every warm Solve without EvalReuse cost before the memo). The gap between the first two is
// what EvalReuse still buys.
func BenchmarkSolveWarm(b *testing.B) {
	for _, cfg := range []models.Config{
		{Family: "wresnet", Depth: 152, Width: 10, Batch: 8},
		{Family: "rnn", Depth: 2, Width: 1024, Batch: 64},
		{Family: "mlp", Depth: 4, Width: 384, Batch: 48},
	} {
		m, err := models.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		p := problemFor(b, m, 2)
		p.Parallelism = 1
		p.Cache = NewPriceCache()
		run := func(name string, prep func()) {
			b.Run(cfg.String()+"/"+name, func(b *testing.B) {
				prep()
				if _, err := Solve(p); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := Solve(p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		run("reuse", func() { p.Reuse = &EvalReuse{} })
		run("memo", func() { p.Reuse = nil })
		run("refill", func() {
			p.Reuse, p.Cache = nil, NewPriceCache()
			p.Cache.tableBudget = 0
		})
	}
}
