package dp

import (
	"fmt"
	"testing"

	"tofu/internal/models"
)

// BenchmarkSolveSweep times the part of Solve that repeats at every recursive
// step, ordering-tree node and pipeline segment: group-plan build, group-cost
// tables and the frontier sweep. Pricing and the per-slot tables are warm
// (one untimed Prepare, whose Prepared every timed Solve runs on) and the
// pool is serial. ns/config divides by the exhaustive sweep's (state ×
// combination) pairs, so it stays comparable across the incumbent bound: it
// is the kernel's own cost per pair where the bound does not engage, and the
// bounded solve's cost per pair it stands in for where it does; swept/op is
// the pairs the bounded sweep visited.
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
			pr, err := Prepare(p)
			if err != nil {
				b.Fatal(err)
			}
			p.bound = boundOff
			full, err := pr.Solve()
			if err != nil {
				b.Fatal(err)
			}
			p.bound = boundGated
			res, err := pr.Solve()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pr.Solve(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(full.Configs), "ns/config")
			b.ReportMetric(float64(full.Configs), "configs/op")
			b.ReportMetric(float64(res.Configs), "swept/op")
		})
	}
}

// BenchmarkSolveWarm times one Solve whose slot tables are already filled,
// two ways: found in the PriceCache class memo (one class key and one walk of
// a short chain per slot), and refilled from the cached pricings (a class
// memo with no budget: what every warm Solve cost before a table memo).
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
		run("memo", func() {})
		run("refill", func() {
			p.Cache = NewPriceCache()
			p.Cache.tableBudget = 0
		})
	}
}

// BenchmarkBoundGate is the measurement behind the incumbent bound's gate
// (bound.go): one warm Solve per case with the bound off and forced on,
// whatever the gate says. The chain and residual families sit at a
// pair-to-beam ratio near 1, the transformers near 100.
func BenchmarkBoundGate(b *testing.B) {
	for _, cfg := range []models.Config{
		{Family: "mlp", Depth: 4, Width: 384, Batch: 48},
		{Family: "rnn", Depth: 10, Width: 8192, Batch: 128},
		{Family: "wresnet", Depth: 152, Width: 10, Batch: 8},
		{Family: "transformer", Depth: 1, Width: 64, Batch: 8},
		{Family: "transformer", Depth: 4, Width: 1024, Batch: 16},
	} {
		m, err := models.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		p := problemFor(b, m, 2)
		p.Parallelism = 1
		pr, err := Prepare(p)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []boundMode{boundOff, boundForced} {
			b.Run(fmt.Sprintf("%s/%s", cfg, boundModes[mode]), func(b *testing.B) {
				p.bound = mode
				var res *Result
				for i := 0; i < b.N; i++ {
					if res, err = pr.Solve(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(res.Configs), "configs/op")
			})
		}
	}
}

// BenchmarkPrepare times one Prepare — every slot's evaluator and dense
// table — on a serial pool, two ways: against a fresh PriceCache (cold: the
// pricings, the tables and the class memo all filled here, as in a cold
// search's first step) and against a cache one untimed Prepare filled
// (warm: every slot a class hit).
func BenchmarkPrepare(b *testing.B) {
	for _, cfg := range []models.Config{
		{Family: "wresnet", Depth: 50, Width: 4, Batch: 32},
		{Family: "wresnet", Depth: 152, Width: 10, Batch: 8},
	} {
		m, err := models.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		p := problemFor(b, m, 2)
		p.Parallelism = 1
		for _, warm := range []bool{false, true} {
			name := cfg.String() + "/cold"
			if warm {
				name = cfg.String() + "/warm"
			}
			b.Run(name, func(b *testing.B) {
				p.Cache = NewPriceCache()
				if warm {
					if _, err := Prepare(p); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !warm {
						p.Cache = NewPriceCache()
					}
					if _, err := Prepare(p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
