package tofu_test

// Benchmark harness regenerating every table and figure of the paper's
// evaluation (EuroSys'19 Sec 7). Each benchmark runs the corresponding
// experiment end to end — model construction, partition search, graph
// generation, memory planning, simulation — and prints the rendered
// artifact once, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. Benchmarks honor -short by trimming the
// sweeps (the cmd/tofu-bench tool runs the full versions too).

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"tofu"
	"tofu/internal/dp"
	"tofu/internal/experiments"
	"tofu/internal/models"
	"tofu/internal/recursive"
	"tofu/internal/topo"
)

var printOnce sync.Map

func runExperiment(b *testing.B, name string, fn func(experiments.Opts) (string, error)) {
	b.Helper()
	opts := experiments.Opts{Quick: testing.Short(), FlatBudget: 10 * time.Second}
	if testing.Short() {
		opts.FlatBudget = 2 * time.Second
	}
	for i := 0; i < b.N; i++ {
		out, err := fn(opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, dup := printOnce.LoadOrStore(name, true); !dup {
			fmt.Printf("\n================ %s ================\n%s\n", name, out)
		}
	}
}

// BenchmarkTable1SearchTime regenerates Table 1: partition search time for
// 8 workers with the coarsened-but-flat DP (measured under budget and
// extrapolated) versus Tofu's recursion.
func BenchmarkTable1SearchTime(b *testing.B) {
	runExperiment(b, "Table 1", func(o experiments.Opts) (string, error) {
		return experiments.Table1(o, topo.DefaultTopology())
	})
}

// BenchmarkTable2WeightSizes regenerates Table 2: total weight tensor sizes
// of every benchmark model, next to the paper's numbers.
func BenchmarkTable2WeightSizes(b *testing.B) {
	runExperiment(b, "Table 2", experiments.Table2)
}

// BenchmarkTable3RNNComparison regenerates Table 3: Tofu vs MXNet operator
// placement vs TensorFlow operator placement on RNNs with hidden size 4096.
func BenchmarkTable3RNNComparison(b *testing.B) {
	runExperiment(b, "Table 3", func(o experiments.Opts) (string, error) {
		return experiments.Table3(o, topo.DefaultTopology())
	})
}

// BenchmarkFigure8WResNet regenerates Figure 8: WResNet training throughput
// for Ideal/SmallBatch/Swap/Tofu, normalized to ideal, with OOM markers.
func BenchmarkFigure8WResNet(b *testing.B) {
	runExperiment(b, "Figure 8", func(o experiments.Opts) (string, error) {
		return experiments.Figure8(o, topo.DefaultTopology())
	})
}

// BenchmarkFigure9RNN regenerates Figure 9: RNN training throughput for
// Ideal/SmallBatch/Swap/Op-Placement/Tofu.
func BenchmarkFigure9RNN(b *testing.B) {
	runExperiment(b, "Figure 9", func(o experiments.Opts) (string, error) {
		return experiments.Figure9(o, topo.DefaultTopology())
	})
}

// BenchmarkFigure10Algorithms regenerates Figure 10: partition-algorithm
// quality (AllRow-Greedy, Spartan, EqualChop, ICML18, Tofu) with the
// communication-overhead breakdown and OOMs.
func BenchmarkFigure10Algorithms(b *testing.B) {
	runExperiment(b, "Figure 10", func(o experiments.Opts) (string, error) {
		return experiments.Figure10(o, topo.DefaultTopology())
	})
}

// BenchmarkFigure11Plan regenerates Figure 11: the partition Tofu finds for
// WResNet-152-10 on 8 GPUs.
func BenchmarkFigure11Plan(b *testing.B) {
	runExperiment(b, "Figure 11", experiments.Figure11)
}

// BenchmarkCrossTopology runs the cross-topology scenario sweep: the same
// models on the flat p2.8xlarge, the NVLink DGX-1 box and the 2x8-node
// cluster, comparing the topology-aware search against EqualChop and the
// hierarchical-naive layout.
func BenchmarkCrossTopology(b *testing.B) {
	runExperiment(b, "Cross-topology", func(o experiments.Opts) (string, error) {
		return experiments.CrossTopology(o, topo.DefaultTopology())
	})
}

// BenchmarkAblations quantifies the Sec 6 design choices (MultiFetch,
// control dependencies, spread reductions, in-place aggregation, output
// reduction).
func BenchmarkAblations(b *testing.B) {
	runExperiment(b, "Ablations", func(o experiments.Opts) (string, error) {
		return experiments.Ablations(o, topo.DefaultTopology())
	})
}

// BenchmarkPartitionSearch measures the raw recursive search on the
// paper-scale models (the numbers behind Table 1's last row).
func BenchmarkPartitionSearch(b *testing.B) {
	cfgs := []models.Config{
		{Family: "wresnet", Depth: 152, Width: 10, Batch: 8},
		{Family: "rnn", Depth: 10, Width: 8192, Batch: 128},
	}
	if testing.Short() {
		cfgs = []models.Config{{Family: "mlp", Depth: 4, Width: 512, Batch: 64}}
	}
	for _, cfg := range cfgs {
		b.Run(cfg.String(), func(b *testing.B) {
			m, err := models.Build(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := recursive.Partition(m.G, 8, recursive.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPartitionSearchParallel measures the worker-pool scaling of the
// partition search: the serial path (par=1) against the default pool
// (par=GOMAXPROCS) on the same paper-scale models. The emitted plan is
// byte-identical across settings (see TestParallelSearchDeterminism); only
// wall-clock changes. Speedup shows up on multi-core machines.
func BenchmarkPartitionSearchParallel(b *testing.B) {
	cfgs := []models.Config{
		{Family: "wresnet", Depth: 152, Width: 10, Batch: 8},
		{Family: "rnn", Depth: 10, Width: 8192, Batch: 128},
	}
	if testing.Short() {
		cfgs = []models.Config{{Family: "mlp", Depth: 4, Width: 512, Batch: 64}}
	}
	pars := []int{1, runtime.GOMAXPROCS(0)}
	for _, cfg := range cfgs {
		m, err := models.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, par := range pars {
			b.Run(fmt.Sprintf("%s/par=%d", cfg, par), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := recursive.Partition(m.G, 8, recursive.Options{Parallelism: par}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPartitionSearchWarmCache measures the steady-state search cost
// when the pricing cache is shared across searches — the regime of the
// experiment drivers, which sweep many (model × system) cells over the
// same graphs.
func BenchmarkPartitionSearchWarmCache(b *testing.B) {
	cfg := models.Config{Family: "rnn", Depth: 10, Width: 8192, Batch: 128}
	if testing.Short() {
		cfg = models.Config{Family: "mlp", Depth: 4, Width: 512, Batch: 64}
	}
	m, err := models.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	cache := dp.NewPriceCache()
	if _, err := recursive.Partition(m.G, 8, recursive.Options{Cache: cache}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := recursive.Partition(m.G, 8, recursive.Options{Cache: cache}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEnd measures the full pipeline (search + generation +
// memory planning + simulation) on the quickstart workload.
func BenchmarkEndToEnd(b *testing.B) {
	m, err := tofu.RNN(6, 4096, 512, 20)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := tofu.Partition(m.G, 8)
		if err != nil {
			b.Fatal(err)
		}
		res := tofu.Simulate(s, m.Batch, tofu.DefaultPipelineOptions(), nil)
		if res.Throughput <= 0 {
			b.Fatal("no throughput")
		}
	}
}

// BenchmarkPartitionSearchTopo measures the topology-aware ordering search
// on the hierarchical profiles — the branch-and-bound prefix tree whose DP
// effort the dp_steps/dp_steps_flat metrics expose. Short mode keeps the
// two cluster profiles the CI gate tracks.
func BenchmarkPartitionSearchTopo(b *testing.B) {
	cases := []struct {
		prof string
		cfg  models.Config
	}{
		{"cluster-2x8", models.Config{Family: "rnn", Depth: 2, Width: 1500, Batch: 64}},
		{"cluster-4x2x8", models.Config{Family: "rnn", Depth: 2, Width: 8192, Batch: 128}},
		{"cluster-8x2x8", models.Config{Family: "rnn", Depth: 2, Width: 8192, Batch: 256}},
	}
	if testing.Short() {
		cases = cases[:2]
	}
	for _, c := range cases {
		tp, err := topo.Profile(c.prof)
		if err != nil {
			b.Fatal(err)
		}
		m, err := models.Build(c.cfg)
		if err != nil {
			b.Fatal(err)
		}
		k := int64(tp.NumGPUs())
		b.Run(fmt.Sprintf("%s@%d", c.prof, k), func(b *testing.B) {
			var st recursive.SearchStats
			for i := 0; i < b.N; i++ {
				if _, err := recursive.Partition(m.G, k, recursive.Options{Topology: &tp, Stats: &st}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.DPSolves), "dp-steps")
			b.ReportMetric(float64(st.FlatDPSolves), "dp-steps-flat")
			b.ReportMetric(float64(st.Pruned), "pruned-nodes")
		})
	}
}
