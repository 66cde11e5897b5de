package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"tofu/internal/hybrid"
	"tofu/internal/models"
	"tofu/internal/topo"
)

// hybridSolveFloor is the acceptance floor for the joint search: on the
// 3- and 4-level cluster profiles, the segment memo plus branch-and-bound
// must run at least this many times fewer dp.Solve calls than exhaustive
// boundary enumeration.
const hybridSolveFloor = 10

// hybridCases are the gate profiles for the joint hybrid-parallelism
// search. Both the -exp hybrid artifact and the bench-json short rows run
// them; the dp-solve floor applies to both. A rowOnly case is a bench-json
// row alone: the RNN's 2k-node segments make it the one row bound by segment
// extraction and coarsening rather than by dp.Solve, which is what its
// allocs/op gate watches; the artifact's exhaustive oracle skips it.
var hybridCases = []struct {
	prof    string
	cfg     models.Config
	level   int // 0 = auto
	gated   bool
	rowOnly bool
}{
	{"cluster-2x8", models.Config{Family: "mlp", Depth: 4, Width: 256, Batch: 64}, 0, false, false},
	{"cluster-4x2x8", models.Config{Family: "mlp", Depth: 4, Width: 256, Batch: 64}, 0, true, false},
	{"cluster-2x4x2x12", models.Config{Family: "mlp", Depth: 4, Width: 384, Batch: 48}, 2, true, false},
	{"cluster-4x2x8", models.Config{Family: "rnn", Depth: 2, Width: 1024, Batch: 64}, 0, false, true},
}

// HybridRecord is one joint-search measurement: the branch-and-bound
// effort counters against the flat one-DP-per-boundary-set enumeration,
// plus a timed oracle run for the recorded wall-clock speedup.
type HybridRecord struct {
	Name          string  `json:"name"`
	Level         int     `json:"level"`
	Stages        int     `json:"stages"`
	NsPerOp       float64 `json:"ns_per_op"`
	Iterations    int     `json:"iterations"`
	OracleNsPerOp float64 `json:"oracle_ns_per_op"`
	DPSolves      int64   `json:"dp_solves"`
	FlatDPSolves  int64   `json:"dp_solves_flat"`
	BoundarySets  int64   `json:"boundary_sets"`
	Expanded      int64   `json:"expanded"`
	Pruned        int64   `json:"pruned"`
	Leaves        int64   `json:"leaves"`
	LBQueries     int64   `json:"lb_queries"`
}

// HybridFile is the BENCH_PR8.json artifact schema.
type HybridFile struct {
	GoOS    string         `json:"go_os"`
	GoArch  string         `json:"go_arch"`
	NumCPU  int            `json:"num_cpu"`
	Records []HybridRecord `json:"records"`
}

// runHybridExperiment measures the joint search on the gate profiles,
// checks the branch-and-bound plan byte-matches the exhaustive oracle, and
// writes the BENCH_PR8.json artifact. Floor violations are returned as an
// error after the artifact is written.
func runHybridExperiment(outPath string) (string, error) {
	out := HybridFile{GoOS: runtime.GOOS, GoArch: runtime.GOARCH, NumCPU: runtime.NumCPU()}
	var floors []string
	var sb []byte
	for _, c := range hybridCases {
		if c.rowOnly {
			continue
		}
		tp, err := topo.Profile(c.prof)
		if err != nil {
			return "", err
		}
		m, err := models.Build(c.cfg)
		if err != nil {
			return "", fmt.Errorf("building %s: %w", c.cfg, err)
		}
		k := int64(tp.NumGPUs())
		// Parallelism 1 keeps the expansion schedule — and therefore the
		// recorded counters — deterministic across machines.
		opts := hybrid.Options{Topology: &tp, Level: c.level, Parallelism: 1}
		var st hybrid.Stats
		opts.Stats = &st
		var res *hybrid.Result
		var benchErr error
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, benchErr = hybrid.Partition(m.G, k, opts)
				if benchErr != nil {
					b.Fatal(benchErr)
				}
			}
		})
		if benchErr != nil {
			return "", fmt.Errorf("%s: %w", c.prof, benchErr)
		}
		oracleStart := time.Now()
		oracle, err := hybrid.Partition(m.G, k, hybrid.Options{
			Topology: &tp, Level: c.level, Parallelism: 1, Exhaustive: true,
		})
		oracleNs := float64(time.Since(oracleStart).Nanoseconds())
		if err != nil {
			return "", fmt.Errorf("%s: oracle: %w", c.prof, err)
		}
		if res.Cost != oracle.Cost || res.Level != oracle.Level {
			return "", fmt.Errorf("%s: branch-and-bound (cost %g, level %d) diverged from oracle (cost %g, level %d)",
				c.prof, res.Cost, res.Level, oracle.Cost, oracle.Level)
		}
		rec := HybridRecord{
			Name:          fmt.Sprintf("hybrid/%s@%d/%s", c.prof, k, c.cfg),
			Level:         res.Level,
			Stages:        len(res.Stages),
			NsPerOp:       float64(r.NsPerOp()),
			Iterations:    r.N,
			OracleNsPerOp: oracleNs,
			DPSolves:      st.DPSolves,
			FlatDPSolves:  st.FlatDPSolves,
			BoundarySets:  st.BoundarySets,
			Expanded:      st.Expanded,
			Pruned:        st.Pruned,
			Leaves:        st.Leaves,
			LBQueries:     st.LBQueries,
		}
		if c.gated && rec.DPSolves*hybridSolveFloor > rec.FlatDPSolves {
			floors = append(floors, fmt.Sprintf(
				"%s: dp solves %d not >=%dx below flat %d",
				rec.Name, rec.DPSolves, hybridSolveFloor, rec.FlatDPSolves))
		}
		out.Records = append(out.Records, rec)
		sb = append(sb, fmt.Sprintf(
			"%-40s level %d, %d stages, %12.0f ns/op (oracle %12.0f), dp %6d vs flat %8d (%.1fx), %d pruned\n",
			rec.Name, rec.Level, rec.Stages, rec.NsPerOp, rec.OracleNsPerOp,
			rec.DPSolves, rec.FlatDPSolves,
			float64(rec.FlatDPSolves)/float64(max(rec.DPSolves, 1)), rec.Pruned)...)
	}
	f, err := os.Create(outPath)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close() //tofu:allow-errdrop the Encode error is being returned; a secondary close failure adds nothing
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	sb = append(sb, fmt.Sprintf("wrote %s\n", outPath)...)
	if len(floors) > 0 {
		for _, fl := range floors {
			fmt.Fprintln(os.Stderr, "FLOOR:", fl)
		}
		return string(sb), fmt.Errorf("%d hybrid search floor violation(s)", len(floors))
	}
	return string(sb), nil
}

// runHybridRows is the bench-json ride-along: the same gate profiles as
// -exp hybrid, recorded as BenchRecord rows (dp_steps = segment-memo
// dp.Solve calls, dp_steps_flat = exhaustive enumeration, search_steps =
// boundary-tree nodes expanded) so BENCH_CI.json floors and the >20%
// regression gates cover the joint search. Floor violations come back as
// regression strings.
func runHybridRows() ([]BenchRecord, []string, error) {
	var rows []BenchRecord
	var regressions []string
	for _, c := range hybridCases {
		tp, err := topo.Profile(c.prof)
		if err != nil {
			return nil, nil, err
		}
		m, err := models.Build(c.cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("building %s: %w", c.cfg, err)
		}
		k := int64(tp.NumGPUs())
		var st hybrid.Stats
		var benchErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := hybrid.Partition(m.G, k, hybrid.Options{
					Topology: &tp, Level: c.level, Parallelism: 1, Stats: &st,
				}); err != nil {
					benchErr = err
					b.Fatal(err)
				}
			}
		})
		if benchErr != nil {
			return nil, nil, fmt.Errorf("%s: %w", c.prof, benchErr)
		}
		rec := BenchRecord{
			Name:        fmt.Sprintf("hybrid/%s@%d/%s", c.prof, k, c.cfg),
			NsPerOp:     float64(r.NsPerOp()),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Iterations:  r.N,
			DPSteps:     st.DPSolves,
			DPStepsFlat: st.FlatDPSolves,
			SearchSteps: st.Expanded,
		}
		if c.gated && rec.DPSteps*hybridSolveFloor > rec.DPStepsFlat {
			regressions = append(regressions, fmt.Sprintf(
				"%s: dp solves %d not >=%dx below flat %d",
				rec.Name, rec.DPSteps, hybridSolveFloor, rec.DPStepsFlat))
		}
		rows = append(rows, rec)
	}
	return rows, regressions, nil
}
