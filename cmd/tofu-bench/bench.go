package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"tofu/internal/models"
	"tofu/internal/recursive"
	"tofu/internal/topo"
)

// regressionThreshold is the allowed growth of ns/op and allocs/op over the
// committed baseline before the gate fails (20%).
const regressionThreshold = 1.20

// BenchRecord is one benchmark measurement, with the baseline comparison
// filled in when a baseline file was supplied.
type BenchRecord struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int     `json:"iterations"`

	// TotalAllocBytes is the runtime.MemStats.TotalAlloc delta across the
	// whole measured run and HeapSysBytes the heap footprint the runtime
	// held afterwards — footprint context for the per-op numbers above.
	// Both depend on the iteration count the framework chose, so they are
	// recorded, never gated.
	TotalAllocBytes int64 `json:"total_alloc_bytes,omitempty"`
	HeapSysBytes    int64 `json:"heap_sys_bytes,omitempty"`

	// DPSteps/DPStepsFlat record the topology search's effort (search-topo/*
	// benchmarks): DP step executions of the branch-and-bound prefix tree vs
	// the flat enumeration's orderings × depth. FlatNsPerOp is one measured
	// flat-enumeration search for the wall-clock speedup.
	DPSteps     int64   `json:"dp_steps,omitempty"`
	DPStepsFlat int64   `json:"dp_steps_flat,omitempty"`
	FlatNsPerOp float64 `json:"flat_ns_per_op,omitempty"`

	// SearchSteps/SearchStepsWarm record a warm-start row (warm-start/*):
	// branch-and-bound nodes expanded by a cold search vs one seeded with
	// the neighbor index's ordering. Machine-stable, gated like dp_steps.
	SearchSteps     int64 `json:"search_steps,omitempty"`
	SearchStepsWarm int64 `json:"search_steps_warm,omitempty"`

	BaselineNsPerOp     float64 `json:"baseline_ns_per_op,omitempty"`
	BaselineAllocsPerOp int64   `json:"baseline_allocs_per_op,omitempty"`
	BaselineDPSteps     int64   `json:"baseline_dp_steps,omitempty"`
	BaselineStepsWarm   int64   `json:"baseline_search_steps_warm,omitempty"`
	NsRatio             float64 `json:"ns_ratio,omitempty"`
	AllocsRatio         float64 `json:"allocs_ratio,omitempty"`
}

// BenchFile is the BENCH_*.json artifact schema.
type BenchFile struct {
	GoOS       string        `json:"go_os"`
	GoArch     string        `json:"go_arch"`
	NumCPU     int           `json:"num_cpu"`
	Short      bool          `json:"short,omitempty"`
	Benchmarks []BenchRecord `json:"benchmarks"`
	// Serve carries the serve-layer loadtest next to the search numbers,
	// so one baseline file gates both. ServeStore is the persistent-store
	// restart loadtest (cold search vs store-served warm across replicas).
	Serve      *ServeResult      `json:"serve,omitempty"`
	ServeStore *ServeStoreResult `json:"serve_store,omitempty"`
}

// runSearchBenchmarks measures recursive.Partition on the benchmark
// configs, writes the JSON artifact, and (optionally) gates against a
// committed baseline.
func runSearchBenchmarks(outPath string, short bool, baselinePath string) error {
	cfgs := []models.Config{
		{Family: "wresnet", Depth: 152, Width: 10, Batch: 8},
		{Family: "rnn", Depth: 10, Width: 8192, Batch: 128},
	}
	if short {
		cfgs = []models.Config{
			{Family: "mlp", Depth: 4, Width: 512, Batch: 64},
			{Family: "rnn", Depth: 2, Width: 1024, Batch: 64},
			{Family: "wresnet", Depth: 50, Width: 2, Batch: 8},
		}
	}

	out := BenchFile{GoOS: runtime.GOOS, GoArch: runtime.GOARCH, NumCPU: runtime.NumCPU(), Short: short}
	var regressions []string
	for _, cfg := range cfgs {
		m, err := models.Build(cfg)
		if err != nil {
			return fmt.Errorf("building %s: %w", cfg, err)
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := recursive.Partition(m.G, 8, recursive.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		runtime.ReadMemStats(&ms1)
		rec := BenchRecord{
			Name:            "search/" + cfg.String(),
			NsPerOp:         float64(r.NsPerOp()),
			BytesPerOp:      r.AllocedBytesPerOp(),
			AllocsPerOp:     r.AllocsPerOp(),
			Iterations:      r.N,
			TotalAllocBytes: int64(ms1.TotalAlloc - ms0.TotalAlloc),
			HeapSysBytes:    int64(ms1.HeapSys),
		}
		fmt.Printf("%-28s %14.0f ns/op %12d B/op %10d allocs/op (%d iters)\n",
			rec.Name, rec.NsPerOp, rec.BytesPerOp, rec.AllocsPerOp, rec.Iterations)
		out.Benchmarks = append(out.Benchmarks, rec)
	}

	// The topology-aware ordering search rides along: branch-and-bound wall
	// time and DP-step counts (machine-stable, gated like allocs/op), plus
	// one timed flat-enumeration search for the recorded speedup.
	topoCases := []struct {
		prof string
		cfg  models.Config
	}{
		{"cluster-4x2x8", models.Config{Family: "rnn", Depth: 2, Width: 8192, Batch: 128}},
		{"cluster-8x2x8", models.Config{Family: "rnn", Depth: 2, Width: 8192, Batch: 256}},
	}
	if short {
		topoCases = []struct {
			prof string
			cfg  models.Config
		}{
			{"cluster-2x8", models.Config{Family: "rnn", Depth: 2, Width: 1500, Batch: 64}},
			{"cluster-4x2x8", models.Config{Family: "mlp", Depth: 3, Width: 2048, Batch: 128}},
		}
	}
	for _, tc := range topoCases {
		tp, err := topo.Profile(tc.prof)
		if err != nil {
			return err
		}
		m, err := models.Build(tc.cfg)
		if err != nil {
			return fmt.Errorf("building %s: %w", tc.cfg, err)
		}
		k := int64(tp.NumGPUs())
		// Parallelism 1 keeps the expansion schedule — and therefore the
		// gated DPSteps counter — deterministic across machines (the plan is
		// byte-identical at any setting; only the node counters can drift).
		var st recursive.SearchStats
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := recursive.Partition(m.G, k, recursive.Options{Topology: &tp, Parallelism: 1, Stats: &st}); err != nil {
					b.Fatal(err)
				}
			}
		})
		runtime.ReadMemStats(&ms1)
		flatStart := time.Now()
		if _, err := recursive.Partition(m.G, k, recursive.Options{Topology: &tp, Parallelism: 1, TopoExhaustive: true}); err != nil {
			return fmt.Errorf("flat enumeration on %s: %w", tc.prof, err)
		}
		flatNs := float64(time.Since(flatStart).Nanoseconds())
		rec := BenchRecord{
			// The model rides in the name (like search/*): short and full
			// modes measure different workloads and must never share a
			// baseline row.
			Name:            fmt.Sprintf("search-topo/%s@%d/%s", tc.prof, k, tc.cfg),
			NsPerOp:         float64(r.NsPerOp()),
			BytesPerOp:      r.AllocedBytesPerOp(),
			AllocsPerOp:     r.AllocsPerOp(),
			Iterations:      r.N,
			TotalAllocBytes: int64(ms1.TotalAlloc - ms0.TotalAlloc),
			HeapSysBytes:    int64(ms1.HeapSys),
			DPSteps:         int64(st.DPSolves),
			DPStepsFlat:     int64(st.FlatDPSolves),
			FlatNsPerOp:     flatNs,
		}
		fmt.Printf("%-28s %14.0f ns/op %12d B/op %10d allocs/op (dp %d vs flat %d, flat search %.0f ns)\n",
			rec.Name, rec.NsPerOp, rec.BytesPerOp, rec.AllocsPerOp, rec.DPSteps, rec.DPStepsFlat, rec.FlatNsPerOp)
		// Acceptance floor on the large clusters: the prefix-shared tree
		// must run at least 5x fewer DP steps than the flat enumeration.
		if tp.NumGPUs() >= 64 && rec.DPSteps*5 > rec.DPStepsFlat {
			regressions = append(regressions, fmt.Sprintf(
				"%s: dp steps %d not >=5x below flat %d", rec.Name, rec.DPSteps, rec.DPStepsFlat))
		}
		out.Benchmarks = append(out.Benchmarks, rec)
	}

	// The warm-start rows ride along in both modes (each case runs in well
	// under a second): cold vs neighbor-seeded search steps on the gated
	// fleet profiles, floored at 2x in runWarmStartRows itself.
	warmRows, warmRegr, err := runWarmStartRows()
	if err != nil {
		return fmt.Errorf("warm-start rows: %w", err)
	}
	regressions = append(regressions, warmRegr...)
	for _, rec := range warmRows {
		fmt.Printf("%-28s %14d cold steps %8d warm steps (%.2fx fewer, dp %d vs flat %d)\n",
			rec.Name, rec.SearchSteps, rec.SearchStepsWarm,
			float64(rec.SearchSteps)/float64(rec.SearchStepsWarm), rec.DPSteps, rec.DPStepsFlat)
	}
	out.Benchmarks = append(out.Benchmarks, warmRows...)

	// The joint hybrid-parallelism rows ride along in both modes (each gate
	// profile completes in about a second): segment-memo dp.Solve counts vs
	// the flat boundary enumeration, floored at 10x in runHybridRows itself.
	hybridRows, hybridRegr, err := runHybridRows()
	if err != nil {
		return fmt.Errorf("hybrid rows: %w", err)
	}
	regressions = append(regressions, hybridRegr...)
	for _, rec := range hybridRows {
		fmt.Printf("%-28s %14.0f ns/op %12d B/op %10d allocs/op (dp %d vs flat %d, %.1fx)\n",
			rec.Name, rec.NsPerOp, rec.BytesPerOp, rec.AllocsPerOp,
			rec.DPSteps, rec.DPStepsFlat, float64(rec.DPStepsFlat)/float64(max(rec.DPSteps, 1)))
	}
	out.Benchmarks = append(out.Benchmarks, hybridRows...)

	// The plan codec rows ride along in both modes (one 100 ms search, then
	// encode and verify of its 3.2 MB plan).
	codecRows, err := runCodecRows()
	if err != nil {
		return fmt.Errorf("codec rows: %w", err)
	}
	for _, rec := range codecRows {
		fmt.Printf("%-28s %14.0f ns/op %12d B/op %10d allocs/op (%d iters)\n",
			rec.Name, rec.NsPerOp, rec.BytesPerOp, rec.AllocsPerOp, rec.Iterations)
	}
	out.Benchmarks = append(out.Benchmarks, codecRows...)

	// The serve loadtest rides along. The throughput floor is enforced via
	// the regression list below — after the artifact is written — so a slow
	// run never discards the search measurements; only genuine failures
	// (coalescing broken, request errors) abort here.
	serveOpts := defaultServeLoadOpts(short)
	serveOpts.minRPS = 0
	serve, err := runServeLoadtest(serveOpts)
	if err != nil {
		return fmt.Errorf("serve loadtest: %w", err)
	}
	out.Serve = &serve
	fmt.Printf("%-28s %14.0f req/s warm %8.0f us p50 %8.0f us p99 (cold %.0f ms)\n",
		"serve/"+serve.Model, serve.WarmRPS, serve.WarmP50Us, serve.WarmP99Us, serve.ColdMs)

	if serve.WarmRPS < serveFloorRPS {
		regressions = append(regressions, fmt.Sprintf(
			"serve/%s: warm throughput %.0f req/s below the %d req/s floor",
			serve.Model, serve.WarmRPS, int64(serveFloorRPS)))
	}

	// The store-restart loadtest rides along the same way: its own floors
	// (store answered, zero searches, 10x speedup) are enforced inside the
	// run, surfaced here as regressions so the artifact still gets written.
	storeOpts := defaultStoreLoadOpts(short)
	storeDir, err := os.MkdirTemp("", "tofu-bench-store-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(storeDir)
	serveStore, err := runStoreRestartLoadtest(storeDir, storeOpts)
	out.ServeStore = &serveStore
	if err != nil {
		regressions = append(regressions, fmt.Sprintf("serve-store/%s: %v", serveStore.Model, err))
	} else {
		fmt.Printf("%-28s %14.0f req/s warm %8.1fx speedup over cold %.1f req/s (restart, %d store-served)\n",
			"serve-store/"+serveStore.Model, serveStore.WarmRPS, serveStore.Speedup,
			serveStore.ColdRPS, serveStore.StoreServed)
	}
	if baselinePath != "" {
		base, err := readBenchFile(baselinePath)
		if err != nil {
			return err
		}
		// ns/op is wall-clock: only gate it when the baseline was recorded
		// on matching hardware. allocs/op is machine-stable and always
		// gated.
		gateNs := base.GoOS == out.GoOS && base.GoArch == out.GoArch && base.NumCPU == out.NumCPU
		if !gateNs {
			fmt.Fprintf(os.Stderr,
				"note: baseline %s was recorded on %s/%s with %d CPUs (this host: %s/%s, %d); gating allocs/op only\n",
				baselinePath, base.GoOS, base.GoArch, base.NumCPU, out.GoOS, out.GoArch, out.NumCPU)
		}
		byName := map[string]BenchRecord{}
		for _, b := range base.Benchmarks {
			byName[b.Name] = b
		}
		for i := range out.Benchmarks {
			rec := &out.Benchmarks[i]
			b, ok := byName[rec.Name]
			if !ok {
				regressions = append(regressions,
					fmt.Sprintf("%s: missing from baseline %s", rec.Name, baselinePath))
				continue
			}
			rec.BaselineNsPerOp = b.NsPerOp
			rec.BaselineAllocsPerOp = b.AllocsPerOp
			if b.NsPerOp > 0 {
				rec.NsRatio = rec.NsPerOp / b.NsPerOp
			}
			if b.AllocsPerOp > 0 {
				rec.AllocsRatio = float64(rec.AllocsPerOp) / float64(b.AllocsPerOp)
			}
			if gateNs && rec.NsRatio > regressionThreshold {
				regressions = append(regressions, fmt.Sprintf(
					"%s: ns/op regressed %.2fx (%.0f -> %.0f)", rec.Name, rec.NsRatio, b.NsPerOp, rec.NsPerOp))
			}
			if rec.AllocsRatio > regressionThreshold {
				regressions = append(regressions, fmt.Sprintf(
					"%s: allocs/op regressed %.2fx (%d -> %d)", rec.Name, rec.AllocsRatio, b.AllocsPerOp, rec.AllocsPerOp))
			}
			// DP steps are machine-stable like allocs: gate against growth.
			if b.DPSteps > 0 && rec.DPSteps > 0 {
				rec.BaselineDPSteps = b.DPSteps
				if float64(rec.DPSteps) > float64(b.DPSteps)*regressionThreshold {
					regressions = append(regressions, fmt.Sprintf(
						"%s: dp steps regressed (%d -> %d)", rec.Name, b.DPSteps, rec.DPSteps))
				}
			}
			// Warm-started search steps likewise: a growing count means the
			// seed stopped pruning.
			if b.SearchStepsWarm > 0 && rec.SearchStepsWarm > 0 {
				rec.BaselineStepsWarm = b.SearchStepsWarm
				if float64(rec.SearchStepsWarm) > float64(b.SearchStepsWarm)*regressionThreshold {
					regressions = append(regressions, fmt.Sprintf(
						"%s: warm-started search steps regressed (%d -> %d)",
						rec.Name, b.SearchStepsWarm, rec.SearchStepsWarm))
				}
			}
		}
		// Warm-cache serve throughput is wall-clock like ns/op: gate it only
		// against a baseline recorded on matching hardware.
		if gateNs && base.Serve != nil && base.Serve.WarmRPS > 0 {
			if ratio := base.Serve.WarmRPS / serve.WarmRPS; ratio > regressionThreshold {
				regressions = append(regressions, fmt.Sprintf(
					"serve/%s: warm req/s regressed %.2fx (%.0f -> %.0f)",
					serve.Model, ratio, base.Serve.WarmRPS, serve.WarmRPS))
			}
		}
		// Same for the store-restart loop's warm throughput.
		if gateNs && base.ServeStore != nil && base.ServeStore.WarmRPS > 0 && serveStore.WarmRPS > 0 {
			if ratio := base.ServeStore.WarmRPS / serveStore.WarmRPS; ratio > regressionThreshold {
				regressions = append(regressions, fmt.Sprintf(
					"serve-store/%s: warm req/s regressed %.2fx (%.0f -> %.0f)",
					serveStore.Model, ratio, base.ServeStore.WarmRPS, serveStore.WarmRPS))
			}
		}
	}

	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close() //tofu:allow-errdrop the Encode error is being returned; a secondary close failure adds nothing
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)

	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "REGRESSION:", r)
		}
		return fmt.Errorf("%d benchmark regression(s) above %.0f%%",
			len(regressions), (regressionThreshold-1)*100)
	}
	return nil
}

func readBenchFile(path string) (BenchFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return BenchFile{}, err
	}
	defer f.Close()
	var b BenchFile
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return BenchFile{}, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	return b, nil
}
