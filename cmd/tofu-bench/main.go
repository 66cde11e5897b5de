// Command tofu-bench regenerates the paper's evaluation artifacts (Tables
// 1-3, Figures 8-11, ablations) on the simulated 8-GPU machine, plus the
// cross-topology, ordering-search and hybrid-parallelism tables. Speed is
// not measured here: the repository benchmark is bench/ (see bench/README.md).
//
// Usage:
//
//	tofu-bench [-exp all|table1|table2|table3|fig8|fig9|fig10|fig11|ablations|crosstopo|orderings|hybrid]
//	           [-quick] [-flat-budget 20s] [-parallel N]
//	           [-cpuprofile cpu.out] [-memprofile mem.out]
//	           [-hw <profile>|machine.json]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"tofu/internal/experiments"
	"tofu/internal/topo"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run")
	quick := flag.Bool("quick", false, "trimmed sweeps for a fast look")
	budget := flag.Duration("flat-budget", 20*time.Second,
		"wall-clock budget for the non-recursive DP measurement (Table 1)")
	parallel := flag.Int("parallel", 0,
		"worker goroutines for experiment cells and DP search (0 = GOMAXPROCS, 1 = serial); artifacts are identical either way")
	hwArg := flag.String("hw", "p2.8xlarge",
		"hardware profile name or topology JSON file (see tofu.TopologyProfiles)")
	cpuProfile := flag.String("cpuprofile", "",
		"write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "",
		"write a pprof heap profile (after a final GC) to this file at exit")
	flag.Parse()

	// stopProfile is idempotent and runs on every exit path: fatalf below
	// calls it before os.Exit, so a failing run still writes a valid profile.
	stopProfile := func() {}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		var once sync.Once
		stopProfile = func() {
			once.Do(func() {
				pprof.StopCPUProfile()
				if err := f.Close(); err != nil {
					log.Print(err)
				}
			})
		}
		defer stopProfile()
	}
	// The heap profile follows the same idempotent every-exit-path pattern.
	writeHeapProfile := func() {}
	if *memProfile != "" {
		var once sync.Once
		writeHeapProfile = func() {
			once.Do(func() {
				f, err := os.Create(*memProfile)
				if err != nil {
					log.Print(err)
					return
				}
				runtime.GC() // count only live heap, as `go test -memprofile` does
				if err := pprof.WriteHeapProfile(f); err != nil {
					log.Print(err)
				}
				if err := f.Close(); err != nil {
					log.Print(err)
				}
			})
		}
		defer writeHeapProfile()
	}
	fatalf := func(format string, args ...any) {
		writeHeapProfile()
		stopProfile()
		log.Fatalf(format, args...)
	}

	opts := experiments.Opts{Quick: *quick, FlatBudget: *budget, Parallelism: *parallel}
	tp, err := topo.ResolveTopology(*hwArg)
	if err != nil {
		fatalf("%v", err)
	}

	type driver struct {
		name string
		run  func() (string, error)
	}
	drivers := []driver{
		{"table1", func() (string, error) { return experiments.Table1(opts, tp) }},
		{"table2", func() (string, error) { return experiments.Table2(opts) }},
		{"table3", func() (string, error) { return experiments.Table3(opts, tp) }},
		{"fig8", func() (string, error) { return experiments.Figure8(opts, tp) }},
		{"fig9", func() (string, error) { return experiments.Figure9(opts, tp) }},
		{"fig10", func() (string, error) { return experiments.Figure10(opts, tp) }},
		{"fig11", func() (string, error) { return experiments.Figure11(opts) }},
		{"ablations", func() (string, error) { return experiments.Ablations(opts, tp) }},
		{"crosstopo", func() (string, error) { return experiments.CrossTopology(opts, tp) }},
		{"orderings", func() (string, error) { return experiments.Orderings(opts, tp) }},
		{"hybrid", func() (string, error) { return experiments.Hybrid(opts, tp) }},
	}

	ran := false
	for _, d := range drivers {
		if *exp != "all" && *exp != d.name {
			continue
		}
		ran = true
		start := time.Now()
		out, err := d.run()
		if err != nil {
			fatalf("%s: %v", d.name, err)
		}
		fmt.Println(out)
		fmt.Printf("[%s completed in %v]\n\n", d.name, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
