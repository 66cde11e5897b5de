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

	stopCPUProfile := func() {}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		stopCPUProfile = func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Print(err)
			}
		}
	}
	writeHeapProfile := func() {
		if *memProfile == "" {
			return
		}
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
	}
	// finish writes both profiles. It runs on every exit path: deferred on
	// success, and from fatalf before os.Exit, which skips deferred calls,
	// so a failing run still writes valid profiles.
	finish := func() {
		writeHeapProfile()
		stopCPUProfile()
	}
	defer finish()
	fatalf := func(format string, args ...any) {
		finish()
		log.Fatalf(format, args...)
	}

	opts := experiments.Opts{Quick: *quick, FlatBudget: *budget, Parallelism: *parallel}
	tp, err := topo.ResolveTopology(*hwArg)
	if err != nil {
		fatalf("%v", err)
	}

	ran := false
	for _, d := range experiments.Drivers(opts, tp) {
		if *exp != "all" && *exp != d.Name {
			continue
		}
		ran = true
		start := time.Now()
		out, err := d.Run()
		if err != nil {
			fatalf("%s: %v", d.Name, err)
		}
		fmt.Println(out)
		fmt.Printf("[%s completed in %v]\n\n", d.Name, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
