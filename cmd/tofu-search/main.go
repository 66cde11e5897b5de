// Command tofu-search reproduces Table 1: the time to find the best
// partition for 8 workers with and without the recursion that makes Tofu's
// search practical.
//
// Usage:
//
//	tofu-search [-flat-budget 20s] [-quick] [-parallel N]
//	            [-search-deadline D] [-model-json config.json|-]
//	            [-hw <profile>|machine.json]
//
// -model-json replaces the paper's model pair with the config from a JSON
// file (or stdin with "-") — the same canonical ModelConfig document
// tofu-plan and tofu-serve accept.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"tofu/internal/core"
	"tofu/internal/experiments"
	"tofu/internal/models"
	"tofu/internal/obs"
	"tofu/internal/topo"
)

func main() {
	budget := flag.Duration("flat-budget", 20*time.Second,
		"wall-clock budget for the non-recursive DP before extrapolating")
	quick := flag.Bool("quick", false, "small models for a fast look")
	parallel := flag.Int("parallel", 0,
		"DP search worker goroutines (0 = GOMAXPROCS, 1 = serial); the plan is identical either way")
	modelJSON := flag.String("model-json", "",
		"measure the model from this canonical config JSON file (- for stdin) instead of the paper pair")
	hwArg := flag.String("hw", "p2.8xlarge",
		"hardware profile name or topology JSON file (see tofu.TopologyProfiles)")
	pipeline := flag.Bool("pipeline", false,
		"also run the joint hybrid-parallelism benchmark: pipeline stages x partition DP "+
			"against tensor-only search on the hierarchical cluster profiles")
	searchDeadline := flag.Duration("search-deadline", 0,
		"wall-clock budget per recursive search; deadline-stopped searches report their "+
			"incumbent and their timing cell is starred (0 = unbounded)")
	trace := flag.Bool("trace", false,
		"first print the span tree of one representative traced search (the measured model, "+
			"or a small MLP) — where the search's time goes, subsystem by subsystem")
	flag.Parse()

	tp, err := topo.ResolveTopology(*hwArg)
	if err != nil {
		log.Fatal(err)
	}
	opts := experiments.Opts{Quick: *quick, FlatBudget: *budget, Parallelism: *parallel, SearchDeadline: *searchDeadline}
	if *modelJSON != "" {
		cfg, err := models.ReadConfig(*modelJSON)
		if err != nil {
			log.Fatal(err)
		}
		opts.Models = []models.Config{cfg}
	}
	if *trace {
		if err := printTracedSearch(opts, tp); err != nil {
			log.Fatal(err)
		}
	}
	out, err := experiments.Table1(opts, tp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(out)

	// On a hierarchical machine the search's cost has a second axis — the
	// factor-to-level ordering space — so report the branch-and-bound
	// effort next to Table 1's timings.
	if tp.Hierarchical() {
		out, err := experiments.Orderings(opts, tp)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(out)
	}

	if *pipeline {
		out, err := experiments.Hybrid(opts, tp)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(out)
	}
}

// printTracedSearch runs one representative partition search with tracing
// on and prints its span tree — a per-subsystem time breakdown to read
// alongside Table 1's totals. Serial search keeps the tree's shape
// deterministic run to run.
func printTracedSearch(o experiments.Opts, tp topo.Topology) error {
	cfg := models.Config{Family: "mlp", Depth: 4, Width: 1024, Batch: 16}
	if len(o.Models) > 0 {
		cfg = o.Models[0]
	}
	m, err := models.Build(cfg)
	if err != nil {
		return err
	}
	root := obs.NewSpan("tofu-search " + cfg.String())
	popts := core.DefaultOptions()
	popts.Search.Parallelism = 1
	popts.Topology = &tp
	popts.Trace = root
	if _, err := core.Partition(m.G, int64(tp.NumGPUs()), popts); err != nil {
		return err
	}
	root.End()
	fmt.Printf("traced search (%s on %d GPUs):\n%s\n", cfg, tp.NumGPUs(), obs.SpanTree(root))
	return nil
}
