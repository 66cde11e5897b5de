// Command tofu-plan searches for and prints the partition plan of a
// benchmark model — the machine-readable version of the paper's Figure 11.
//
// Usage:
//
//	tofu-plan [-family wresnet|rnn|mlp] [-depth 152] [-width 10]
//	          [-batch 8] [-workers 8] [-parallel N]
//	          [-search-deadline D] [-model-json config.json|-]
//	          [-hw <profile>|machine.json]   (profiles, as tofu.TopologyProfiles
//	           lists them: cluster-2x4x2x12, cluster-2x8, cluster-2x8x2x8,
//	           cluster-4x2x12, cluster-4x2x8, cluster-8x2x8, dgx1, dgx2, p2.8xlarge)
//
// -model-json reads the model config from a JSON file (or stdin with "-")
// in the same canonical form tofu-serve accepts, so a CLI run and a service
// request are interchangeable; it overrides -family/-depth/-width/-batch.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"tofu"
)

func main() {
	family := flag.String("family", "wresnet", "model family: wresnet|rnn|mlp|transformer")
	depth := flag.Int("depth", 152, "wresnet depth / rnn layers / mlp layers")
	width := flag.Int64("width", 10, "wresnet widening / rnn hidden / mlp dim")
	batch := flag.Int64("batch", 8, "global batch size")
	workers := flag.Int64("workers", 8, "number of GPUs")
	jsonOut := flag.String("json", "", "also write the plan (digest embedded) as JSON to this file")
	modelJSON := flag.String("model-json", "",
		"read the model config from this canonical JSON file (- for stdin); overrides -family/-depth/-width/-batch")
	parallel := flag.Int("parallel", 0,
		"DP search worker goroutines (0 = GOMAXPROCS, 1 = serial); the plan is identical either way")
	hwArg := flag.String("hw", "",
		"hardware profile name or topology JSON file; overrides -workers with the machine's GPU count "+
			"and makes the search topology-aware on hierarchical machines")
	pipeline := flag.Bool("pipeline", false,
		"joint hybrid-parallelism search: pipeline stages across a slow interconnect level with the "+
			"partition DP inside each stage (requires a hierarchical -hw)")
	pipelineLevel := flag.Int("pipeline-level", 0,
		"interconnect level the pipeline stages straddle (0 = search all levels); implies -pipeline when set")
	microBatches := flag.Int("micro-batches", 0,
		"micro-batch count for pipelined simulation (0 = one per stage when the batch divides); "+
			"never changes the chosen plan")
	searchDeadline := flag.Duration("search-deadline", 0,
		"wall-clock budget for the search; on expiry the best incumbent found so far is "+
			"printed marked DEGRADED (0 = unbounded, the proven optimum)")
	traceOut := flag.String("trace", "",
		"record the search span tree and simulated execution timeline: a file path gets Chrome "+
			"trace_event JSON (load in chrome://tracing or Perfetto), '-' prints human-readable text; "+
			"the chosen plan is byte-identical with tracing on or off")
	flag.Parse()

	cfg := tofu.ModelConfig{Family: *family, Depth: *depth, Width: *width, Batch: *batch}
	if *modelJSON != "" {
		var err error
		cfg, err = tofu.ReadModelConfig(*modelJSON)
		if err != nil {
			log.Fatal(err)
		}
	}
	m, err := tofu.BuildModel(cfg)
	if err != nil {
		log.Fatal(err)
	}
	popts := tofu.DefaultPipelineOptions()
	popts.Search.Parallelism = *parallel
	if *hwArg != "" {
		topo, err := tofu.ResolveTopology(*hwArg)
		if err != nil {
			log.Fatal(err)
		}
		popts.Topology = &topo
		*workers = int64(topo.NumGPUs())
	}
	if *pipeline || *pipelineLevel > 0 {
		popts.Pipeline = &tofu.PipelineSpec{Level: *pipelineLevel, MicroBatches: *microBatches}
	}
	var root *tofu.TraceSpan
	var timeline *tofu.Timeline
	if *traceOut != "" {
		root = tofu.NewTraceSpan("tofu-plan")
		timeline = tofu.NewTimeline()
		popts.Trace = root
	}
	if *searchDeadline > 0 {
		token, stop := tofu.SearchDeadline(*searchDeadline)
		defer stop()
		popts.Cancel = token
	}
	s, err := tofu.PartitionWithOptions(m.G, *workers, popts)
	if err != nil {
		log.Fatal(err)
	}
	digest, err := tofu.PlanDigest(cfg, *workers, popts)
	if err != nil {
		log.Fatal(err)
	}
	s.Plan.Digest = digest
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := s.Plan.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("plan written to %s\n", *jsonOut)
	}

	fmt.Printf("model %s: %d operators, %d tensors\n", m.Name, len(m.G.Nodes), len(m.G.Tensors))
	fmt.Printf("request digest: %s\n", digest)
	fmt.Printf("coarsened: %d groups, %d variables, frontier width %d\n",
		s.Groups, s.Vars, s.Frontier)
	fmt.Printf("search time: %v\n", s.SearchTime)
	if s.Degraded {
		fmt.Printf("DEGRADED: the %v budget expired; this is the best incumbent found, not the proven optimum\n",
			*searchDeadline)
	}
	if st := s.Search; st.Orderings > 0 {
		fmt.Printf("ordering search: %d orderings (%d costed, %d tree nodes expanded, %d pruned)\n",
			st.Orderings, st.Leaves, st.Expanded, st.Pruned)
		fmt.Printf("  dp steps: %d shared+pruned (%d more replayed) vs %d flat enumeration (%.1fx less), %d bound queries\n",
			st.DPSolves, st.Replays, st.FlatDPSolves, float64(st.FlatDPSolves)/float64(max(st.DPSolves, 1)), st.LBQueries)
	}
	if h := s.Hybrid; h != nil {
		st := h.Stats
		fmt.Printf("hybrid search: level %d, %d stages of %d workers (%d boundary sets, %d costed, %d pruned)\n",
			h.Level, len(h.Stages), h.Stages[0].Workers, st.BoundarySets, st.Leaves, st.Pruned)
		fmt.Printf("  dp solves: %d memoized+pruned (%d more replayed) vs %d flat enumeration (%.1fx less), %d bound queries\n",
			st.DPSolves, st.Replays, st.FlatDPSolves,
			float64(st.FlatDPSolves)/float64(max(st.DPSolves, 1)), st.LBQueries)
		for i, stg := range h.Stages {
			fmt.Printf("  stage %d: groups [%d,%d), %d steps, hand-off %.2f MB\n",
				i, stg.Groups[0], stg.Groups[1], len(stg.Plan.Steps), stg.HandoffBytes/(1<<20))
		}
	}
	fmt.Printf("plan: %d recursive steps, total communication %.2f GB/iteration\n",
		len(s.Plan.Steps), s.Plan.TotalComm()/(1<<30))
	for i, st := range s.Plan.Steps {
		fmt.Printf("  step %d: %d-way, delta=%.2f GB (states=%d, configs=%d)\n",
			i+1, st.K, st.Delta()/(1<<30), st.States, st.Configs)
	}
	fmt.Printf("per-GPU memory: %.2f GB (persistent %.2f, transient %.2f, comm buffers %.2f)\n",
		f(s.Memory.PeakBytes), f(s.Memory.PersistentBytes),
		f(s.Memory.TransientPeak), f(s.Memory.CommBufferPeak))

	fmt.Println("\nweight tensor tilings:")
	for _, w := range m.G.Weights() {
		if w.Shape.Elems() < 1<<16 {
			continue // skip biases and batch-norm scales
		}
		fmt.Printf("  %-16s %-18s %s\n", w.Name, w.Shape, s.Plan.CutSummary(w.ID))
	}

	res := tofu.Simulate(s, m.Batch, popts, timeline)
	fmt.Printf("\nsimulated: %.3f s/iteration, %.1f samples/s, OOM=%v\n",
		res.IterSeconds, res.Throughput, res.OOM)

	if root != nil {
		root.End()
		if err := writeTrace(*traceOut, root, timeline); err != nil {
			log.Fatal(err)
		}
	}
}

// writeTrace exports the recorded trace: human-readable text on "-",
// Chrome trace_event JSON to any other path.
func writeTrace(dest string, root *tofu.TraceSpan, tl *tofu.Timeline) error {
	if dest == "-" {
		fmt.Println("\nsearch span tree:")
		fmt.Print(tofu.SpanTree(root))
		fmt.Println("\nsimulated execution timeline:")
		fmt.Print(tofu.TimelineSummary(tl))
		return nil
	}
	f, err := os.Create(dest)
	if err != nil {
		return err
	}
	if err := tofu.WriteChromeTrace(f, root, tl); err != nil {
		f.Close() //tofu:allow-errdrop the write error is being returned; a secondary close failure adds nothing
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("trace written to %s\n", dest)
	return nil
}

func f(b int64) float64 { return float64(b) / (1 << 30) }
