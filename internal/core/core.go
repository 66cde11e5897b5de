// Package core wires Tofu's pieces into the end-to-end pipeline the paper
// describes: TDL descriptions, each compiled into a region program that
// evaluates its symbolic access regions, discover and price every
// operator's partition strategies (Sec 4), coarsening and the recursive
// DP choose the plan (Sec 5), graph generation materializes the per-worker
// execution with its memory optimizations (Sec 6), and the memory planner
// plus simulator stand in for MXNet's allocator and the 8-GPU testbed.
package core

import (
	"fmt"
	"time"

	"tofu/internal/cancel"
	"tofu/internal/graph"
	"tofu/internal/graphgen"
	"tofu/internal/hybrid"
	"tofu/internal/memplan"
	"tofu/internal/obs"
	"tofu/internal/plan"
	"tofu/internal/recursive"
	"tofu/internal/sim"
	"tofu/internal/topo"
)

// Options configure the pipeline.
type Options struct {
	// Search forwards to the recursive partitioner; leave its Trace and
	// Cancel nil, Partition sets them from the two fields below.
	Search recursive.Options
	// Gen toggles the Sec 6 graph-generation optimizations.
	Gen graphgen.Options
	// Mem configures the per-worker memory planner.
	Mem memplan.Options
	// Topology overrides the simulated machine (DefaultTopology when nil)
	// and, when hierarchical, switches the search into topology-aware mode.
	Topology *topo.Topology
	// Pipeline, when non-nil, switches Partition into the joint
	// hybrid-parallelism search: pipeline stages across a slow interconnect
	// level, the partition DP inside each stage. Requires a hierarchical
	// Topology whose GPU count equals the worker count.
	Pipeline *PipelineSpec
	// Trace, if non-nil, records the whole pipeline's span tree under the
	// given parent (coarsening, DP solves, ordering branch-and-bound,
	// hybrid segments, pricing). nil — the default — records nothing and
	// adds no allocations; plans are byte-identical either way.
	Trace *obs.Span
	// Cancel, if non-nil, bounds the search: every layer polls the token at
	// its sweep/expansion boundaries and, when it trips, returns its best
	// incumbent marked Degraded (see Summary.Degraded) or the token's
	// reason when nothing completed in the budget. Arm one with
	// cancel.WithTimeout for a wall-clock deadline. nil — the default —
	// costs one pointer comparison per poll and leaves plans
	// byte-identical at any parallelism.
	Cancel *cancel.Token
}

// PipelineSpec requests hybrid (pipeline x partition) search.
type PipelineSpec struct {
	// Level is the interconnect level the stages straddle (0 = search all).
	Level int
	// MicroBatches divides the batch for pipelined simulation (0 = one
	// micro-batch per stage when the batch divides evenly, else 1). The
	// chosen plan does not depend on it.
	MicroBatches int
}

// topology resolves the effective machine.
func (o Options) topology() topo.Topology {
	if o.Topology != nil {
		return *o.Topology
	}
	return topo.DefaultTopology()
}

// DefaultOptions matches the full system.
func DefaultOptions() Options {
	return Options{Gen: graphgen.DefaultOptions(), Mem: memplan.DefaultOptions()}
}

// Summary is the result of partitioning a training graph end to end.
type Summary struct {
	// Plan is the chosen partition plan (one basic plan per recursive step).
	Plan *plan.Plan
	// Sharded is the per-worker execution structure.
	Sharded *graphgen.Sharded
	// Memory is the per-worker footprint under the plan.
	Memory memplan.Report
	// SearchTime is the wall-clock cost of the search (Table 1's metric).
	SearchTime time.Duration
	// Search reports the search's effort: every counter of an ordering
	// search, TopologyNaive's one-ordering search included; only DPSolves
	// and Replays when none runs (flat machine, explicit factors, k unequal
	// to the GPU count); zero for pipelines, whose effort is Hybrid.Stats.
	Search recursive.SearchStats
	// Hybrid is the joint pipeline-and-partition result when Options.Pipeline
	// requested one: per-stage plans and execution structures. Plan then
	// holds the combined stage-annotated plan, Sharded is nil (execution is
	// per stage), StageMemory holds each stage's footprint and Memory the
	// worst of them.
	Hybrid      *hybrid.Result
	StageMemory []memplan.Report
	// Frontier is the coarsened graph's maximum DP frontier width.
	Frontier int
	// Groups and Vars describe the coarsened search space.
	Groups, Vars int
	// Degraded reports that Options.Cancel tripped mid-search and Plan is
	// the best incumbent found within the budget rather than the proven
	// optimum (mirrors Plan.Degraded). Deadline-free runs never set it.
	Degraded bool
}

// Partition runs the full Tofu pipeline on a training graph for k workers.
// The graph is validated once, by the coarsening both searches start from;
// an invalid graph fails with a "core: " error before any search runs.
func Partition(g *graph.Graph, k int64, opts Options) (*Summary, error) {
	if opts.Search.Trace != nil || opts.Search.Cancel != nil {
		return nil, fmt.Errorf("core: set the trace and the cancel token via Options.Trace and Options.Cancel, not Search")
	}
	if opts.Pipeline != nil {
		return partitionHybrid(g, k, opts)
	}
	search := opts.Search
	if search.Topology == nil && opts.Topology != nil && int64(opts.Topology.NumGPUs()) == k {
		// A hierarchical machine makes the search topology-aware; a flat one
		// (or an explicit Search.Topology) changes nothing. Partitioning for
		// a different worker count than the simulated machine stays legal —
		// the search just runs topology-blind, as before.
		search.Topology = opts.Topology
	}
	if search.Stats == nil {
		search.Stats = &recursive.SearchStats{}
	}
	search.Trace, search.Cancel = opts.Trace, opts.Cancel
	// Coarsen once: the search and the summary below read the same Coarse.
	start := time.Now()
	co, err := recursive.Coarsen(g, search.Trace)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	p, err := recursive.PartitionCoarse(co, k, search)
	if err != nil {
		return nil, err
	}
	if opts.Topology != nil {
		// Plans the search could not annotate (k != the machine's GPU count,
		// so the topology-aware mode stayed off) still run on the real
		// machine: give them the blind cyclic-placement layout so the
		// simulator prices their transfers at the levels they actually
		// cross. Annotated plans are left untouched.
		opts.Topology.AssignLevels(p)
	}
	elapsed := time.Since(start)
	sh, err := graphgen.Generate(g, p, opts.Gen)
	if err != nil {
		return nil, err
	}
	return &Summary{
		Plan:       p,
		Sharded:    sh,
		Memory:     memplan.Plan(sh, opts.Mem),
		SearchTime: elapsed,
		Search:     *search.Stats,
		Frontier:   co.MaxFrontier(),
		Groups:     len(co.Groups),
		Vars:       len(co.Vars),
		Degraded:   p.Degraded,
	}, nil
}

// partitionHybrid is the Options.Pipeline branch of Partition: the joint
// search stages the graph across a slow interconnect level and partitions
// within each stage.
func partitionHybrid(g *graph.Graph, k int64, opts Options) (*Summary, error) {
	if opts.Search.StrategyFilter != nil || opts.Search.Factors != nil || opts.Search.TopologyNaive {
		return nil, fmt.Errorf("core: pipeline search does not compose with strategy filters, explicit factors or naive ordering")
	}
	if opts.Topology == nil {
		return nil, fmt.Errorf("core: pipeline search needs a hierarchical topology")
	}
	var st hybrid.Stats
	start := time.Now()
	co, err := recursive.Coarsen(g, opts.Trace)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	res, err := hybrid.PartitionCoarse(co, k, hybrid.Options{
		Topology:    opts.Topology,
		Level:       opts.Pipeline.Level,
		DType:       opts.Search.DType,
		MaxStates:   opts.Search.MaxStates,
		Parallelism: opts.Search.Parallelism,
		Gen:         opts.Gen,
		Cache:       opts.Search.Cache,
		Stats:       &st,
		Trace:       opts.Trace,
		Cancel:      opts.Cancel,
	})
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	s := &Summary{
		Plan:       res.Plan,
		Hybrid:     res,
		SearchTime: elapsed,
		Frontier:   co.MaxFrontier(),
		Groups:     len(co.Groups),
		Vars:       len(co.Vars),
		Degraded:   res.Plan.Degraded,
	}
	// Memory is per-GPU: the worst stage's footprint bounds the machine.
	s.StageMemory = make([]memplan.Report, len(res.Stages))
	for i, stg := range res.Stages {
		s.StageMemory[i] = memplan.Plan(stg.Sharded, opts.Mem)
		if s.StageMemory[i].PeakBytes > s.Memory.PeakBytes {
			s.Memory = s.StageMemory[i]
		}
	}
	return s, nil
}

// Simulate runs one training iteration of the partitioned graph on the
// simulated machine and reports timing, throughput and memory. The memory is
// the summary's: the report Partition planned under its Options.Mem (per
// stage for a hybrid summary), which Simulate does not plan again. RunOptions
// are forwarded to the simulator instead of silently passing the zero value
// (DisableComm for compute-only breakdowns, Replicas for data-parallel
// baselines). Hybrid summaries route through the pipelined model with a
// guaranteed-feasible micro-batch count (an explicit infeasible
// Options.Pipeline.MicroBatches falls back to 1; SimulatePipeline is the
// strict variant).
func Simulate(s *Summary, batch int64, opts Options, ro sim.RunOptions) sim.Result {
	if s.Hybrid != nil {
		m := 0
		if opts.Pipeline != nil {
			m = opts.Pipeline.MicroBatches
		}
		if m < 1 || int64(m) > batch || batch%int64(m) != 0 {
			m = defaultMicroBatches(batch, len(s.Hybrid.Stages))
		}
		r, err := simulatePipeline(s, batch, m, opts, ro)
		if err != nil {
			// Unreachable: m was normalized feasible and the stages carry
			// their execution structures.
			return sim.Result{}
		}
		return r
	}
	return sim.Run(s.Sharded, opts.topology(), batch, s.Memory, ro)
}

// SimulatePipeline prices a hybrid summary's pipelined execution with the
// requested micro-batch count (Options.Pipeline.MicroBatches; 0 picks
// defaultMicroBatches). Unlike Simulate it rejects infeasible splits.
func SimulatePipeline(s *Summary, batch int64, opts Options, ro sim.RunOptions) (sim.Result, error) {
	if s.Hybrid == nil {
		return sim.Result{}, fmt.Errorf("core: summary has no pipeline stages")
	}
	m := 0
	if opts.Pipeline != nil {
		m = opts.Pipeline.MicroBatches
	}
	if m == 0 {
		m = defaultMicroBatches(batch, len(s.Hybrid.Stages))
	}
	return simulatePipeline(s, batch, m, opts, ro)
}

func simulatePipeline(s *Summary, batch int64, microBatches int, opts Options, ro sim.RunOptions) (sim.Result, error) {
	stages := make([]sim.PipelineStage, len(s.Hybrid.Stages))
	for i, stg := range s.Hybrid.Stages {
		stages[i] = sim.PipelineStage{
			Sharded:          stg.Sharded,
			Topo:             stg.Topo,
			Mem:              s.StageMemory[i],
			HandoffBytes:     stg.HandoffBytes,
			HandoffBandwidth: stg.HandoffBandwidth,
		}
	}
	return sim.RunPipelineStages(stages, batch, microBatches, ro)
}

// defaultMicroBatches picks one micro-batch per stage when the batch splits
// evenly, else the whole batch at once — always feasible.
func defaultMicroBatches(batch int64, stages int) int {
	if stages >= 1 && int64(stages) <= batch && batch%int64(stages) == 0 {
		return stages
	}
	return 1
}
