// Package baselines implements every system Tofu is compared against in the
// evaluation (Sec 7.1 and 7.3):
//
//   - Ideal: hypothetical infinite-memory single GPU, scaled by 8;
//   - SmallBatch: shrink the mini-batch until one GPU fits, scaled by 8;
//   - Swap: CPU-memory swapping with LRU + ideal prefetching;
//   - OpPlacement: whole layers round-robin across GPUs (MXNet flavor), and
//     the TensorFlow flavor without in-place gradient aggregation (Table 3);
//   - Tofu: the full recursive-search partitioner;
//   - AllRow-Greedy, Spartan, EqualChop, ICML18: the alternative partition
//     algorithms of Figure 10.
package baselines

import (
	"fmt"

	"tofu/internal/coarsen"
	"tofu/internal/dp"
	"tofu/internal/graphgen"
	"tofu/internal/memplan"
	"tofu/internal/models"
	"tofu/internal/partition"
	"tofu/internal/plan"
	"tofu/internal/recursive"
	"tofu/internal/shape"
	"tofu/internal/sim"
	"tofu/internal/topo"
)

// System names a baseline.
type System string

const (
	Ideal         System = "ideal"
	SmallBatch    System = "smallbatch"
	Swap          System = "swap"
	OpPlacement   System = "opplacement"
	TFOpPlacement System = "tf-opplacement"
	Tofu          System = "tofu"
	AllRowGreedy  System = "allrow-greedy"
	Spartan       System = "spartan"
	EqualChop     System = "equalchop"
	ICML18        System = "icml18"
	// HierNaive is the hierarchical-naive comparator of the cross-topology
	// experiments: the recursion's factors follow the machine hierarchy
	// innermost first with no bandwidth-weighted ordering search — the
	// layout a topology-blind runtime gets from default cyclic rank
	// placement, which parks the heaviest step on the slowest links. On a
	// flat machine it coincides with Tofu.
	HierNaive System = "hier-naive"
)

// Outcome is one (model, system) measurement.
type Outcome struct {
	System      System
	Model       string
	Batch       int64
	Throughput  float64 // samples/sec for the whole 8-GPU machine
	IterSeconds float64
	// ComputeSeconds is the communication-free execution time (Figure 10's
	// light bars).
	ComputeSeconds float64
	OOM            bool
	PeakBytes      int64
	CommBytes      float64 // plan communication (partition systems only)
}

// SearchOptions tune the partition-search half of an evaluation.
type SearchOptions struct {
	// Parallelism is the DP worker-pool size (0 = GOMAXPROCS, 1 = serial);
	// the chosen plan is identical for every setting.
	Parallelism int
	// Cache shares priced strategy enumerations between searches — across
	// the partition-algorithm variants over one model, and across recursive
	// steps within each (nil = a fresh cache per search).
	Cache *dp.PriceCache
}

// Evaluate runs one system on one model configuration at a fixed batch.
func Evaluate(cfg models.Config, sys System, tp topo.Topology) (Outcome, error) {
	return EvaluateWith(cfg, sys, tp, SearchOptions{})
}

// EvaluateWith is Evaluate with explicit search options.
func EvaluateWith(cfg models.Config, sys System, tp topo.Topology, so SearchOptions) (Outcome, error) {
	switch sys {
	case Ideal:
		return runSingle(cfg, sys, tp, false)
	case SmallBatch:
		return runSingle(cfg, sys, tp, true)
	case Swap:
		return runSwap(cfg, tp)
	case OpPlacement:
		return runPlacement(cfg, tp, false)
	case TFOpPlacement:
		return runPlacement(cfg, tp, true)
	case Tofu, AllRowGreedy, Spartan, EqualChop, ICML18, HierNaive:
		return runPartitioned(cfg, sys, tp, so)
	default:
		return Outcome{}, fmt.Errorf("baselines: unknown system %q", sys)
	}
}

// --- single-GPU family --------------------------------------------------

func runSingle(cfg models.Config, sys System, tp topo.Topology, fitMemory bool) (Outcome, error) {
	batch := cfg.Batch
	for {
		m, err := models.Build(withBatch(cfg, batch))
		if err != nil {
			return Outcome{}, err
		}
		sh, err := graphgen.Single(m.G)
		if err != nil {
			return Outcome{}, err
		}
		res := sim.Run(sh, tp, batch, memplan.Plan(sh, memplan.DefaultOptions()),
			sim.RunOptions{Replicas: tp.NumGPUs()})
		out := Outcome{
			System: sys, Model: m.Name, Batch: batch,
			Throughput: res.Throughput, IterSeconds: res.IterSeconds,
			ComputeSeconds: res.ComputeSeconds,
			PeakBytes:      res.Mem.PeakBytes, OOM: res.OOM,
		}
		if !fitMemory {
			out.OOM = false // Ideal assumes infinite memory (Sec 7.1)
			return out, nil
		}
		if !res.OOM {
			return out, nil
		}
		if batch <= 1 {
			out.Throughput = 0
			return out, nil // OOM even at batch 1
		}
		batch /= 2
	}
}

func runSwap(cfg models.Config, tp topo.Topology) (Outcome, error) {
	// Sec 7.1: Swapping "uses the largest batch size that makes the
	// execution fit in the GPU memory". When shrinking the batch could fit
	// the model, the swap system runs just past that point (twice the
	// SmallBatch batch) — a larger batch only adds host traffic on the
	// shared 10 GB/s link. When no batch fits (the weights alone exceed the
	// device), it runs the full batch: weight streaming dominates and a
	// larger batch amortizes it. Both reproduce the paper's measured
	// points.
	fit, err := runSingle(cfg, SmallBatch, tp, true)
	if err != nil {
		return Outcome{}, err
	}
	batch := fit.Batch * 2
	if fit.Throughput == 0 { // nothing fits without swapping
		batch = cfg.Batch
	}
	if batch > cfg.Batch {
		batch = cfg.Batch
	}
	m, err := models.Build(withBatch(cfg, batch))
	if err != nil {
		return Outcome{}, err
	}
	sh, err := graphgen.Single(m.G)
	if err != nil {
		return Outcome{}, err
	}
	res := sim.RunSwap(sh, tp, batch)
	return Outcome{
		System: Swap, Model: m.Name, Batch: batch,
		Throughput: res.Throughput, IterSeconds: res.IterSeconds,
		ComputeSeconds: res.ComputeSeconds,
		PeakBytes:      res.Mem.PeakBytes, OOM: res.OOM,
	}, nil
}

// --- operator placement ------------------------------------------------

func runPlacement(cfg models.Config, tp topo.Topology, tf bool) (Outcome, error) {
	sys := OpPlacement
	if tf {
		sys = TFOpPlacement
	}
	batch := cfg.Batch
	for {
		m, err := models.Build(withBatch(cfg, batch))
		if err != nil {
			return Outcome{}, err
		}
		res, err := sim.RunPipeline(m.G, tp, batch, sim.PipelineOptions{TFMode: tf})
		if err != nil {
			return Outcome{}, err
		}
		out := Outcome{
			System: sys, Model: m.Name, Batch: batch,
			Throughput: res.Throughput, IterSeconds: res.IterSeconds,
			ComputeSeconds: res.ComputeSeconds,
			PeakBytes:      res.Mem.PeakBytes, OOM: res.OOM,
		}
		if !res.OOM {
			return out, nil
		}
		if batch <= 1 {
			out.Throughput = 0
			return out, nil
		}
		batch /= 2
	}
}

// --- partitioned family -----------------------------------------------

func runPartitioned(cfg models.Config, sys System, tp topo.Topology, so SearchOptions) (Outcome, error) {
	if so.Cache == nil {
		// Batch-halving retries rebuild the model with divided shapes;
		// sharing one cache across them still deduplicates the shapes that
		// repeat (weights don't depend on the batch).
		so.Cache = dp.NewPriceCache()
	}
	batch := cfg.Batch
	for {
		m, err := models.Build(withBatch(cfg, batch))
		if err != nil {
			return Outcome{}, err
		}
		p, err := PlanForOn(m, sys, tp, so)
		if err != nil {
			// Heuristics can be infeasible (e.g. AllRow-Greedy on a batch
			// already smaller than the worker count).
			if batch > 1 {
				batch /= 2
				continue
			}
			return Outcome{System: sys, Model: m.Name, Batch: batch, OOM: true}, nil
		}
		sh, err := graphgen.Generate(m.G, p, graphgen.DefaultOptions())
		if err != nil {
			return Outcome{}, err
		}
		res := sim.Run(sh, tp, batch, memplan.Plan(sh, memplan.DefaultOptions()), sim.RunOptions{})
		out := Outcome{
			System: sys, Model: m.Name, Batch: batch,
			Throughput: res.Throughput, IterSeconds: res.IterSeconds,
			ComputeSeconds: res.ComputeSeconds,
			PeakBytes:      res.Mem.PeakBytes, OOM: res.OOM,
			CommBytes: p.TotalComm(),
		}
		if !res.OOM {
			return out, nil
		}
		if batch <= 1 {
			out.Throughput = 0
			return out, nil
		}
		batch /= 2
	}
}

// PlanFor produces the partition plan a given algorithm finds for a model
// on a flat k-worker machine.
func PlanFor(m *models.Model, sys System, k int64) (*plan.Plan, error) {
	return PlanForOpts(m, sys, k, SearchOptions{})
}

// PlanForOpts is PlanFor with explicit search options.
func PlanForOpts(m *models.Model, sys System, k int64, so SearchOptions) (*plan.Plan, error) {
	return planFor(m, sys, k, nil, so)
}

// PlanForOn plans on an explicit machine: hierarchical topologies make
// Tofu's search topology-aware (bandwidth-weighted factor-to-level
// ordering), and every plan comes back annotated with the interconnect
// level each step crosses. Strategy pricing is filter-independent (filters
// restrict a cached full enumeration), so one cache can serve every
// algorithm variant over the same model.
func PlanForOn(m *models.Model, sys System, tp topo.Topology, so SearchOptions) (*plan.Plan, error) {
	return planFor(m, sys, int64(tp.NumGPUs()), &tp, so)
}

func planFor(m *models.Model, sys System, k int64, tp *topo.Topology, so SearchOptions) (*plan.Plan, error) {
	base := recursive.Options{Parallelism: so.Parallelism, Cache: so.Cache, Topology: tp}
	annotate := func(p *plan.Plan, err error) (*plan.Plan, error) {
		if err == nil && tp != nil {
			tp.AssignLevels(p)
		}
		return p, err
	}
	switch sys {
	case Tofu:
		return recursive.Partition(m.G, k, base)
	case HierNaive:
		opts := base
		opts.TopologyNaive = true
		return recursive.Partition(m.G, k, opts)
	case ICML18:
		// The ICML18 DP lacks output-reduction strategies (Sec 7.3).
		opts := base
		opts.StrategyFilter = func(s partition.Strategy) bool {
			return s.Kind != partition.SplitReduce
		}
		return recursive.Partition(m.G, k, opts)
	case EqualChop:
		// Tofu's DP, but each tensor chopped along one dimension in a
		// single k-way step.
		opts := base
		opts.Factors = []int64{k}
		return recursive.Partition(m.G, k, opts)
	case AllRowGreedy:
		return annotate(heuristicPlan(m, k, so, allRowAssign))
	case Spartan:
		return annotate(heuristicPlan(m, k, so, spartanAssign))
	default:
		return nil, fmt.Errorf("baselines: %q is not a partition algorithm", sys)
	}
}

func withBatch(cfg models.Config, b int64) models.Config {
	cfg.Batch = b
	return cfg
}

// heuristicPlan evaluates a heuristic variable assignment as a single k-way
// step and wraps it in a plan.
func heuristicPlan(m *models.Model, k int64, so SearchOptions,
	assignFn func(*dp.Evaluator, *coarsen.Coarse) (map[int]int, error)) (*plan.Plan, error) {

	c, err := coarsen.Coarsen(m.G)
	if err != nil {
		return nil, err
	}
	shapes := make(map[int]shape.Shape, len(m.G.Tensors))
	for _, t := range m.G.Tensors {
		shapes[t.ID] = t.Shape.Clone()
	}
	prob := &dp.Problem{Coarse: c, K: k, Shapes: shapes, DType: shape.Float32,
		Parallelism: so.Parallelism, Cache: so.Cache}
	ev, err := dp.NewEvaluator(prob)
	if err != nil {
		return nil, err
	}
	assign, err := assignFn(ev, c)
	if err != nil {
		return nil, err
	}
	res, err := ev.Result(assign)
	if err != nil {
		return nil, err
	}

	final := make(map[int]shape.Shape, len(shapes))
	for tid, s := range shapes {
		if d := res.TensorCut[tid]; d >= 0 {
			ns, err := s.Split(d, k)
			if err != nil {
				return nil, err
			}
			final[tid] = ns
		} else {
			final[tid] = s
		}
	}
	return &plan.Plan{
		K: k,
		Steps: []*plan.Step{{
			K: k, Multiplier: 1,
			VarCut: assign, TensorCut: res.TensorCut,
			OpStrategy: res.OpStrategy, OpComm: res.OpComm,
			CommBytes: res.CommBytes,
		}},
		FinalShapes: final,
	}, nil
}

// allRowAssign partitions every tensor along its first dimension — the
// "one-weird-trick"-like heuristic of Sec 7.3. Variables whose first
// dimension does not divide evenly are infeasible and fail the plan.
func allRowAssign(ev *dp.Evaluator, c *coarsen.Coarse) (map[int]int, error) {
	assign := map[int]int{}
	for _, v := range c.Vars {
		if v.First < 0 {
			continue
		}
		dims := ev.Configs(v.ID)
		if len(dims) == 0 {
			return nil, fmt.Errorf("baselines: variable %v cannot be partitioned", v)
		}
		if dims[0] != 0 {
			return nil, fmt.Errorf("baselines: AllRow-Greedy cannot row-partition %v", v)
		}
		assign[v.ID] = 0
	}
	return assign, nil
}

// spartanAssign greedily partitions the largest tensor first, picking for
// each the dimension that minimizes the cost of its incident operators
// given the decisions made so far (Huang et al., ATC'15).
func spartanAssign(ev *dp.Evaluator, c *coarsen.Coarse) (map[int]int, error) {
	// Seed every variable with its first viable dimension so incident-cost
	// queries are total; the greedy pass then refines in size order.
	assign := map[int]int{}
	order := make([]*coarsen.Var, 0, len(c.Vars))
	for _, v := range c.Vars {
		if v.First < 0 {
			continue
		}
		dims := ev.Configs(v.ID)
		if len(dims) == 0 {
			return nil, fmt.Errorf("baselines: variable %v cannot be partitioned", v)
		}
		assign[v.ID] = dims[0]
		order = append(order, v)
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if order[j].Bytes() > order[i].Bytes() {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	for _, v := range order {
		bestDim, bestCost := assign[v.ID], -1.0
		for _, d := range ev.Configs(v.ID) {
			assign[v.ID] = d
			cost, err := ev.VarCost(v.ID, assign)
			if err != nil {
				return nil, err
			}
			if bestCost < 0 || cost < bestCost {
				bestDim, bestCost = d, cost
			}
		}
		assign[v.ID] = bestDim
	}
	return assign, nil
}
