// Package tofu is a from-scratch Go reproduction of Tofu, the automatic
// dataflow-graph partitioner of "Supporting Very Large Models using
// Automatic Dataflow Graph Partitioning" (Wang, Huang, Li — EuroSys 2019).
//
// Tofu trains DNN models too large for one GPU by partitioning every tensor
// and operator of a fine-grained dataflow graph across devices. Operators
// are described in TDL, a Halide-inspired tensor description language; a
// symbolic interval analysis derives each operator's partition-n-reduce
// strategies; a recursive dynamic program over the coarsened graph picks the
// plan minimizing total communication; and a generator materializes the
// per-worker execution. Because the original testbed (8x NVIDIA K80) is
// hardware, this library ships a calibrated discrete-event simulator that
// reproduces the paper's comparisons; see DESIGN.md for the substitution
// map and EXPERIMENTS.md for paper-vs-measured results.
//
// Quick start:
//
//	m, _ := tofu.RNN(6, 4096, 512, 20)
//	summary, _ := tofu.Partition(m.G, 8)
//	res := tofu.Simulate(summary, m.Batch, tofu.DefaultPipelineOptions(), nil)
//	fmt.Printf("%.0f samples/s, %.1f GB/GPU\n",
//	    res.Throughput, float64(summary.Memory.PeakBytes)/(1<<30))
package tofu

import (
	"fmt"
	"io"
	"time"

	"tofu/internal/baselines"
	"tofu/internal/cancel"
	"tofu/internal/core"
	"tofu/internal/graph"
	"tofu/internal/models"
	"tofu/internal/obs"
	"tofu/internal/partition"
	"tofu/internal/plan"
	"tofu/internal/service"
	"tofu/internal/shape"
	"tofu/internal/sim"
	"tofu/internal/tdl"
	"tofu/internal/topo"
)

// Re-exported core types. Aliases keep the internal packages as the single
// source of truth while giving users one import.
type (
	// Graph is a fine-grained tensor dataflow graph (the MXNet role).
	Graph = graph.Graph
	// Tensor is one dataflow edge.
	Tensor = graph.Tensor
	// Node is one operator instance.
	Node = graph.Node
	// Attrs parameterizes operator instances (stride, slice offsets, ...).
	Attrs = tdl.Attrs
	// Shape is a dense tensor shape.
	Shape = shape.Shape
	// Model is a benchmark training graph with metadata.
	Model = models.Model
	// ModelConfig identifies a benchmark model variant.
	ModelConfig = models.Config
	// Plan is a recursive partition plan.
	Plan = plan.Plan
	// Summary is the result of the end-to-end pipeline.
	Summary = core.Summary
	// Topology describes a (possibly hierarchical) simulated machine:
	// per-GPU parameters plus an ordered interconnect hierarchy. A flat
	// machine is a Topology with one level.
	Topology = topo.Topology
	// TopologyLevel is one interconnect tier of a Topology.
	TopologyLevel = topo.Level
	// SimResult is one simulated training iteration.
	SimResult = sim.Result
	// PipelineSpec requests the joint hybrid-parallelism search via
	// PipelineOptions.Pipeline.
	PipelineSpec = core.PipelineSpec
	// System names a baseline system for comparisons.
	System = baselines.System
	// Outcome is one (model, system) evaluation.
	Outcome = baselines.Outcome
	// TraceSpan is one node of a search trace: a named, timed span with
	// attributes and children. A nil *TraceSpan is a valid, allocation-free
	// no-op everywhere one is accepted — set PipelineOptions.Trace to a
	// NewTraceSpan root to record the search, leave it nil to record nothing.
	TraceSpan = obs.Span
	// Timeline collects a simulated run's virtual-clock execution events
	// (compute and per-level transfer lanes, pipeline stage slots). As with
	// TraceSpan, nil disables recording at zero cost.
	Timeline = obs.Timeline
	// CancelToken is the cooperative cancellation token bounding a search.
	// A nil token never cancels and costs one pointer comparison per poll —
	// set PipelineOptions.Cancel to a SearchDeadline token to bound the
	// search, leave it nil for the proven optimum.
	CancelToken = cancel.Token
	// OpDesc is a TDL operator description.
	OpDesc = tdl.OpDesc
	// OpBuilder assembles TDL descriptions fluently.
	OpBuilder = tdl.Builder
	// ReduceAxisBinding binds a reduction axis to its extent.
	ReduceAxisBinding = tdl.ReduceAxis
)

// Baseline systems (Sec 7.1 and 7.3).
const (
	Ideal         = baselines.Ideal
	SmallBatch    = baselines.SmallBatch
	Swap          = baselines.Swap
	OpPlacement   = baselines.OpPlacement
	TFOpPlacement = baselines.TFOpPlacement
	TofuSystem    = baselines.Tofu
	AllRowGreedy  = baselines.AllRowGreedy
	Spartan       = baselines.Spartan
	EqualChop     = baselines.EqualChop
	ICML18        = baselines.ICML18
	HierNaive     = baselines.HierNaive
)

// NewGraph creates an empty dataflow graph bound to the standard operator
// registry (every operator the model zoo uses, plus extras).
func NewGraph() *Graph { return graph.New() }

// ShapeOf builds a shape from extents.
func ShapeOf(dims ...int64) Shape { return shape.Of(dims...) }

// MLP, RNN and WResNet build the paper's benchmark training graphs
// (forward + loss + backward + Adam update).
func MLP(layers int, dim, batch int64) (*Model, error) { return models.MLP(layers, dim, batch) }

// RNN builds the multi-layer LSTM benchmark unrolled for steps timesteps.
func RNN(layers int, hidden, batch int64, steps int) (*Model, error) {
	return models.RNN(layers, hidden, batch, steps)
}

// WResNet builds the Wide ResNet benchmark (depth 50/101/152, widened 4-10x).
func WResNet(depth int, widen, batch int64) (*Model, error) {
	return models.WResNet(depth, widen, batch)
}

// BuildModel constructs a benchmark model from a config.
func BuildModel(c ModelConfig) (*Model, error) { return models.Build(c) }

// UnmarshalModelConfig strictly decodes the canonical ModelConfig JSON form
// — the one the CLIs' -model-json flag and the tofu-serve request body
// share. Unknown fields, trailing data and invalid configs are errors.
func UnmarshalModelConfig(data []byte) (ModelConfig, error) { return models.ParseConfig(data) }

// MarshalModelConfig encodes a config into its canonical one-line JSON form:
// fixed field order, no insignificant whitespace. Equal configs marshal to
// identical bytes; this is the form PlanDigest hashes.
func MarshalModelConfig(c ModelConfig) ([]byte, error) { return c.CanonicalJSON() }

// ReadModelConfig loads a canonical config document from a file path (or
// stdin when arg is "-") — the -model-json convention every CLI shares.
func ReadModelConfig(arg string) (ModelConfig, error) { return models.ReadConfig(arg) }

// PlanDigest returns the content digest ("sha256:<64 hex>") identifying the
// partition request (model, worker count, machine, search restrictions —
// everything that can change the chosen plan, and nothing that cannot; in
// particular search parallelism is excluded because plans are byte-identical
// at any setting). It is the tofu-serve plan-cache key: a plan computed
// locally under the same request carries the same digest the service files
// its cached copy under.
//
// Options outside the service's request surface that could change the plan
// (a StrategyFilter, a non-float32 DType, a Search-level topology override)
// are errors rather than silently excluded: two different plans must never
// share a digest.
func PlanDigest(c ModelConfig, k int64, opts PipelineOptions) (string, error) {
	if opts.Search.StrategyFilter != nil {
		return "", fmt.Errorf("tofu: PlanDigest: Search.StrategyFilter is not content-addressable")
	}
	if opts.Search.DType != shape.Float32 {
		return "", fmt.Errorf("tofu: PlanDigest: non-default DType %v is not content-addressable", opts.Search.DType)
	}
	if opts.Search.Topology != nil {
		return "", fmt.Errorf("tofu: PlanDigest: set the machine via PipelineOptions.Topology, not Search.Topology")
	}
	req := service.Request{
		Model:         c,
		Workers:       k,
		Topology:      opts.Topology,
		MaxStates:     opts.Search.MaxStates,
		Factors:       opts.Search.Factors,
		TopologyNaive: opts.Search.TopologyNaive,
	}
	if opts.Pipeline != nil {
		// Only the stage level reaches the digest: micro-batch counts change
		// simulation, never plan bytes.
		req.Pipeline = &service.PipelineRequest{Level: opts.Pipeline.Level}
	}
	if b := opts.Cancel.Budget(); b > 0 {
		// A deadline-bounded search may legitimately return a degraded
		// incumbent, so the budget is part of the request's content. Tokens
		// without a declared budget (plain Cancel, poll-counted test tokens)
		// are effort-only and deliberately excluded, like parallelism.
		req.DeadlineMs = b.Milliseconds()
	}
	return req.Digest()
}

// Partition runs the full Tofu pipeline (strategy discovery, coarsening,
// recursive DP search, partitioned-graph generation, memory planning) for k
// workers with default options.
func Partition(g *Graph, k int64) (*Summary, error) {
	return core.Partition(g, k, core.DefaultOptions())
}

// PartitionWithOptions exposes the pipeline's knobs (search restrictions
// and parallelism, generation optimizations, memory planner, hardware
// model). The search fans its DP sweep across Search.Parallelism worker
// goroutines (0 = GOMAXPROCS) with a deterministic merge, so the chosen
// plan is byte-identical for every setting.
func PartitionWithOptions(g *Graph, k int64, opts core.Options) (*Summary, error) {
	return core.Partition(g, k, opts)
}

// PipelineOptions re-exports the pipeline knobs.
type PipelineOptions = core.Options

// DefaultPipelineOptions matches the full system.
func DefaultPipelineOptions() PipelineOptions { return core.DefaultOptions() }

// Simulate executes one training iteration of the partitioned graph under
// the pipeline options the summary was produced with — the hardware
// topology and memory planner in particular — recording the run's
// virtual-clock execution events into tl (nil tl records nothing; the
// priced result is identical either way). A hybrid summary is priced as a
// micro-batched pipeline (Options.Pipeline.MicroBatches; 0 or an infeasible
// count picks one micro-batch per stage when the batch divides, else one).
func Simulate(s *Summary, batch int64, opts PipelineOptions, tl *Timeline) SimResult {
	return core.Simulate(s, batch, opts, sim.RunOptions{Timeline: tl})
}

// NewTraceSpan starts a root trace span. Hand it to PipelineOptions.Trace
// before Partition, call End after, and export with WriteChromeTrace or
// render with SpanTree. Span timestamps are display-only: the chosen plan
// is byte-identical with or without tracing.
func NewTraceSpan(name string) *TraceSpan { return obs.NewSpan(name) }

// SearchDeadline arms a wall-clock budget for a search: assign the token to
// PipelineOptions.Cancel and call stop once the search returns. On expiry
// the search stops at its next poll point and returns the best incumbent
// found so far with Summary.Degraded set (or the deadline error when
// nothing completed in budget). d <= 0 returns a nil token — unbounded, the
// plain byte-identical search. The budget (not the expiry instant) folds
// into PlanDigest, because a degraded incumbent is a different answer than
// the proven optimum.
func SearchDeadline(d time.Duration) (*CancelToken, func()) { return cancel.WithTimeout(d) }

// NewTimeline starts an empty execution timeline for Simulate. Its events
// carry virtual-clock (simulated) times, so exports are byte-deterministic.
func NewTimeline() *Timeline { return obs.NewTimeline() }

// WriteChromeTrace exports a search span tree and/or execution timeline
// (either may be nil) as Chrome trace_event JSON — loadable in
// chrome://tracing and Perfetto. Search spans render as process 1,
// simulated per-worker lanes as process 2.
func WriteChromeTrace(w io.Writer, root *TraceSpan, tl *Timeline) error {
	return obs.WriteChromeTrace(w, root, tl)
}

// SpanTree renders a span tree as indented human-readable text.
func SpanTree(root *TraceSpan) string { return obs.SpanTree(root) }

// TimelineSummary renders a timeline's lanes as human-readable text.
func TimelineSummary(tl *Timeline) string { return obs.TimelineSummary(tl) }

// DefaultTopology is the simulated p2.8xlarge the evaluation uses: a
// single-level topology of 8x 12 GB GPUs on 21 GB/s PCIe peer links.
func DefaultTopology() Topology { return topo.DefaultTopology() }

// TopologyProfile returns a machine from the built-in profile library
// (see TopologyProfiles).
func TopologyProfile(name string) (Topology, error) { return topo.Profile(name) }

// TopologyProfiles lists the built-in machine profiles.
func TopologyProfiles() []string { return topo.ProfileNames() }

// LoadTopology reads a user-defined machine from a topology JSON file
// (write one with Topology.WriteJSON).
func LoadTopology(path string) (Topology, error) { return topo.LoadTopology(path) }

// ResolveTopology interprets a -hw style argument: a built-in profile name
// or a path to a topology JSON file.
func ResolveTopology(arg string) (Topology, error) { return topo.ResolveTopology(arg) }

// EvaluateSystem runs one baseline system (or Tofu itself) on a benchmark
// model configuration — the building block of Figures 8-10 and Table 3. On
// a hierarchical topology partition searches become topology-aware and
// every transfer is priced at the interconnect level it crosses.
func EvaluateSystem(cfg ModelConfig, sys System, tp Topology) (Outcome, error) {
	return baselines.Evaluate(cfg, sys, tp)
}

// DescribeOp starts a TDL description for a custom operator; register the
// result with RegisterOp to make it partitionable.
func DescribeOp(name string) *OpBuilder { return tdl.Describe(name) }

// OpStrategies lists the basic partition strategies the analyzer discovers
// for a (possibly custom) operator — the automatic replacement for prior
// work's hand-written per-layer strategies.
func OpStrategies(name string, attrs Attrs) ([]string, error) {
	d, err := tdl.Std.Describe(name, attrs)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, s := range partition.Enumerate(d) {
		out = append(out, s.String())
	}
	return out, nil
}

// RegisterOp installs a custom operator description in the standard
// registry (see examples/customop).
func RegisterOp(d *OpDesc) error { return tdl.Std.RegisterStatic(d) }

// TDL expression constructors for custom operator descriptions.
var (
	// Ax names an index variable.
	Ax = tdl.Ax
	// At accesses an input tensor at affine indices.
	At = tdl.At
	// Mul/Add/Sub/Div build scalar arithmetic.
	Mul = tdl.Mul
	Add = tdl.Add
	Sub = tdl.Sub
	Div = tdl.Div
	// Reduce aggregates over reduction axes; Sum/Max/Min/Prod are the
	// built-in reducers.
	Reduce = tdl.Reduce
	// RVar binds a reduction axis to an extent.
	RVar = tdl.RVar
	// ExtentOf binds an extent to an input dimension.
	ExtentOf = tdl.ExtentOf
	// Apply applies a named scalar function elementwise.
	Apply = tdl.Apply
)

// Reducers.
const (
	Sum  = tdl.Sum
	Max  = tdl.Max
	Min  = tdl.Min
	Prod = tdl.Prod
)
