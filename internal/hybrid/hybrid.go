// Package hybrid implements the joint hybrid-parallelism search: segment the
// coarsened graph into contiguous pipeline stages mapped onto a slow
// interconnect level, run the existing topology-aware partition search within
// each stage on the fast sub-machine, and search the stage boundaries with
// branch-and-bound (the RaNNC-style staging of PAPERS.md applied to Tofu's
// recursive DP).
//
// The performance core is a segment memo searched lazily: a depth-L coarsened
// graph has only O(L²) distinct contiguous segments, each segment's partition
// search runs at most once — and not at all when a structurally identical
// segment (equal coarsen.Coarse.AppendStructKey) was solved before it at the
// same level — and the boundary problem is a shortest path through
// the (stage, boundary) DAG whose edges start at admissible per-group floors
// and turn exact only when the cheapest estimated path crosses them (search.go).
// Pruning is strict and ties break by the exhaustive enumeration's
// lexicographic order, so the chosen plan is the exhaustive enumeration's at
// any Parallelism (the tests hold it to one that shares no code with the
// search).
//
//tofu:searchpath reachable from dp.Solve / recursive.Partition; nodeterm enforces determinism
package hybrid

import (
	"fmt"
	"math"
	"sort"

	"tofu/internal/cancel"
	"tofu/internal/coarsen"
	"tofu/internal/dp"
	"tofu/internal/graph"
	"tofu/internal/graphgen"
	"tofu/internal/obs"
	"tofu/internal/plan"
	"tofu/internal/recursive"
	"tofu/internal/shape"
	"tofu/internal/topo"
)

// Options tune the joint search.
type Options struct {
	// Topology is the machine (required, hierarchical): stages map onto the
	// chosen level's groups, each stage's partition search runs on the
	// sub-machine below that level.
	Topology *topo.Topology
	// Level is the interconnect level the pipeline stages straddle
	// (1..len(Levels)-1). 0 searches every candidate level and keeps the
	// cheapest (ties to the innermost).
	Level int
	// DType prices communication (zero value = float32, as everywhere).
	DType shape.DType
	// MaxStates bounds each stage DP's frontier (see dp.Problem.MaxStates).
	MaxStates int
	// Parallelism is the per-stage DP worker count; the chosen plan is
	// byte-identical at any setting (the boundary search itself is serial
	// and deterministic).
	Parallelism int
	// Gen configures the per-stage execution structures (Sec 6 toggles). Its
	// zero value is the all-off ablation (no MultiFetch, ControlDeps or
	// SpreadReduction); graphgen.DefaultOptions() is the real system, which
	// core.DefaultOptions sets.
	Gen graphgen.Options
	// Cache shares priced strategy enumerations across segments and stages
	// (nil = one fresh cache for this search; segments still share it).
	Cache *dp.PriceCache
	// Stats, when non-nil, receives the search-effort counters.
	Stats *Stats
	// Trace, if non-nil, records the joint search's span tree: "coarsen",
	// per-candidate-level "hybrid.level" spans, and under each a
	// "hybrid.segment" span per memoized segment. A segment span wraps the
	// segment's whole preparation — its coarsening (coarsen.Coarse.
	// SegmentTransient, a "coarsen" child carrying its group count) and
	// its structural key — and then its full recursive search, or is marked
	// memo_hit=1 when the structural memo served it. A level span carries
	// seed_rounds (seed rounds started), segments (solved at that level),
	// segment_hits (served by the memo) and skipped=1 when an earlier level's
	// best cut it before any solve. A "hybrid.assemble" span (stages: the
	// winner's stage count) wraps materializing the winning stages. nil
	// records nothing and costs nothing; spans never influence the chosen
	// plan.
	Trace *obs.Span
	// Cancel, if non-nil, is polled at every seed round and boundary-tree node
	// and plumbed into each segment's recursive search. On a tripped token the
	// search returns its best incumbent (the first seed round counts) marked
	// plan.Degraded, or the token's reason when nothing completed. nil (the
	// default) costs a pointer comparison per poll.
	Cancel *cancel.Token
}

// Stats reports the joint search's effort.
type Stats struct {
	// Level and Stages describe the winning configuration: the interconnect
	// level the pipeline straddles and how many stages it has.
	Level  int `json:"level"`
	Stages int `json:"stages"`
	// BoundarySets is the search-space size summed over the levels tried:
	// C(L-1, S-1) candidate boundary sets per level.
	BoundarySets int64 `json:"boundary_sets"`
	// Leaves is how many complete boundary sets the tree walk costed; Expanded
	// and Pruned count boundary-tree nodes expanded vs discarded — because
	// their admissible bound exceeded the incumbent or an earlier level's
	// best, or (dominance cuts) an earlier visit to the same state was cheaper.
	Leaves   int64 `json:"leaves"`
	Expanded int64 `json:"expanded"`
	Pruned   int64 `json:"pruned"`
	// Segments counts the contiguous segments whose partition search
	// actually ran (failed ones included) — at most the memo's O(L²)
	// ceiling, and fewer by every segment the structural memo served.
	Segments int64 `json:"segments"`
	// DPSolves is the number of DP sweeps run across all solved segments, and
	// Replays the steps their step memos served instead (see
	// recursive.SearchStats). FlatDPSolves is what exhaustive boundary
	// enumeration without the segment memo would have run: boundary sets ×
	// stages × recursion depth, saturating.
	DPSolves     int64 `json:"dp_solves"`
	Replays      int64 `json:"replays,omitempty"`
	FlatDPSolves int64 `json:"flat_dp_solves"`
	// LBQueries counts admissible lower-bound evaluations: the per-group
	// dp.LowerBound table (one query per group and distinct factor, shared by
	// every candidate level) plus every read of a level's cost-to-go table.
	LBQueries int64 `json:"lb_queries"`
	// BestCost is the winning modeled communication time in seconds:
	// Σ per-stage bandwidth-weighted comm + Σ boundary hand-offs.
	BestCost float64 `json:"best_cost"`
}

// Stage is one pipeline stage of the chosen plan.
type Stage struct {
	// Groups is the [lo, hi) coarsened-group range this stage executes.
	Groups [2]int
	// Workers is the stage's GPU count (the sub-machine size).
	Workers int64
	// Topo is the stage sub-machine (the machine's levels below the stage
	// level).
	Topo topo.Topology
	// G is the whole graph: a stage is its nodes in Groups, never a copy.
	G *graph.Graph
	// Plan is the stage's partition plan in G's IDs: its dense tables span
	// the whole graph, uncut and strategy-less outside the stage, and the
	// combined plan's steps share them. Its final shapes cover the tensors
	// the stage's nodes touch, and its steps keep their VarCut, in variable
	// IDs of the stage's segment view.
	Plan *plan.Plan
	// Sharded is the stage's per-worker execution structure: the stage's
	// nodes of G in ascending ID; what they read and no stage node writes
	// is a feed (graphgen.GenerateStage).
	Sharded *graphgen.Sharded
	// HandoffBytes is the tensor traffic crossing into the next stage each
	// iteration (0 for the last stage); HandoffBandwidth is the per-GPU
	// bandwidth of the link it crosses.
	HandoffBytes     float64
	HandoffBandwidth float64
}

// Result is the outcome of the joint search.
type Result struct {
	// Plan is the combined stage-annotated plan in full-graph IDs.
	Plan *plan.Plan
	// Level is the chosen stage interconnect level.
	Level int
	// Cost is the modeled communication time per iteration (seconds).
	Cost float64
	// Stages lists the chosen stages in group order.
	Stages []Stage
	// Stats is the search effort.
	Stats Stats
}

// Partition runs the joint hybrid-parallelism search for a training graph on
// a hierarchical machine with k = Topology.NumGPUs() workers. It is
// recursive.Coarsen followed by PartitionCoarse.
func Partition(g *graph.Graph, k int64, opts Options) (*Result, error) {
	c, err := recursive.Coarsen(g, opts.Trace)
	if err != nil {
		return nil, err
	}
	return PartitionCoarse(c, k, opts)
}

// PartitionCoarse is Partition over an already coarsened graph (c.G): the
// search alone, with no "coarsen" span of its own.
func PartitionCoarse(c *coarsen.Coarse, k int64, opts Options) (*Result, error) {
	tp := opts.Topology
	if tp == nil {
		return nil, fmt.Errorf("hybrid: a topology is required")
	}
	if err := tp.Validate(); err != nil {
		return nil, fmt.Errorf("hybrid: %w", err)
	}
	if !tp.Hierarchical() {
		return nil, fmt.Errorf("hybrid: topology %q is flat; pipeline stages need a level to straddle", tp.Name)
	}
	if got := int64(tp.NumGPUs()); got != k {
		return nil, fmt.Errorf("hybrid: topology %q has %d GPUs, want %d workers", tp.Name, got, k)
	}
	if opts.Level < 0 || opts.Level >= len(tp.Levels) {
		return nil, fmt.Errorf("hybrid: stage level %d out of range [1, %d] (0 = auto)",
			opts.Level, len(tp.Levels)-1)
	}
	if len(c.Groups) < 2 {
		return nil, fmt.Errorf("hybrid: graph coarsens to %d group(s); pipelining needs at least 2", len(c.Groups))
	}
	cache := opts.Cache
	if cache == nil {
		cache = dp.NewPriceCache()
	}
	s := newSearch(c, *tp, opts, cache)

	levels := []int{opts.Level}
	if opts.Level == 0 {
		levels = levels[:0]
		for l := 1; l < len(tp.Levels); l++ {
			levels = append(levels, l)
		}
	}
	var bestLS *levelState
	for _, level := range levels {
		if opts.Cancel.Cancelled() {
			s.cancelled = true
			break
		}
		lsp := opts.Trace.Child("hybrid.level")
		lsp.SetInt("level", int64(level))
		ls, err := s.newLevelState(level)
		if err != nil {
			s.addErr(err)
			lsp.End()
			continue
		}
		ls.trace = lsp
		bestLS = ls.contend(bestLS)
		lsp.End()
	}
	if bestLS == nil {
		if s.cancelled {
			return nil, cancel.Reason(opts.Cancel.Err(), "hybrid: cancelled before any stage assignment completed")
		}
		return nil, s.infeasibleErr()
	}
	s.stats.Level = bestLS.level
	s.stats.Stages = bestLS.S
	s.stats.BestCost = bestLS.bestCost
	asp := opts.Trace.Child("hybrid.assemble")
	asp.SetInt("stages", int64(bestLS.S))
	res, err := s.assemble(bestLS)
	asp.End()
	if err != nil {
		return nil, err
	}
	res.Stats = s.stats
	if opts.Stats != nil {
		*opts.Stats = s.stats
	}
	return res, nil
}

// newSearch sets up the level-independent state of a search over c.
func newSearch(c *coarsen.Coarse, tp topo.Topology, opts Options, cache *dp.PriceCache) *search {
	s := &search{g: c.G, c: c, tp: tp, opts: opts, cache: cache, floors: make([]groupBounds, len(c.Groups))}
	s.buildGroupOf()
	s.buildHandoffs()
	return s
}

// search holds the level-independent state of one Partition call.
type search struct {
	g     *graph.Graph
	c     *coarsen.Coarse
	tp    topo.Topology
	opts  Options
	cache *dp.PriceCache

	// groupOf maps full-graph node ID to its coarsened group index.
	groupOf []int
	// xb[b] is the tensor traffic crossing group boundary b (between groups
	// b-1 and b), for b in [1, L-1] — level-independent.
	xb []float64

	// scratch is the working memory every segment coarsening borrows: it
	// indexes the root coarsening once, on the first segment, and holds the
	// one transient segment alive at a time; the boundary search is serial.
	scratch coarsen.SegmentScratch
	// floors[g] is what every level's groupFloor shares of group g.
	floors []groupBounds

	stats   Stats
	errs    []error
	errSeen map[string]bool
	// cancelled flips when the token trips (polled here or surfaced by a
	// cancelled segment search); the walk winds down and the incumbent — if
	// any — ships as a degraded plan.
	cancelled bool
}

func (s *search) buildGroupOf() {
	s.groupOf = make([]int, len(s.g.Nodes))
	for gi, grp := range s.c.Groups {
		for _, sl := range grp.Slots {
			for _, op := range sl.Ops {
				s.groupOf[op.ID] = gi
			}
		}
	}
}

// buildHandoffs computes the per-boundary crossing traffic: every produced
// tensor contributes its bytes to each group boundary between the earliest
// and latest group touching it (activations flow forward, gradients
// backward; both transit every boundary in between). Producer-less tensors
// (inputs, weights, optimizer state) are stage-resident feeds and never
// cross.
func (s *search) buildHandoffs() {
	L := len(s.c.Groups)
	diff := make([]float64, L+1)
	for _, t := range s.g.Tensors {
		if t.Producer == nil || len(t.Consumers) == 0 {
			continue
		}
		gmin := s.groupOf[t.Producer.ID]
		gmax := gmin
		for _, cn := range t.Consumers {
			gc := s.groupOf[cn.ID]
			if gc < gmin {
				gmin = gc
			}
			if gc > gmax {
				gmax = gc
			}
		}
		if gmin == gmax {
			continue
		}
		b := float64(t.Bytes())
		diff[gmin+1] += b
		diff[gmax+1] -= b
	}
	s.xb = make([]float64, L)
	run := 0.0
	for b := 1; b < L; b++ {
		run += diff[b]
		s.xb[b] = run
	}
}

func (s *search) addErr(err error) {
	if err == nil {
		return
	}
	if cancel.IsCancellation(err) {
		// A cancelled segment proves nothing about feasibility; keep the
		// reason out of the diagnostics and wind the walk down.
		s.cancelled = true
		return
	}
	if s.errSeen == nil {
		s.errSeen = make(map[string]bool)
	}
	msg := err.Error()
	if s.errSeen[msg] {
		return
	}
	s.errSeen[msg] = true
	s.errs = append(s.errs, err)
}

// infeasibleErr aggregates the distinct failure reasons in sorted order, so
// a fully infeasible search reports every way it failed deterministically.
func (s *search) infeasibleErr() error {
	if len(s.errs) == 0 {
		return fmt.Errorf("hybrid: no feasible stage assignment on topology %q", s.tp.Name)
	}
	msgs := make([]string, len(s.errs))
	for i, e := range s.errs {
		msgs[i] = e.Error()
	}
	sort.Strings(msgs)
	out := fmt.Sprintf("hybrid: no feasible stage assignment on topology %q:", s.tp.Name)
	for _, m := range msgs {
		out += "\n  " + m
	}
	return fmt.Errorf("%s", out)
}

// pruneSlack mirrors the ordering search's float guard: bounds within this
// slack of the incumbent are never pruned, so floating-point noise can only
// cost extra work, never the optimum.
func pruneSlack(cost float64) float64 {
	s := 1e-9 * math.Abs(cost)
	if s < 1e-12 {
		return 1e-12
	}
	return s
}

// lexLessInts reports a < b lexicographically (equal lengths).
//
//tofu:hotpath tie-break comparator on the boundary-search hot path
func lexLessInts(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// satAdd and satMul saturate at MaxInt64 — the flat-enumeration baseline
// counters can overflow on deep graphs and must degrade gracefully.
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// binomial returns C(n, k), saturating.
func binomial(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	out := int64(1)
	for i := 1; i <= k; i++ {
		out = satMul(out, int64(n-k+i))
		if out == math.MaxInt64 {
			return out
		}
		out /= int64(i)
	}
	return out
}
