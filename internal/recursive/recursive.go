// Package recursive implements Tofu's recursive partitioning algorithm
// (EuroSys'19 Sec 5.2, Appendix A): factor the worker count k into
// k1 ≥ k2 ≥ ... ≥ km, then run the coarsened-graph DP once per factor, each
// time partitioning every tensor along a single dimension between ki worker
// groups and dividing the shapes before the next step. Theorems 1–3 show the
// greedy per-step optima compose into a globally optimal plan because every
// step's cost is a weighted sum of (current) tensor sizes.
//
//tofu:searchpath reachable from dp.Solve / recursive.Partition; nodeterm enforces determinism
package recursive

import (
	"fmt"
	"sort"

	"tofu/internal/cancel"
	"tofu/internal/coarsen"
	"tofu/internal/dp"
	"tofu/internal/graph"
	"tofu/internal/obs"
	"tofu/internal/partition"
	"tofu/internal/plan"
	"tofu/internal/shape"
	"tofu/internal/topo"
)

// Options tune the search.
type Options struct {
	// StrategyFilter restricts operator strategies (ICML18 baseline drops
	// output reduction).
	StrategyFilter func(partition.Strategy) bool
	// Factors overrides the factorization of K (EqualChop uses a single
	// K-way step).
	Factors []int64
	// DType prices communication; the benchmarks are all float32.
	DType shape.DType
	// MaxStates bounds the DP frontier per step (0 = exact search). See
	// dp.Problem.MaxStates; useful for high-cutwidth graphs such as
	// attention blocks.
	MaxStates int
	// Parallelism is the worker-goroutine count for each step's DP sweep
	// and pricing (0 = runtime.GOMAXPROCS(0), 1 = serial). The chosen plan
	// is byte-identical for every setting (see dp.Problem.Parallelism).
	Parallelism int
	// Cache reuses priced strategy enumerations across the recursive factor
	// steps and — when shared by the caller — across searches over the same
	// model (nil = one fresh cache per Partition call, which still
	// deduplicates pricing across this search's steps).
	Cache *dp.PriceCache
	// Topology switches the search into topology-driven mode on hierarchical
	// machines: the factor sequence is derived from the level group sizes,
	// every candidate factor-to-level ordering is searched, each step's DP
	// cost is weighted by its level's bandwidth, and the winning plan's
	// steps carry their level annotations. Single-level topologies (and nil)
	// reduce exactly to the flat algorithm. When Factors is also set, the
	// factors win and the resulting steps are annotated with the
	// topology-blind layout instead (topo.Topology.AssignLevels).
	Topology *topo.Topology
	// TopologyNaive skips the ordering search: the factor sequence follows
	// the hierarchy innermost first with no bandwidth weighting — the layout
	// a topology-blind runtime gets from the scheduler's default cyclic rank
	// placement, and the hierarchical-naive baseline of the cross-topology
	// experiments.
	TopologyNaive bool
	// TopoExhaustive forces the topology-aware search onto the flat
	// ordering enumeration (one full recursive DP per ordering) instead of
	// the branch-and-bound prefix tree. The chosen plan is byte-identical
	// either way; this is the differential-test oracle and the
	// before/after benchmark baseline, not a production mode.
	TopoExhaustive bool
	// Stats, when non-nil, receives the search-effort counters: all of them
	// on a hierarchical Topology (a TopologyNaive search reports its one
	// ordering), only DPSolves and Replays in flat mode (Orderings 0).
	Stats *SearchStats
	// Trace, if non-nil, records the search's span tree under the given
	// parent: "coarsen", per-factor "recursive.step" spans (each wrapping
	// its dp.Solve, or marked replayed=1 when the step memo served it), and
	// in topology-aware mode the "order.search" tree with per-prefix
	// expansion and prune spans. nil (the default) records nothing and costs
	// nothing; spans never influence the chosen plan.
	Trace *obs.Span
	// Cancel, if non-nil, is polled at every factor step and
	// branch-and-bound expansion. When it trips, the topology-aware
	// engines return their best incumbent marked plan.Degraded (the
	// anytime contract); a search with no incumbent yet — including every
	// flat single-chain search, which has nothing partial to return —
	// fails with the token's reason instead. nil (the default) is a
	// pointer comparison per poll and leaves plans byte-identical.
	Cancel *cancel.Token
}

// Partition searches for the best partition plan of a training graph across
// k workers. k = 1 yields a valid trivial plan with zero steps (every
// tensor whole on the single worker), which flows through graph generation
// and simulation unchanged. It is Coarsen followed by PartitionCoarse.
func Partition(g *graph.Graph, k int64, opts Options) (*plan.Plan, error) {
	c, err := Coarsen(g, opts.Trace)
	if err != nil {
		return nil, err
	}
	return PartitionCoarse(c, k, opts)
}

// Coarsen is the first half of every search entry point: coarsen g under a
// "coarsen" span of trace (nil records nothing). Callers that need the
// coarsened graph themselves coarsen once with it and hand the result to
// PartitionCoarse (or hybrid.PartitionCoarse).
func Coarsen(g *graph.Graph, trace *obs.Span) (*coarsen.Coarse, error) {
	csp := trace.Child("coarsen")
	defer csp.End()
	c, err := coarsen.Coarsen(g)
	if err != nil {
		return nil, err
	}
	csp.SetInt("groups", int64(len(c.Groups)))
	return c, nil
}

// PartitionCoarse is Partition over an already coarsened graph (c.G): the
// search alone. It emits no "coarsen" span — whoever coarsened did. It is
// Search followed by Materialize, except that it fills the winner's tables
// from the evaluators its solves left behind instead of re-pricing them.
func PartitionCoarse(c *coarsen.Coarse, k int64, opts Options) (*plan.Plan, error) {
	w, err := search(c, k, opts)
	if err != nil {
		return nil, err
	}
	if err := fill(c, w, opts); err != nil {
		return nil, err
	}
	return w.plan, nil
}

// Search is the cost-only half of PartitionCoarse: the winning plan with
// every step's K, Multiplier, Level, VarCut, CommBytes, States and Configs
// (and Degraded), but no TensorCut, OpStrategy, OpComm or FinalShapes — what
// a caller comparing many candidate searches needs of each. It retains
// nothing of the search besides the plan; Materialize fills in the rest.
func Search(c *coarsen.Coarse, k int64, opts Options) (*plan.Plan, error) {
	w, err := search(c, k, opts)
	if err != nil {
		return nil, err
	}
	return w.plan, nil
}

// Materialize completes a plan Search returned over the same c and opts
// (DType and StrategyFilter decide the tables; Cache and Parallelism only how
// fast): each step's VarCut is priced by dp.Evaluate at the shapes the steps
// before it leave, which fills exactly the tables the step's own solve would
// have. The work is bounded — one evaluator preparation per step, no sweep —
// so it does not poll opts.Cancel: a degraded incumbent still ships complete.
func Materialize(c *coarsen.Coarse, p *plan.Plan, opts Options) error {
	return fill(c, &winner{plan: p}, opts)
}

// winner is a search's chosen plan, cost-only, with what the search still
// holds of it.
type winner struct {
	plan *plan.Plan
	// results[i] is the solve behind plan.Steps[i], evaluators attached; nil
	// when only the plan survives.
	results []*dp.Result
	// final is the per-variable shape table (cloneShapes) after the last
	// step, when the engine divided one all the way down the winning chain
	// anyway (flat chains).
	final map[int]shape.Shape
}

// fill gives every step of w.plan its dense tables — from the step's retained
// result, or by pricing its VarCut at the shapes divided so far — and the
// plan its FinalShapes, the per-variable table expanded to every member.
func fill(c *coarsen.Coarse, w *winner, opts Options) error {
	p := w.plan
	shapes := w.final
	if shapes == nil {
		shapes = cloneShapes(c, nil)
	}
	cache := opts.Cache
	for i, st := range p.Steps {
		var res *dp.Result
		var err error
		if w.results != nil {
			res = w.results[i]
			err = res.Materialize()
		} else {
			if cache == nil {
				cache = dp.NewPriceCache() // shared by this plan's steps
			}
			res, err = dp.Evaluate(&dp.Problem{
				Coarse:         c,
				K:              st.K,
				Shapes:         shapes,
				DType:          opts.DType,
				StrategyFilter: opts.StrategyFilter,
				Parallelism:    opts.Parallelism,
				Cache:          cache,
			}, st.VarCut)
		}
		if err != nil {
			return fmt.Errorf("recursive: step %d (x%d): %w", i+1, st.K, err)
		}
		st.TensorCut, st.OpStrategy, st.OpComm = res.TensorCut, res.OpStrategy, res.OpComm
		if w.final == nil {
			if err := divideShapes(c, shapes, st.VarCut, st.K, true); err != nil {
				return err
			}
		}
	}
	p.FinalShapes = memberShapes(c, shapes)
	return nil
}

// cloneShapes copies the current shape of every variable of c (src nil = the
// original shapes) into a fresh slab-backed table safe to divide in place.
// The table has one entry per variable, keyed by its first member
// (v.Tensors[0].ID): every step divides a variable's members alike, so they
// share one shape at every step (see dp.Problem.Shapes).
func cloneShapes(c *coarsen.Coarse, src map[int]shape.Shape) map[int]shape.Shape {
	total := 0
	for _, v := range c.Vars {
		total += v.Shape.Rank()
	}
	slab := make([]int64, 0, total)
	out := make(map[int]shape.Shape, len(c.Vars))
	for _, v := range c.Vars {
		id := v.Tensors[0].ID
		cur := v.Shape
		if src != nil {
			cur = src[id]
		}
		start := len(slab)
		slab = append(slab, cur...)
		out[id] = shape.Shape(slab[start:len(slab):len(slab)])
	}
	return out
}

// memberShapes expands a per-variable shape table to every member tensor of
// c's variables. Members alias their variable's shape, so the result is
// read-only.
func memberShapes(c *coarsen.Coarse, shapes map[int]shape.Shape) map[int]shape.Shape {
	n := 0
	for _, v := range c.Vars {
		n += len(v.Tensors)
	}
	out := make(map[int]shape.Shape, n)
	for _, v := range c.Vars {
		s := shapes[v.Tensors[0].ID]
		for _, t := range v.Tensors {
			out[t.ID] = s
		}
	}
	return out
}

// divideShapes divides every cut variable's shape in a per-variable table
// (cloneShapes) k ways along its cut — in place when apply is set, otherwise
// only checking that it could be. The error names the lowest member tensor
// ID of any variable that cannot be divided: what a pass dividing every
// member tensor in ID order would meet first.
func divideShapes(c *coarsen.Coarse, shapes map[int]shape.Shape, varCut map[int]int, k int64, apply bool) error {
	bad, badErr := -1, error(nil)
	for _, v := range c.Vars {
		dim, ok := varCut[v.ID]
		if !ok {
			continue
		}
		var err error
		if s := shapes[v.Tensors[0].ID]; apply {
			err = s.SplitInPlace(dim, k)
		} else if !s.CanSplit(dim, k) {
			_, err = s.Split(dim, k)
		}
		if err == nil {
			continue
		}
		// A segment's variables list members in first-sight order, not by ID.
		for _, t := range v.Tensors {
			if bad < 0 || t.ID < bad {
				bad, badErr = t.ID, err
			}
		}
	}
	if badErr != nil {
		return fmt.Errorf("recursive: splitting tensor %d: %w", bad, badErr)
	}
	return nil
}

// search is the engine dispatch behind Search and PartitionCoarse.
func search(c *coarsen.Coarse, k int64, opts Options) (*winner, error) {
	if k < 1 || k > topo.MaxGPUs {
		return nil, fmt.Errorf("recursive: worker count %d outside [1, %d]", k, topo.MaxGPUs)
	}
	if opts.Topology != nil {
		if err := opts.Topology.Validate(); err != nil {
			return nil, fmt.Errorf("recursive: %w", err)
		}
		if got := int64(opts.Topology.NumGPUs()); got != k {
			return nil, fmt.Errorf("recursive: topology %q has %d GPUs, want %d workers",
				opts.Topology.Name, got, k)
		}
		if opts.Topology.Hierarchical() && opts.Factors == nil {
			return partitionTopo(c, k, *opts.Topology, opts)
		}
	}
	factors := opts.Factors
	if factors == nil {
		factors = Factorize(k)
	}
	for _, f := range factors {
		if f < 2 {
			return nil, fmt.Errorf("recursive: factor %d invalid", f)
		}
	}
	if !FactorsMultiplyTo(factors, k) {
		return nil, fmt.Errorf("recursive: factors %v do not multiply to %d", factors, k)
	}

	cache := opts.Cache
	if cache == nil {
		cache = dp.NewPriceCache()
	}
	var stats SearchStats
	w, err := runSteps(c, k, factors, nil, opts, cache, &stats)
	if opts.Stats != nil {
		*opts.Stats = stats
	}
	if err != nil {
		return nil, err
	}
	if opts.Topology != nil {
		// Explicit-factor searches (EqualChop's single chop) still run on
		// the real machine: annotate the topology-blind layout.
		opts.Topology.AssignLevels(w.plan)
	}
	return w, nil
}

// runSteps runs the per-factor DP sequence — the body of the recursive
// algorithm. levels, when non-nil, annotates each step with the interconnect
// level its communication crosses. stats, when non-nil, counts the sweeps run
// and replayed (DPSolves, Replays).
func runSteps(c *coarsen.Coarse, k int64, factors []int64, levels []int,
	opts Options, cache *dp.PriceCache, stats *SearchStats) (*winner, error) {

	// Current (progressively divided) shape of every variable — clones owned
	// by this search and divided in place below.
	shapes := cloneShapes(c, nil)

	p := &plan.Plan{K: k}
	w := &winner{plan: p, results: make([]*dp.Result, 0, len(factors)), final: shapes}
	mult := int64(1)
	// A step whose factor and alphabets repeat an earlier step's shares its
	// preparation and replays its sweep (dp.StepMemo).
	var memo dp.StepMemo
	for i, ki := range factors {
		if opts.Cancel.Cancelled() {
			// A partial factor chain multiplies to less than k — not a plan.
			// The callers with incumbents (ordering/hybrid searches) degrade;
			// this single chain can only report why it stopped.
			return nil, cancel.Reason(opts.Cancel.Err(), "recursive: cancelled at step %d/%d", i+1, len(factors))
		}
		st := opts.Trace.Child("recursive.step")
		st.SetInt("step", int64(i+1))
		st.SetInt("factor", ki)
		if levels != nil {
			st.SetInt("level", int64(levels[i]))
		}
		pr, prepHit, err := memo.Prepare(&dp.Problem{
			Coarse:         c,
			K:              ki,
			Shapes:         shapes,
			DType:          opts.DType,
			StrategyFilter: opts.StrategyFilter,
			MaxStates:      opts.MaxStates,
			Parallelism:    opts.Parallelism,
			Cache:          cache,
			Trace:          st,
			Cancel:         opts.Cancel,
		})
		var res *dp.Result
		replayed := false
		if err == nil {
			res, replayed, err = memo.Solve(pr)
		}
		if prepHit {
			st.SetInt("prepare_hit", 1)
		}
		if replayed {
			st.SetInt("replayed", 1)
		}
		st.End()
		if err != nil {
			return nil, fmt.Errorf("recursive: step %d (x%d): %w", len(p.Steps)+1, ki, err)
		}
		if stats != nil {
			stats.countStep(replayed)
		}
		step := &plan.Step{
			K:          ki,
			Multiplier: mult,
			VarCut:     res.VarCut,
			CommBytes:  res.CommBytes,
			States:     res.States,
			Configs:    res.Configs,
		}
		if levels != nil {
			step.Level = levels[i]
		}
		p.Steps = append(p.Steps, step)
		w.results = append(w.results, res)
		mult *= ki

		// Divide shapes along the chosen cuts for the next step. The table
		// holds clones made above, so dividing in place is safe and spares
		// a fresh shape per (variable, step).
		if err := divideShapes(c, shapes, res.VarCut, ki, true); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// factorLevel is one recursive factor bound to the interconnect level whose
// links its step's communication crosses.
type factorLevel struct {
	f     int64
	level int
}

// partitionTopo is the topology-driven search: derive the factor multiset
// from the level group sizes and find the factor-to-level ordering
// minimizing bandwidth-weighted communication time Σ δ_i / B(level_i) —
// each step's per-step DP optimum is weight-invariant (Theorems 1-3 apply
// per step), but the ordering changes the shapes later steps see and which
// links the heavy steps cross. The default engine is the branch-and-bound
// prefix-tree search (ordering.go); TopologyNaive takes the single blind
// layout and TopoExhaustive the flat one-DP-run-per-ordering enumeration,
// both of which choose byte-identical plans to the tree wherever they
// apply.
func partitionTopo(c *coarsen.Coarse, k int64, tp topo.Topology, opts Options) (*winner, error) {
	cache := opts.Cache
	if cache == nil {
		cache = dp.NewPriceCache()
	}
	pool := topoPool(tp)
	if opts.TopologyNaive || len(pool) <= 1 {
		return partitionTopoFlat(c, k, tp, opts, cache)
	}
	// Fail loudly on pathological machines instead of searching for hours
	// (or, as the retired 96-ordering cap did, silently truncating the
	// space). No plausible machine comes near the limit.
	if n := multinomial(poolCounts(pool)); n > maxOrderingSpace {
		return nil, fmt.Errorf(
			"recursive: topology %q has over %d candidate factor-to-level orderings — beyond exact search; "+
				"set TopologyNaive for the hierarchy-following layout or supply explicit Factors",
			tp.Name, maxOrderingSpace)
	}
	if opts.TopoExhaustive {
		return partitionTopoFlat(c, k, tp, opts, cache)
	}
	return newOrderSearch(c, k, tp, opts, cache, pool).run()
}

// partitionTopoFlat is the pre-branch-and-bound search: enumerate every
// candidate ordering and run the full recursive DP on each. Infeasible
// orderings drop out of the search, but their distinct reasons are
// aggregated so a fully infeasible topology reports every way it failed,
// not just the first.
func partitionTopoFlat(c *coarsen.Coarse, k int64, tp topo.Topology,
	opts Options, cache *dp.PriceCache) (*winner, error) {

	orderings := topoOrderings(tp, opts.TopologyNaive)
	var (
		best     *winner
		bestCost float64
		stats    SearchStats
		errs     errCollector
	)
	stats.Orderings = len(orderings)
	degraded := false
	for _, ord := range orderings {
		if opts.Cancel.Cancelled() {
			// Anytime contract: keep the best ordering costed so far and
			// mark the plan degraded rather than discarding finished work.
			degraded = true
			break
		}
		factors := make([]int64, len(ord))
		levels := make([]int, len(ord))
		for i, fl := range ord {
			factors[i] = fl.f
			levels[i] = fl.level
		}
		stats.FlatDPSolves += len(ord)
		w, err := runSteps(c, k, factors, levels, opts, cache, &stats)
		if err != nil {
			if cancel.IsCancellation(err) {
				// A cancelled chain is not an infeasible one: keep it out of
				// the diagnostics and stop the enumeration.
				degraded = true
				break
			}
			errs.add(err)
			continue
		}
		stats.Leaves++
		cost := CommTime(w.plan, tp)
		if best == nil || cost < bestCost {
			best, bestCost = w, cost
		}
	}
	stats.Expanded = stats.Leaves
	stats.BestCost = bestCost
	if opts.Stats != nil {
		*opts.Stats = stats
	}
	if best == nil {
		if degraded {
			return nil, cancel.Reason(opts.Cancel.Err(), "recursive: cancelled before any ordering completed")
		}
		return nil, infeasibleTopoErr(tp, errs.errs)
	}
	best.plan.Degraded = degraded
	return best, nil
}

// CommTime is the topology objective of an annotated plan: per-step
// communication divided by the bandwidth of the level it crosses — a time,
// not a byte count. The hybrid pipeline search prices each stage's sub-plan
// with it on the stage sub-machine.
func CommTime(p *plan.Plan, tp topo.Topology) float64 {
	t := 0.0
	for _, s := range p.Steps {
		t += s.CommBytes / tp.LevelBandwidth(s.Level)
	}
	return t
}

// topoPool lists the machine's (factor, level) pairs in canonical order:
// levels innermost first, factors largest-first inside each level. Read as
// an ordering this is the naive hierarchy-following layout a topology-blind
// runtime produces (see topo.Topology.AssignLevels), which by Theorem 2's
// monotone deltas parks the heaviest step on the slowest links.
func topoPool(tp topo.Topology) []factorLevel {
	var pool []factorLevel
	for li := range tp.Levels {
		for _, f := range Factorize(tp.Levels[li].GroupSize) {
			pool = append(pool, factorLevel{f: f, level: li})
		}
	}
	return pool
}

// topoOrderings enumerates every candidate factor-to-level sequence for the
// flat search — the branch-and-bound engine never materializes this list.
// naive yields only the hierarchy-following layout. The enumeration is
// deterministic (lexicographic in the canonical pool order), so the chosen
// plan is reproducible and the tree search's tie-break can match it.
func topoOrderings(tp topo.Topology, naive bool) [][]factorLevel {
	pool := topoPool(tp)
	if naive || len(pool) <= 1 {
		return [][]factorLevel{pool}
	}
	return multisetPerms(pool)
}

// multisetPerms lists the distinct permutations of the pool in lexicographic
// order of the canonical distinct-element ranking.
func multisetPerms(pool []factorLevel) [][]factorLevel {
	// Count multiplicities over the distinct elements, sorted for
	// determinism.
	type entry struct {
		fl    factorLevel
		count int
	}
	var uniq []entry
	for _, fl := range pool {
		found := false
		for i := range uniq {
			if uniq[i].fl == fl {
				uniq[i].count++
				found = true
				break
			}
		}
		if !found {
			uniq = append(uniq, entry{fl: fl, count: 1})
		}
	}
	sort.Slice(uniq, func(i, j int) bool {
		if uniq[i].fl.level != uniq[j].fl.level {
			return uniq[i].fl.level < uniq[j].fl.level
		}
		return uniq[i].fl.f > uniq[j].fl.f
	})

	// Drawing each position from the distinct entries with counted
	// multiplicities emits every distinct permutation exactly once.
	var out [][]factorLevel
	cur := make([]factorLevel, 0, len(pool))
	var dfs func()
	dfs = func() {
		if len(cur) == len(pool) {
			out = append(out, append([]factorLevel(nil), cur...))
			return
		}
		for i := range uniq {
			if uniq[i].count == 0 {
				continue
			}
			uniq[i].count--
			cur = append(cur, uniq[i].fl)
			dfs()
			cur = cur[:len(cur)-1]
			uniq[i].count++
		}
	}
	dfs()
	return out
}

// FactorsMultiplyTo reports whether factors multiply to exactly k. The
// running product is never formed past k, so factors whose product wraps
// int64 (2305843009213693953 × 8 = 8 mod 2^64) do not pass.
func FactorsMultiplyTo(factors []int64, k int64) bool {
	prod := int64(1)
	for _, f := range factors {
		if f < 1 || prod > k/f {
			return false
		}
		prod *= f
	}
	return prod == k
}

// Factorize decomposes k into its prime factors in non-increasing order
// (8 → [2 2 2], 12 → [3 2 2]) — the paper's k = k1*k2*...*km with
// ki >= k(i+1). k = 1 factors into the empty list: the recursion runs zero
// steps and Partition returns the trivial single-worker plan.
func Factorize(k int64) []int64 {
	var out []int64
	for f := int64(2); f*f <= k; f++ {
		for k%f == 0 {
			out = append(out, f)
			k /= f
		}
	}
	if k > 1 {
		out = append(out, k)
	}
	// Largest first.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}
