package recursive

// This file implements the topology-aware ordering search as best-first
// branch and bound over the prefix tree of factor-to-level orderings
// (replacing the flat enumeration that re-ran the whole recursive DP once
// per ordering). Two observations make the tree cheap:
//
//  1. Prefix sharing. A step's DP result depends only on the FACTOR prefix
//     before it — the levels merely weight the accumulated cost — so every
//     distinct factor prefix runs dp.Solve exactly once and all orderings
//     passing through it reuse the result and the divided shapes. A machine
//     whose levels factor into all 2s (every power-of-two cluster) collapses
//     the entire search to one DP run per recursion depth — and a step whose
//     sweep inputs repeat an earlier prefix's replays that sweep's result
//     (dp.StepMemo) instead of sweeping again.
//
//  2. Admissible bounds. For a node with prefix P, every not-yet-placed
//     factor f must eventually run a step whose δ is at least
//     dp.LowerBound(f, shapes after P): costs are priced at original shapes
//     (Lemma 1) and shapes only shrink below P, so strategies and cut
//     dimensions can only disappear. Dividing each remaining pair's bound by
//     its own level's bandwidth (the pair's level is fixed by the machine,
//     not a choice) gives h(P) ≤ true remaining cost, and any node with
//     g(P)+h(P) above the incumbent can only lead to strictly worse
//     orderings.
//
// Pruning uses a strict comparison (plus an ulp-scale slack for float
// summation-order noise), so every ordering that could tie the optimum is
// still explored; ties then break by the exhaustive enumeration's order.
// The chosen plan is therefore byte-identical to the flat enumeration
// wherever that search is feasible — the differential test in
// ordering_test.go locks this in — while the DP executions drop from
// O(orderings × depth) to O(distinct factor prefixes).

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"strconv"

	"tofu/internal/cancel"
	"tofu/internal/coarsen"
	"tofu/internal/dp"
	"tofu/internal/obs"
	"tofu/internal/plan"
	"tofu/internal/shape"
	"tofu/internal/topo"
)

// SearchStats reports the effort of one search; Options.Stats receives a
// copy when non-nil (flat searches fill only DPSolves and Replays). One
// goroutine walks the tree, so every counter, like the plan, is the same at
// any Parallelism.
type SearchStats struct {
	// Orderings is the search-space size: every distinct factor-to-level
	// ordering of the machine's pool.
	Orderings int `json:"orderings"`
	// Leaves is how many complete orderings were actually costed.
	Leaves int `json:"leaves"`
	// Expanded and Pruned count branch-and-bound tree nodes expanded vs
	// discarded because their admissible bound exceeded the incumbent.
	Expanded int `json:"expanded"`
	Pruned   int `json:"pruned"`
	// DPSolves is the number of per-step DP sweeps actually run — at most
	// one per distinct factor prefix reached. Replays counts the steps the
	// step memo (dp.StepMemo) served instead, because an earlier step of the
	// same search had identical sweep inputs. FlatDPSolves is what the flat
	// enumeration would have run for the same space (orderings × depth).
	DPSolves     int `json:"dp_solves"`
	Replays      int `json:"replays,omitempty"`
	FlatDPSolves int `json:"flat_dp_solves"`
	// LBQueries counts admissible lower-bound evaluations (dp.LowerBound).
	LBQueries int `json:"lb_queries"`
	// BestCost is the winning bandwidth-weighted communication time Σ δ/B
	// in seconds.
	BestCost float64 `json:"best_cost"`
}

// countStep books one DP step, swept or replayed.
func (st *SearchStats) countStep(replayed bool) {
	if replayed {
		st.Replays++
	} else {
		st.DPSolves++
	}
}

// prefixState is the per-factor-prefix memo node: the DP result of the
// prefix's last step and the variable shapes after it (one per coarsened
// variable, cloneShapes), computed exactly once however many orderings share
// the prefix. A complete prefix (depth = the pool's length) has nothing below
// it to solve, so it only checks that its last division is possible and keeps
// no shape table.
type prefixState struct {
	parent *prefixState
	factor int64
	depth  int

	res    *dp.Result
	shapes map[int]shape.Shape
	err    error

	// lastDelta maps factor -> the realized δ of that factor's most recent
	// occurrence in this prefix. Shapes only shrink down a branch, so a
	// later step with the same factor can only cost more — a second, often
	// much tighter admissible bound the expansion maxes with dp.LowerBound.
	lastDelta map[int64]float64

	// lb memoizes the prepared step per candidate next factor at these
	// shapes: its LowerBound for the bound queries, and the evaluators the
	// child prefix's Solve then runs on.
	lb map[int64]*lbQuery
}

// lbQuery is one (prefix, next factor) step, prepared once. prob is the
// Problem prep holds; the child prefix's computeStep sets its Trace.
type lbQuery struct {
	prob  dp.Problem
	prep  *dp.Prepared
	delta float64
	err   error
}

// obNode is one branch-and-bound tree node: a (factor, level) prefix with
// its accumulated weighted cost and admissible total bound. Nodes are LAZY:
// a child is pushed with its parent's evaluated state and the parent's bound
// as a provisional priority, and runs its own DP step only when popped — so
// a strong incumbent (the dive, or an early leaf) prunes whole
// subtrees before their prefix DP ever runs, instead of after.
type obNode struct {
	steps  []factorLevel
	ranks  []uint8 // rank sequence in canonical pool order — the lex tie-break
	key    string  // factor-prefix memo key (own factor included)
	parKey string  // parent's factor-prefix key (for the pop-time re-bound)
	par    *prefixState
	gPar   float64 // parent's Σ δ_i/B_i
	bound  float64 // provisional: the parent's evaluated bound (admissible)
}

// orderSearch carries one branch-and-bound run.
type orderSearch struct {
	c     *coarsen.Coarse
	k     int64
	tp    topo.Topology
	opts  Options
	cache *dp.PriceCache

	// uniq/counts are the distinct (factor, level) pairs in canonical order
	// (level ascending, factor descending — the flat enumeration's order)
	// with their multiplicities; pool is uniq expanded, i.e. the naive
	// hierarchy-following ordering.
	uniq   []factorLevel
	counts []int
	pool   []factorLevel
	rootPS *prefixState

	// trace is the "order.search" span (nil when tracing is off). Expand,
	// prune, seed and per-prefix solve spans attach flat under it, in the
	// walk's order.
	trace *obs.Span
	// memo shares the preparation of a step whose factor and alphabets
	// repeat an earlier one's and replays its sweep; prepareHits counts the
	// shared preparations.
	memo        dp.StepMemo
	prepareHits int

	prefixes  map[string]*prefixState
	bestSet   bool
	bestCost  float64
	bestSteps []factorLevel
	bestRanks []uint8
	errs      errCollector
	stats     SearchStats
	// cancelled flips when any layer reports a cancellation (the token
	// polled here, or a dp.Solve that stopped mid-prefix). The walk then
	// winds down and the incumbent ships as a degraded plan.
	cancelled bool
}

// errCollector deduplicates infeasibility reasons by message; both search
// engines report through it so a fully infeasible topology reads the same
// either way.
type errCollector struct {
	seen map[string]struct{}
	errs []error
}

func (c *errCollector) add(err error) {
	if c.seen == nil {
		c.seen = map[string]struct{}{}
	}
	msg := err.Error()
	if _, ok := c.seen[msg]; !ok {
		c.seen[msg] = struct{}{}
		c.errs = append(c.errs, err)
	}
}

func newOrderSearch(c *coarsen.Coarse, k int64, tp topo.Topology,
	opts Options, cache *dp.PriceCache, pool []factorLevel) *orderSearch {

	s := &orderSearch{
		c: c, k: k, tp: tp, opts: opts, cache: cache,
		prefixes: map[string]*prefixState{},
	}
	// pool arrives in canonical order (topoPool); collapse runs into
	// uniq/counts.
	for _, fl := range pool {
		if n := len(s.uniq); n > 0 && s.uniq[n-1] == fl {
			s.counts[n-1]++
		} else {
			s.uniq = append(s.uniq, fl)
			s.counts = append(s.counts, 1)
		}
	}
	s.pool = pool

	// Root: original shapes, cloned into one slab the per-prefix divisions
	// never touch (each child clones again before dividing).
	s.rootPS = &prefixState{shapes: cloneShapes(c, nil), lb: map[int64]*lbQuery{}}
	s.prefixes[""] = s.rootPS
	return s
}

// prefixFor returns the memoized state for parent's prefix extended by
// factor f, running its DP step on first use.
func (s *orderSearch) prefixFor(parent *prefixState, key string, f int64) *prefixState {
	if ps, ok := s.prefixes[key]; ok {
		return ps
	}
	ps := &prefixState{parent: parent, factor: f, depth: parent.depth + 1, lb: map[int64]*lbQuery{}}
	st := s.trace.Child("order.prefix")
	st.SetStr("prefix", key)
	s.computeStep(ps, st)
	st.End()
	s.prefixes[key] = ps
	return ps
}

// memoDelta peeks at the already-computed realized δ of extending key by
// factor f, without triggering the DP. When present it is the EXACT cost of
// placing f directly below this prefix — and by the same config-subset
// monotonicity the lastDelta gate relies on (a descendant's shapes divide
// this prefix's shapes, so its strategy set only shrinks while Lemma 1
// keeps the pricing), it lower-bounds placing f anywhere deeper. That makes
// it the tightest admissible per-step gate available; the dive plants
// exactly these states along its chain before the first pop.
func (s *orderSearch) memoDelta(key string, f int64) (float64, bool) {
	var buf [64]byte // a peek builds its key on the stack; only a new prefix keeps one
	ps := s.prefixes[string(appendChildKey(buf[:0], key, f))]
	if ps == nil || ps.err != nil || ps.res == nil {
		return 0, false
	}
	return ps.res.CommBytes, true
}

// computeStep runs one prefix's DP step: prepare it (or pick up the
// preparation a bound query at the parent already made — it detects
// infeasibility before any frontier sweep), sweep on those evaluators unless
// the step memo replays an earlier prefix's identical sweep, then divide the
// shapes for the prefixes below.
func (s *orderSearch) computeStep(ps *prefixState, st *obs.Span) {
	par := ps.parent
	if par.err != nil {
		ps.err = par.err
		return
	}
	q := s.lowerBoundFor(par, ps.factor, st)
	if q.err != nil {
		ps.err = q.err
		return
	}
	q.prob.Trace = st
	res, replayed, err := s.memo.Solve(q.prep)
	if err != nil {
		ps.err = err
		return
	}
	s.stats.countStep(replayed)
	if replayed {
		st.SetInt("replayed", 1)
	}
	if ps.depth == len(s.pool) {
		ps.err = divideShapes(s.c, par.shapes, res.VarCut, ps.factor, false)
	} else {
		ps.shapes = cloneShapes(s.c, par.shapes)
		ps.err = divideShapes(s.c, ps.shapes, res.VarCut, ps.factor, true)
	}
	if ps.err != nil {
		return
	}
	last := make(map[int64]float64, len(par.lastDelta)+1)
	for f, d := range par.lastDelta {
		last[f] = d
	}
	last[ps.factor] = res.CommBytes
	ps.res, ps.lastDelta = res, last
}

// lowerBoundFor memoizes the prepared step for factor f at the prefix's
// shapes; its delta is the admissible per-step bound. An error means no step
// with factor f can ever run at or below this prefix (divisibility and
// strategy gates are monotone), so the whole subtree still owing f is
// infeasible. trace parents the preparation's "dp.pricing" span when this
// call is the one that prepares; when the search's step memo shares an
// earlier prefix's preparation instead, there is no pricing span, and a
// trace other than the search's own is marked prepare_hit=1.
func (s *orderSearch) lowerBoundFor(ps *prefixState, f int64, trace *obs.Span) *lbQuery {
	if q, ok := ps.lb[f]; ok {
		return q
	}
	q := &lbQuery{prob: dp.Problem{
		Coarse:         s.c,
		K:              f,
		Shapes:         ps.shapes,
		DType:          s.opts.DType,
		StrategyFilter: s.opts.StrategyFilter,
		MaxStates:      s.opts.MaxStates,
		Parallelism:    s.opts.Parallelism,
		Cache:          s.cache,
		Trace:          trace,
		Cancel:         s.opts.Cancel,
	}}
	ps.lb[f] = q
	var hit bool
	if q.prep, hit, q.err = s.memo.Prepare(&q.prob); q.err == nil {
		q.delta = q.prep.LowerBound()
	}
	if hit && trace != s.trace {
		trace.SetInt("prepare_hit", 1)
	}
	s.stats.LBQueries++
	if hit {
		s.prepareHits++
	}
	return q
}

// pruneSlack absorbs float summation-order noise between a node's bound and
// a leaf's accumulated cost: the bound sums lb/B terms in pool order while
// leaves accumulate δ/B in step order, so an exact tie can round apart by a
// few ulps. The slack is far below any real cost gap and only ever KEEPS a
// branch, so byte-identity with the exhaustive enumeration is preserved.
func pruneSlack(cost float64) float64 {
	s := 1e-9 * cost
	if s < 1e-12 {
		s = 1e-12
	}
	return s
}

// shouldPrune reports whether a bound is provably worse than the incumbent.
func (s *orderSearch) shouldPrune(bound float64) bool {
	return s.bestSet && bound > s.bestCost+pruneSlack(s.bestCost)
}

// offer considers a complete feasible ordering for the incumbent. Ties keep
// the rank-lexicographically smallest ordering — exactly the first one the
// exhaustive enumeration (strict-improvement scan in lex order) keeps — so
// the dive's seed can never displace an equal-cost lex-smaller ordering the
// tree finds later.
func (s *orderSearch) offer(steps []factorLevel, ranks []uint8, cost float64) {
	if !s.bestSet || cost < s.bestCost ||
		(cost == s.bestCost && lexLess(ranks, s.bestRanks)) {
		s.bestSet = true
		s.bestCost = cost
		s.bestSteps = steps
		s.bestRanks = ranks
	}
}

func (s *orderSearch) addErr(err error) {
	if cancel.IsCancellation(err) {
		// A cancelled prefix is not an infeasible one: a search that was
		// stopped proved nothing about the topology. Keep the reason out of
		// the diagnostics and flag the walk to wind down.
		s.cancelled = true
		return
	}
	s.errs.add(err)
}

// lexLess compares rank sequences lexicographically (a strict prefix sorts
// first).
func lexLess(a, b []uint8) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func childKey(key string, f int64) string {
	var buf [64]byte
	return string(appendChildKey(buf[:0], key, f))
}

// appendChildKey appends the factor-prefix key of key extended by f.
//
//tofu:hotpath every bound query peeks at a child key; enforced by tofu-vet/hotalloc
func appendChildKey(buf []byte, key string, f int64) []byte {
	buf = append(buf, key...)
	buf = strconv.AppendInt(buf, f, 10)
	return append(buf, '.')
}

// remaining writes into rem (reallocated only when too small) the
// per-uniq-pair multiplicities still unplaced after the given rank prefix.
//
//tofu:hotpath once per popped node; enforced by tofu-vet/hotalloc
func (s *orderSearch) remaining(rem []int, ranks []uint8) []int {
	if cap(rem) < len(s.counts) {
		rem = make([]int, len(s.counts))
	}
	rem = rem[:len(s.counts)]
	copy(rem, s.counts)
	for _, r := range ranks {
		rem[r]--
	}
	return rem
}

// boundAt computes the admissible total bound g + h for the subtree rooted
// at the prefix (key, ps) with remaining pair multiset rem. Every
// still-unplaced pair costs at least its factor's lower bound at this
// prefix's shapes — tightened, outside beam mode, by the realized δ of the
// same factor's last occurrence in the prefix (lastDelta) and by the
// realized δ of the already-memoized child step for that factor (memoDelta)
// — over its own level's bandwidth. An error means some remaining factor
// can never run at or below these shapes: the subtree is infeasible.
//
// The realized-δ tightenings rely on per-step optima being monotone down a
// branch, which beam search voids: a later beam result over a smaller state
// space can land below an earlier step's beam cost. dp.LowerBound alone
// stays admissible against beam results (it bounds the true optimum, which
// the beam never beats).
func (s *orderSearch) boundAt(ps *prefixState, key string, g float64, rem []int) (float64, error) {
	h := 0.0
	for j, fl2 := range s.uniq {
		if rem[j] == 0 {
			continue
		}
		q := s.lowerBoundFor(ps, fl2.f, s.trace)
		if q.err != nil {
			return 0, q.err
		}
		lb := q.delta
		if s.opts.MaxStates == 0 {
			if d := ps.lastDelta[fl2.f]; d > lb {
				lb = d
			}
			if d, ok := s.memoDelta(key, fl2.f); ok && d > lb {
				lb = d
			}
		}
		h += float64(rem[j]) * lb / s.tp.LevelBandwidth(fl2.level)
	}
	return g + h, nil
}

// process evaluates one popped node: run its own (memoized) DP step, offer
// complete orderings to the incumbent, bound the subtree at the node's own
// shapes, and — if the bound survives the incumbent — emit its children in
// canonical order with that bound as their provisional priority. Children
// run no DP here; whether they ever do is decided against the incumbent in
// force when THEY pop, which is what lets a strong early incumbent save
// their prefix DP entirely. The root (empty key) skips the step and bounds
// the whole pool at the original shapes.
func (s *orderSearch) process(n *obNode) []*obNode {
	ps := s.rootPS
	g := 0.0
	if n.key != "" {
		fl := n.steps[len(n.steps)-1]
		ps = s.prefixFor(n.par, n.key, fl.f)
		if ps.err != nil {
			s.addErr(ps.err)
			return nil
		}
		g = n.gPar + ps.res.CommBytes/s.tp.LevelBandwidth(fl.level)
		if len(n.steps) == len(s.pool) {
			s.stats.Leaves++
			s.offer(n.steps, n.ranks, g)
			return nil
		}
	}
	rem := s.remaining(nil, n.ranks)
	bound, err := s.boundAt(ps, n.key, g, rem)
	if err != nil {
		s.addErr(err)
		return nil
	}
	if s.shouldPrune(bound) {
		s.stats.Pruned++
		s.pruneSpan(n.key, bound)
		return nil
	}
	s.stats.Expanded++
	if s.trace.Enabled() {
		ex := s.trace.Child("order.expand")
		ex.SetStr("prefix", n.key)
		ex.SetFloat("bound", bound)
		ex.End()
	}
	return s.children(n, ps, g, bound, rem)
}

// children emits n's child nodes in canonical order, one per pair still
// unplaced (rem), count-then-fill: the nodes, and their step and rank
// sequences, are windows of one slab each, and children placing the same
// factor share one key.
//
//tofu:hotpath once per expanded node; enforced by tofu-vet/hotalloc
func (s *orderSearch) children(n *obNode, ps *prefixState, g, bound float64, rem []int) []*obNode {
	m := 0
	for _, r := range rem {
		if r != 0 {
			m++
		}
	}
	d := len(n.steps) + 1
	nodes := make([]obNode, m)
	out := make([]*obNode, m)
	steps := make([]factorLevel, m*d)
	ranks := make([]uint8, m*d)
	k := 0
	for i, fl := range s.uniq {
		if rem[i] == 0 {
			continue
		}
		c := &nodes[k]
		c.steps, c.ranks = steps[k*d:(k+1)*d:(k+1)*d], ranks[k*d:(k+1)*d:(k+1)*d]
		copy(c.steps, n.steps)
		copy(c.ranks, n.ranks)
		c.steps[d-1], c.ranks[d-1] = fl, uint8(i)
		for _, sib := range nodes[:k] {
			if sib.steps[d-1].f == fl.f {
				c.key = sib.key
				break
			}
		}
		if c.key == "" {
			c.key = childKey(n.key, fl.f)
		}
		c.parKey, c.par, c.gPar, c.bound = n.key, ps, g, bound
		out[k] = c
		k++
	}
	return out
}

// dive walks the naive hierarchy-following ordering (the pool itself, the
// rank-lex-first leaf) through the memoized prefix chain and offers its cost
// to the incumbent before any best-first expansion; its prefix states are the
// ones the tree reuses first. The dive never counts as a leaf: the tree walk
// revisits this ordering through shared prefixes at zero DP cost, so the
// final plan is the tree's choice either way.
func (s *orderSearch) dive() {
	ranks := make([]uint8, 0, len(s.pool))
	for i := range s.uniq {
		for c := 0; c < s.counts[i]; c++ {
			ranks = append(ranks, uint8(i))
		}
	}
	ps := s.rootPS
	key := ""
	g := 0.0
	for _, fl := range s.pool {
		key = childKey(key, fl.f)
		ps = s.prefixFor(ps, key, fl.f)
		if ps.err != nil {
			s.addErr(ps.err)
			return
		}
		g += ps.res.CommBytes / s.tp.LevelBandwidth(fl.level)
	}
	s.offer(s.pool, ranks, g)
}

// pruneSpan records one branch-and-bound prune as an instant span.
func (s *orderSearch) pruneSpan(key string, bound float64) {
	if !s.trace.Enabled() {
		return
	}
	pr := s.trace.Child("order.prune")
	pr.SetStr("prefix", key)
	pr.SetFloat("bound", bound)
	pr.End()
}

// run drains the branch-and-bound tree and assembles the winning plan.
func (s *orderSearch) run() (*winner, error) {
	s.trace = s.opts.Trace.Child("order.search")
	defer s.trace.End()
	s.stats.Orderings = multinomial(s.counts)
	s.stats.FlatDPSolves = s.stats.Orderings * len(s.pool)

	// Seed the incumbent with the naive hierarchy-following dive.
	dive := s.trace.Child("order.seed")
	dive.SetStr("kind", "dive")
	s.dive()
	dive.End()

	pq := &nodeHeap{{key: "", par: s.rootPS}}
	heap.Init(pq)
	var rem []int // the pop-time re-bound's remaining-pair counts, reused
	for pq.Len() > 0 {
		// Deadline poll, once per pop: a tripped token stops the walk here
		// and ships the incumbent as a degraded plan.
		if s.opts.Cancel.Cancelled() {
			s.cancelled = true
			break
		}
		// A node whose provisional bound already exceeds the incumbent dies
		// here, BEFORE its DP step runs.
		n := heap.Pop(pq).(*obNode)
		prune := s.shouldPrune(n.bound)
		if !prune && len(n.steps) > 0 {
			// Re-bound against the CURRENT memo state before paying for the
			// node's DP step: realized δs learned since this node was pushed
			// (the dive's chain above all) often lift the parent-scope bound
			// past the incumbent. All the ingredients are memoized, so this
			// costs map lookups.
			rem = s.remaining(rem, n.ranks[:len(n.ranks)-1])
			if b, err := s.boundAt(n.par, n.parKey, n.gPar, rem); err == nil {
				prune = s.shouldPrune(b)
			}
		}
		if prune {
			s.stats.Pruned++
			s.pruneSpan(n.key, n.bound)
			continue
		}
		for _, c := range s.process(n) {
			heap.Push(pq, c)
		}
	}

	if !s.bestSet && !s.cancelled {
		// Total infeasibility: the lazy walk may have died at the very
		// first bound query, leaving a single reason where the user needs
		// every distinct one (which factor fails at which shapes). Sweep
		// the memoized factor-prefix tree collecting the rest — this runs
		// only when no ordering can host the topology, and each distinct
		// factor prefix costs at most one memoized DP. A cancelled search
		// skips the sweep: it proved nothing, and the sweep runs DP steps
		// the deadline just declined to pay for.
		s.diagnose()
	}
	s.stats.BestCost = s.bestCost
	if s.trace.Enabled() {
		s.trace.SetInt("orderings", int64(s.stats.Orderings))
		s.trace.SetInt("expanded", int64(s.stats.Expanded))
		s.trace.SetInt("pruned", int64(s.stats.Pruned))
		s.trace.SetInt("dp_solves", int64(s.stats.DPSolves))
		s.trace.SetInt("replays", int64(s.stats.Replays))
		s.trace.SetInt("prepare_hits", int64(s.prepareHits))
		s.trace.SetInt("leaves", int64(s.stats.Leaves))
		s.trace.SetFloat("best_cost", s.bestCost)
	}
	if s.opts.Stats != nil {
		*s.opts.Stats = s.stats
	}
	if !s.bestSet {
		if s.cancelled {
			return nil, cancel.Reason(s.opts.Cancel.Err(), "recursive: cancelled before any ordering completed")
		}
		return nil, infeasibleTopoErr(s.tp, s.errs.errs)
	}
	return s.buildPlan()
}

// diagnose walks every distinct factor prefix (levels collapse: DP shapes
// depend only on the factor sequence) and records each prefix's
// infeasibility reason, so a fully infeasible topology reports every
// distinct failing shape — matching the exhaustive engine — instead of just
// the first bound error the pruned walk happened to hit. Infeasible
// branches stop descending, so the sweep touches exactly the feasible
// prefix frontier plus its failing fringe.
func (s *orderSearch) diagnose() {
	fc := map[int64]int{}
	var factors []int64
	for i, fl := range s.uniq {
		if fc[fl.f] == 0 {
			factors = append(factors, fl.f)
		}
		fc[fl.f] += s.counts[i]
	}
	depth := len(s.pool)
	var walk func(ps *prefixState, key string, placed int)
	walk = func(ps *prefixState, key string, placed int) {
		if placed == depth {
			return
		}
		for _, f := range factors {
			if fc[f] == 0 {
				continue
			}
			ck := childKey(key, f)
			cps := s.prefixFor(ps, ck, f)
			if cps.err != nil {
				s.addErr(cps.err)
				continue
			}
			fc[f]--
			walk(cps, ck, placed+1)
			fc[f]++
		}
	}
	walk(s.rootPS, "", 0)
}

// buildPlan assembles the winning ordering from the shared prefix memos — no
// DP re-runs; the steps and their retained results are the ones the
// exhaustive enumeration's runSteps would have produced.
func (s *orderSearch) buildPlan() (*winner, error) {
	p := &plan.Plan{K: s.k}
	w := &winner{plan: p}
	key := ""
	mult := int64(1)
	for _, fl := range s.bestSteps {
		key = childKey(key, fl.f)
		ps := s.prefixes[key]
		if ps == nil || ps.err != nil || ps.res == nil {
			return nil, fmt.Errorf("recursive: internal: winning prefix %q lost", key)
		}
		res := ps.res
		p.Steps = append(p.Steps, &plan.Step{
			K:          fl.f,
			Multiplier: mult,
			VarCut:     res.VarCut,
			CommBytes:  res.CommBytes,
			States:     res.States,
			Configs:    res.Configs,
			Level:      fl.level,
		})
		w.results = append(w.results, res)
		mult *= fl.f
	}
	// A walk the deadline stopped ships its incumbent — a real, feasible
	// plan, just not a proven optimum — under the Degraded marker.
	p.Degraded = s.cancelled
	return w, nil
}

// infeasibleTopoErr joins the distinct infeasibility reasons (sorted for
// determinism) under the search's banner error.
func infeasibleTopoErr(tp topo.Topology, errs []error) error {
	sorted := append([]error(nil), errs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Error() < sorted[j].Error() })
	joined := errors.Join(sorted...)
	if joined == nil {
		joined = errors.New("no factor-to-level orderings enumerated")
	}
	return fmt.Errorf("recursive: no feasible factor-to-level ordering for topology %q: %w",
		tp.Name, joined)
}

// maxOrderingSpace bounds the factor-to-level ordering spaces the exact
// search accepts — far past every plausible machine (a 1024-GPU 3-level
// cluster has 840 orderings) but low enough that a pathological
// user-supplied topology fails fast with a clear error instead of pinning a
// worker for hours. Unlike the retired 96-ordering cap this is LOUD: no
// silent truncation, the caller is told to use TopologyNaive or explicit
// Factors.
const maxOrderingSpace = 1 << 17

// multinomial counts the distinct permutations of a multiset given the
// multiplicities of its distinct elements, saturating at
// maxOrderingSpace+1 (which also keeps the arithmetic far from overflow).
func multinomial(counts []int) int {
	n := 0
	r := 1
	for _, c := range counts {
		for i := 1; i <= c; i++ {
			n++
			if r <= maxOrderingSpace {
				r = r * n / i // n!/(i!·(n-i)!) stays integral at every prefix
			}
		}
	}
	if r > maxOrderingSpace {
		return maxOrderingSpace + 1
	}
	return r
}

// poolCounts collapses a canonical pool into distinct-element
// multiplicities (pool arrives grouped — see topoPool).
func poolCounts(pool []factorLevel) []int {
	var counts []int
	for i, fl := range pool {
		if i > 0 && pool[i-1] == fl {
			counts[len(counts)-1]++
		} else {
			counts = append(counts, 1)
		}
	}
	return counts
}

// nodeHeap orders nodes by (bound, rank-lex) — a deterministic total order.
type nodeHeap []*obNode

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].bound != h[j].bound {
		return h[i].bound < h[j].bound
	}
	return lexLess(h[i].ranks, h[j].ranks)
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)   { *h = append(*h, x.(*obNode)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}
