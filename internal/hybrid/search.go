package hybrid

import (
	"fmt"
	"math"

	"tofu/internal/coarsen"
	"tofu/internal/dp"
	"tofu/internal/obs"
	"tofu/internal/plan"
	"tofu/internal/recursive"
	"tofu/internal/shape"
	"tofu/internal/topo"
)

// levelState is the boundary search for one candidate stage level: S stages
// of kSub GPUs each, boundaries drawn from the L-1 coarsened-group gaps.
type levelState struct {
	s       *search
	level   int
	S       int
	kSub    int64
	subTopo topo.Topology
	// depth is the recursion depth of one stage's partition search — how
	// many dp.Solve calls one segment costs at minimum.
	depth int
	// bw[j] is the bandwidth of the link stage j-1 hands off to stage j
	// across (j in [1, S-1]) — heterogeneous when the stage level is not
	// the outermost (boundary 4 of a 2x4x... machine crosses the spine
	// while 1-3 cross ethernet).
	bw []float64
	// lb1[g] is the admissible per-group cost floor (see groupFloor); +Inf
	// marks an infeasible group.
	lb1 []float64
	// segs memoizes solved segments — the O(L²) core — and est prices every
	// segment, both dense at [lo*W+hi] with W = L+1: est is the exact cost
	// once solved, +Inf once failed, else the admissible floor Σ lb1[lo:hi).
	W    int
	segs []*segment
	est  []float64
	// prepare and solve are the solver behind the memo (prepareSegment and
	// solveSegment; tests swap both): prepare builds a segment's stage problem
	// and appends its structural key to the buffer it is given, solve searches
	// the problem.
	prepare func(key []byte, lo, hi int) ([]byte, stageProblem, error)
	solve   func(pr stageProblem) (*plan.Plan, float64, error)
	// classes is the structural segment memo: per distinct key, the first
	// complete solution at this level, which every later segment with that
	// key shares. keyBuf is the key buffer prepare reuses; filled counts the
	// segs slots filled so far and hits those the classes served.
	classes      map[string]*segment
	keyBuf       []byte
	filled, hits int64
	// hand[j*W+b] is the hand-off term xb[b]/bw[j] of boundary j at group gap
	// b, divided once per level; refresh, leafCost and dfs all read it.
	hand []float64
	// togo[j*W+b] is the cost-to-go table H and next its argmin (see
	// refresh); dirty is the largest boundary b whose entries a solve since
	// the last refresh can have moved, -1 when the table is current.
	togo  []float64
	next  []int
	dirty int
	// seen[j*W+prev] is the prefix cost of the completed dfs visit to state
	// (j, prev), +Inf before one — the dominance cut's memo.
	seen []float64
	// prior is the earlier levels' best cost, +Inf when there is none.
	prior float64

	best     []int
	bestCost float64
	haveBest bool

	// trace is this level's "hybrid.level" span (nil when tracing is off);
	// segment solves hang their "hybrid.segment" spans under it.
	trace *obs.Span
}

// segment is one memoized contiguous-segment solution: its cost and the
// cost-only plan behind it (recursive.Search). Of the O(L²) segments only the
// winning boundary set's S are ever materialized (assemble), so the memo keeps
// each one's VarCuts and nothing of the evaluators that found them. Segments
// with equal structural keys share one *segment, plan included.
type segment struct {
	plan *plan.Plan
	cost float64 // bandwidth-weighted comm time on the stage sub-machine
	err  error
}

// stageProblem is one segment's stage problem, coarsened once and read twice:
// by its structural key, and by the search when no earlier segment of the
// level had that key.
type stageProblem struct {
	lo, hi int
	// co is the segment's transient coarsening (prepareSegment).
	co *coarsen.Coarse
	// span is the segment's "hybrid.segment" span (nil when tracing is off);
	// fill ends it.
	span *obs.Span
}

func (s *search) newLevelState(level int) (*levelState, error) {
	L := len(s.c.Groups)
	ls := &levelState{s: s, level: level}
	kSub, S := int64(1), int64(1)
	for li, lv := range s.tp.Levels {
		if li < level {
			kSub *= lv.GroupSize
		} else {
			S *= lv.GroupSize
		}
	}
	if S > int64(L) {
		return nil, fmt.Errorf("level %d (%s): %d stages exceed %d pipeline groups",
			level, s.tp.Levels[level].Name, S, L)
	}
	ls.S, ls.kSub = int(S), kSub

	// The stage sub-machine: the levels below the stage level, unchanged, so
	// P2PBandwidth still matches Levels[0] and Validate holds.
	hw := s.tp.HW
	hw.NumGPUs = int(kSub)
	ls.subTopo = topo.Topology{
		Name:   s.tp.Name + "/stage",
		HW:     hw,
		Levels: append([]topo.Level(nil), s.tp.Levels[:level]...),
	}
	if err := ls.subTopo.Validate(); err != nil {
		return nil, fmt.Errorf("level %d: stage sub-machine invalid: %w", level, err)
	}
	ls.depth = 0
	for li := 0; li < level; li++ {
		ls.depth += len(recursive.Factorize(s.tp.Levels[li].GroupSize))
	}

	// Boundary link bandwidths, by full-machine GPU index: the hand-off from
	// stage j-1 to stage j crosses the link between its last and first GPU.
	ls.bw = make([]float64, ls.S)
	for j := 1; j < ls.S; j++ {
		ls.bw[j] = s.tp.LinkBandwidth(j*int(kSub)-1, j*int(kSub))
	}
	ls.prepare, ls.solve = ls.prepareSegment, ls.solveSegment
	ls.lb1 = make([]float64, L)
	for g := range ls.lb1 {
		ls.lb1[g] = ls.groupFloor(g)
	}
	ls.initTables()
	return ls, nil
}

// initTables lays out the dense tables over lb1: every segment unsolved at its
// group-floor sum, no state visited, no earlier level to beat.
func (ls *levelState) initTables() {
	L := len(ls.lb1)
	ls.W = L + 1
	ls.segs, ls.est = make([]*segment, ls.W*ls.W), make([]float64, ls.W*ls.W)
	for lo := 0; lo < L; lo++ {
		sum := 0.0
		for hi := lo + 1; hi <= L; hi++ {
			sum += ls.lb1[hi-1]
			ls.est[lo*ls.W+hi] = sum
		}
	}
	ls.hand = make([]float64, ls.S*ls.W)
	for j := 1; j < ls.S; j++ {
		for b := 1; b < L; b++ {
			ls.hand[j*ls.W+b] = ls.s.xb[b] / ls.bw[j]
		}
	}
	ls.togo, ls.next = make([]float64, ls.S*ls.W), make([]int, ls.S*ls.W)
	ls.seen = make([]float64, ls.S*ls.W)
	for i := range ls.seen {
		ls.seen[i] = math.Inf(1)
	}
	ls.dirty, ls.prior = L, math.Inf(1)
}

// refresh brings the cost-to-go table up to date backward over the (stage,
// boundary) DAG: togo[j][b] is the cheapest completion once boundary j sits at
// b — remaining segments at their estimates, hand-offs exact — and next[j][b]
// the position of boundary j+1 attaining it (the smallest on ties). Estimates
// are admissible, so togo never exceeds a true completion's cost, and it is at
// least the group-floor suffix plus any hand-off floor, being a minimum over
// the completions those bound.
//
// Only rows b ≤ dirty are recomputed. An entry at b reads estimates of
// segments starting at b and entries at later boundaries, so solving [lo, hi)
// can move entries at b ≤ lo and no others; the rows above dirty hold what a
// full recomputation would write, in the same bits. A recomputed row scans
// every nb in ascending order with a strict comparison, exactly as a full
// recomputation does, so its ties still resolve to the smallest nb. A refresh
// after solves starting at lo costs O(S·lo·L) flops, O(S·L²) at most.
func (ls *levelState) refresh() {
	L, W, S, top := ls.W-1, ls.W, ls.S, ls.dirty
	ls.dirty = -1
	for b := S - 1; b <= min(L-1, top); b++ {
		ls.togo[(S-1)*W+b] = ls.est[b*W+L]
	}
	for j := S - 2; j >= 0; j-- {
		hand, after := ls.hand[(j+1)*W:(j+2)*W], ls.togo[(j+1)*W:(j+2)*W]
		// Boundary j sits in [j, L-(S-j)]; "boundary 0" is the graph's start.
		for b := j; b <= min(L-(S-j), j*L, top); b++ {
			est := ls.est[b*W : (b+1)*W]
			best, arg := math.Inf(1), b+1
			for nb := b + 1; nb <= L-(S-j-1); nb++ {
				if v := est[nb] + hand[nb] + after[nb]; v < best {
					best, arg = v, nb
				}
			}
			ls.togo[j*W+b], ls.next[j*W+b] = best, arg
		}
	}
}

// h reads the cost-to-go of state (j, b), refreshing the table first if a
// segment was solved since.
func (ls *levelState) h(j, b int) float64 {
	if ls.dirty >= 0 {
		ls.refresh()
	}
	ls.s.stats.LBQueries++
	return ls.togo[j*ls.W+b]
}

// bar is what a completion must stay within to matter: the cheaper of the
// earlier levels' best and this level's incumbent, plus the float guard.
func (ls *levelState) bar() float64 {
	c := ls.prior
	if ls.haveBest && ls.bestCost < c {
		c = ls.bestCost
	}
	return c + pruneSlack(c)
}

// groupFloor computes the admissible per-group cost floor: for coarsened
// group g, coarsen the single-group segment, and sum dp.LowerBound over the
// sub-machine's (factor, level) pool weighted by each level's bandwidth. The
// coarsening and each factor's bound are level-independent, so the search
// computes them once for all candidate levels (search.groupBound); only the
// weighting, summed in pool order, is this level's.
// Soundness: a single-group segment severs every cross-group tensor union,
// so its coarsened variables refine any enclosing
// segment's — per-slot dense-table minima can only drop — and slots never
// span groups, so summing groupwise floors under-counts the segment's
// LowerBound, which itself under-counts the true per-factor DP cost at the
// segment root; the factor deltas only shrink down the recursion (pricing at
// original shapes, Lemma 1), so the pool sum bounds the full stage cost from
// below. A group that cannot split f ways makes every segment containing it
// infeasible for the same reason (the single-group problem has strictly
// fewer sharding constraints): its floor is +Inf, and the reason surfaces
// from the segment solves.
func (ls *levelState) groupFloor(g int) float64 {
	gb := ls.s.groupSegment(g)
	if gb.err != nil {
		return math.Inf(1)
	}
	total := 0.0
	// A factor's floor is charged once per pool entry at that entry's
	// bandwidth.
	for li := 0; li < ls.level; li++ {
		for _, f := range recursive.Factorize(ls.s.tp.Levels[li].GroupSize) {
			lb, err := ls.s.groupBound(gb, f)
			if err != nil {
				return math.Inf(1)
			}
			total += lb / ls.s.tp.Levels[li].Bandwidth
		}
	}
	return total
}

// groupBounds is what the group floors of one search know of a coarsened
// group: its single-group segment and that segment's dp.LowerBound per prime
// factor asked so far.
type groupBounds struct {
	co     *coarsen.Coarse
	err    error
	shapes map[int]shape.Shape
	bounds []factorBound
}

// factorBound is one memoized dp.LowerBound of a group's segment.
type factorBound struct {
	f   int64
	lb  float64
	err error
}

// groupSegment returns group g's bounds, coarsening its single-group segment
// on first use. The floors keep their segments for the whole search, so these
// views own their storage (coarsen.Coarse.Segment).
func (s *search) groupSegment(g int) *groupBounds {
	gb := &s.floors[g]
	if gb.co == nil && gb.err == nil {
		gb.co, gb.err = s.c.Segment(g, g+1, &s.scratch)
		if gb.err == nil {
			// One original shape per variable (see dp.Problem.Shapes).
			gb.shapes = make(map[int]shape.Shape, len(gb.co.Vars))
			for _, v := range gb.co.Vars {
				gb.shapes[v.Tensors[0].ID] = v.Shape
			}
		}
	}
	return gb
}

// groupBound returns the LowerBound of gb's segment for factor f, computing
// it — one bound query — the first time any level asks.
func (s *search) groupBound(gb *groupBounds, f int64) (float64, error) {
	for _, b := range gb.bounds {
		if b.f == f {
			return b.lb, b.err
		}
	}
	s.stats.LBQueries++
	lb, err := dp.LowerBound(&dp.Problem{
		Coarse:      gb.co,
		K:           f,
		Shapes:      gb.shapes,
		DType:       s.opts.DType,
		MaxStates:   s.opts.MaxStates,
		Parallelism: s.opts.Parallelism,
		Cache:       s.cache,
	})
	gb.bounds = append(gb.bounds, factorBound{f: f, lb: lb, err: err})
	return lb, err
}

// stageOptions are the recursive-search options every stage of this level
// is searched — and the winners materialized — under.
func (ls *levelState) stageOptions() recursive.Options {
	return recursive.Options{
		DType:       ls.s.opts.DType,
		MaxStates:   ls.s.opts.MaxStates,
		Parallelism: ls.s.opts.Parallelism,
		Cache:       ls.s.cache,
		Topology:    &ls.subTopo,
	}
}

// segment returns the memoized partition solution for groups [lo, hi),
// filling it on first touch. Shared across every boundary set the search
// costs, the seed rounds' and the walk's alike.
func (ls *levelState) segment(lo, hi int) *segment {
	at := lo*ls.W + hi
	if sg := ls.segs[at]; sg != nil {
		return sg
	}
	sg := ls.fill(lo, hi)
	ls.segs[at] = sg
	ls.filled++
	ls.est[at], ls.dirty = sg.cost, max(ls.dirty, lo)
	if sg.err != nil {
		ls.est[at] = math.Inf(1)
	}
	return sg
}

// fill solves groups [lo, hi): one full topology-aware recursive search on the
// stage sub-machine — unless an earlier segment of this level had the same
// structural key, whose solution it then shares (a hit). Only complete
// solutions enter the classes: a failure names its own groups and the walk
// collects reasons by message, and a degraded plan is no proven optimum.
func (ls *levelState) fill(lo, hi int) *segment {
	key, pr, err := ls.prepare(ls.keyBuf[:0], lo, hi)
	ls.keyBuf = key
	defer pr.span.End()
	if err != nil {
		ls.s.stats.Segments++
		return &segment{err: err}
	}
	if sg := ls.classes[string(key)]; sg != nil {
		ls.hits++
		pr.span.SetInt("memo_hit", 1)
		return sg
	}
	ls.s.stats.Segments++
	sg := &segment{}
	sg.plan, sg.cost, sg.err = ls.solve(pr)
	if sg.err == nil && !sg.plan.Degraded {
		if ls.classes == nil {
			ls.classes = make(map[string]*segment)
		}
		ls.classes[string(key)] = sg
	}
	return sg
}

// prepareSegment coarsens groups [lo, hi) of the root coarsening — a view of
// the root's groups — and appends its structural key
// (coarsen.Coarse.AppendStructKey) to key. The segment is transient
// (coarsen.Coarse.SegmentTransient): the search's scratch holds it until the
// next segment coarsening, and fill is done with it by then — a solve keeps
// only the cost and the cost-only plan.
func (ls *levelState) prepareSegment(key []byte, lo, hi int) ([]byte, stageProblem, error) {
	pr := stageProblem{lo: lo, hi: hi}
	pr.span = ls.trace.Child("hybrid.segment")
	pr.span.SetInt("lo", int64(lo))
	pr.span.SetInt("hi", int64(hi))
	csp := pr.span.Child("coarsen")
	var err error
	pr.co, err = ls.s.c.SegmentTransient(lo, hi, &ls.s.scratch)
	if err == nil {
		csp.SetInt("groups", int64(len(pr.co.Groups)))
	}
	csp.End()
	if err != nil {
		return key, pr, fmt.Errorf("groups [%d,%d) on %d GPUs: %w", lo, hi, ls.kSub, err)
	}
	return pr.co.AppendStructKey(key), pr, nil
}

// solveSegment searches and prices a prepared segment.
func (ls *levelState) solveSegment(pr stageProblem) (*plan.Plan, float64, error) {
	var inner recursive.SearchStats
	ropts := ls.stageOptions()
	ropts.Stats, ropts.Trace, ropts.Cancel = &inner, pr.span, ls.s.opts.Cancel
	p, err := recursive.Search(pr.co, ls.kSub, ropts)
	// A flat sub-machine runs no ordering search and reports no bound queries.
	ls.s.stats.DPSolves = satAdd(ls.s.stats.DPSolves, int64(inner.DPSolves))
	ls.s.stats.Replays = satAdd(ls.s.stats.Replays, int64(inner.Replays))
	ls.s.stats.LBQueries = satAdd(ls.s.stats.LBQueries, int64(inner.LBQueries))
	if err != nil {
		return nil, 0, fmt.Errorf("groups [%d,%d) on %d GPUs: %w", pr.lo, pr.hi, ls.kSub, err)
	}
	cost := recursive.CommTime(p, ls.subTopo)
	pr.span.SetFloat("cost", cost)
	return p, cost, nil
}

// contend searches this level against the best earlier one and returns the
// winner. A later level must be strictly cheaper — ties keep the innermost —
// so the earlier best is a bar on everything this level solves.
func (ls *levelState) contend(best *levelState) *levelState {
	if best != nil {
		ls.prior = best.bestCost
	}
	if ls.run(); ls.haveBest && (best == nil || ls.bestCost < best.bestCost) {
		return ls
	}
	return best
}

// run finds the level's lex-first cheapest boundary set as a lazy shortest
// path: seed rounds solve only the segments the estimate-optimal set needs,
// then a depth-first walk in lexicographic order settles exact ties, cutting
// what the cost-to-go table or a dominating earlier visit rules out. The leaf
// offer rule — strict improvement, or equal cost and lexicographically
// smaller — makes the winner the lex-first minimum whatever was offered in
// whatever order, so the plan is the exhaustive enumeration's.
func (ls *levelState) run() {
	sets := binomial(ls.W-2, ls.S-1)
	ls.s.stats.BoundarySets = satAdd(ls.s.stats.BoundarySets, sets)
	ls.s.stats.FlatDPSolves = satAdd(ls.s.stats.FlatDPSolves,
		satMul(sets, satMul(int64(ls.S), int64(ls.depth))))

	solved := ls.s.stats.Segments
	rounds, open := ls.seed()
	if open {
		ls.dfs(1, 0, 0, make([]int, 0, ls.S-1))
	}
	ls.trace.SetInt("seed_rounds", int64(rounds))
	ls.trace.SetInt("segments", ls.s.stats.Segments-solved)
	ls.trace.SetInt("segment_hits", ls.hits)
	if !open && rounds == 0 && !ls.s.cancelled {
		ls.trace.SetInt("skipped", 1) // an earlier level's best cut it before any solve
	}
	if ls.haveBest {
		ls.trace.SetFloat("best_cost", ls.bestCost)
	}
}

// seed is the lazy shortest-path phase. Each round reads the estimate-optimal
// boundary set off the cost-to-go table, solves its unsolved segments and
// offers its exact cost; a round fills at least one segment (by a solve or a
// memo hit), so the loop ends: when that set is already fully solved (the
// level's optimum up to float ties, which the walk settles), when no set can
// stay within the bar (open = false, the walk has nothing to find), or when
// every set crosses a failed segment (the walk collects the reasons). The first
// round's set is what a cancelled search ships.
func (ls *levelState) seed() (rounds int, open bool) {
	set := make([]int, ls.S-1)
	for {
		if ls.s.cancelled || ls.s.opts.Cancel.Cancelled() {
			ls.s.cancelled = true
			return rounds, false
		}
		h := ls.h(0, 0)
		if cut := h > ls.bar(); cut || math.IsInf(h, 1) {
			return rounds, !cut
		}
		for j, b := 0, 0; j < len(set); j++ {
			b = ls.next[j*ls.W+b]
			set[j] = b
		}
		// Memo hits fill slots without a search, so progress is counted in
		// filled slots, not in Stats.Segments.
		filled := ls.filled
		if cost, ok := ls.leafCost(set); ok {
			ls.offer(set, cost)
		}
		if ls.filled == filled {
			return rounds, true
		}
		rounds++
	}
}

// leafCost prices a complete boundary set with the identical left-to-right
// accumulation the DFS uses.
func (ls *levelState) leafCost(set []int) (float64, bool) {
	L := ls.W - 1
	g, prev := 0.0, 0
	for j := 1; j < ls.S; j++ {
		b := set[j-1]
		sg := ls.segment(prev, b)
		if sg.err != nil {
			ls.s.addErr(sg.err)
			return 0, false
		}
		g = g + sg.cost + ls.hand[j*ls.W+b]
		prev = b
	}
	last := ls.segment(prev, L)
	if last.err != nil {
		ls.s.addErr(last.err)
		return 0, false
	}
	return g + last.cost, true
}

// dfs places boundary j (1-based) at every position after prev, accumulating
// the exact prefix cost g. It cuts a node dominated by a completed earlier
// visit to the same (j, prev) with no larger g — that visit was
// lexicographically smaller and float accumulation is monotone in g, so every
// completion here lost to or tied behind its twin there — and a child whose
// bound leaves the bar, before its segment solve (estimate + cost-to-go: where
// dp.Solve calls are saved) and after it (exact prefix + cost-to-go).
func (ls *levelState) dfs(j, prev int, g float64, chosen []int) {
	if ls.s.opts.Cancel.Cancelled() {
		// Wind the walk down; the incumbent (a seed round or an earlier
		// leaf) ships as the degraded answer.
		ls.s.cancelled = true
		return
	}
	if g >= ls.seen[j*ls.W+prev] {
		ls.s.stats.Pruned++
		return
	}
	ls.s.stats.Expanded++
	L := ls.W - 1
	for b := prev + 1; b <= L-(ls.S-j) && !ls.s.cancelled; b++ {
		hb := ls.hand[j*ls.W+b]
		if g+ls.est[prev*ls.W+b]+hb+ls.h(j, b) > ls.bar() {
			ls.s.stats.Pruned++
			continue
		}
		sg := ls.segment(prev, b)
		if sg.err != nil {
			ls.s.addErr(sg.err)
			continue
		}
		g2 := g + sg.cost + hb
		if g2+ls.h(j, b) > ls.bar() {
			ls.s.stats.Pruned++
			continue
		}
		chosen = append(chosen, b)
		if j == ls.S-1 {
			last := ls.segment(b, L)
			if last.err != nil {
				ls.s.addErr(last.err)
			} else {
				ls.s.stats.Leaves++
				ls.offer(chosen, g2+last.cost)
			}
		} else {
			ls.dfs(j+1, b, g2, chosen)
		}
		chosen = chosen[:len(chosen)-1]
	}
	if !ls.s.cancelled {
		ls.seen[j*ls.W+prev] = g // completed: every child was offered or ruled out
	}
}

// offer installs a complete boundary set as the incumbent on strict
// improvement, or on a tie when it is lexicographically smaller — the
// exhaustive enumeration's first-wins order.
func (ls *levelState) offer(set []int, cost float64) {
	if ls.haveBest && cost >= ls.bestCost &&
		!(cost == ls.bestCost && lexLessInts(set, ls.best)) {
		return
	}
	ls.best = append(ls.best[:0], set...)
	ls.bestCost = cost
	ls.haveBest = true
}
