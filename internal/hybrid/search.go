package hybrid

import (
	"fmt"
	"math"
	"sort"

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
	// lb1[g] is the admissible per-group cost floor (see buildLB1);
	// lbSuffix[g] = Σ_{i>=g} lb1[i]. +Inf marks an infeasible group.
	lb1      []float64
	lb1err   []error
	lbSuffix []float64
	// segs memoizes solved segments by [lo, hi) — the O(L²) core.
	segs map[segKey]*segment

	// xbAsc[b] lists the S-1 smallest crossings of xb[b+1:] and bwAsc[j] all
	// of bw[j+1:], both ascending — the hand-off floor reads them at every
	// tree node.
	xbAsc [][]float64
	bwAsc [][]float64

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
// each one's VarCuts and nothing of the evaluators that found them.
type segment struct {
	plan *plan.Plan
	cost float64 // bandwidth-weighted comm time on the stage sub-machine
	err  error
}

func (s *search) newLevelState(level int) (*levelState, error) {
	L := len(s.c.Groups)
	ls := &levelState{s: s, level: level, segs: make(map[segKey]*segment)}
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
	ls.buildHandoffFloors()
	ls.buildLB1()
	return ls, nil
}

// buildHandoffFloors sorts, once per level, every suffix the hand-off floor
// can ask for: the candidate crossings after each position (only the S-1
// smallest can ever be paired) and the bandwidths after each boundary.
func (ls *levelState) buildHandoffFloors() {
	L := len(ls.s.c.Groups)
	ls.xbAsc = make([][]float64, L)
	asc := make([]float64, 0, L)
	for b := range ls.xbAsc {
		asc = append(asc[:0], ls.s.xb[b+1:]...)
		sort.Float64s(asc)
		ls.xbAsc[b] = append([]float64(nil), asc[:min(len(asc), ls.S-1)]...)
	}
	ls.bwAsc = make([][]float64, ls.S)
	for j := range ls.bwAsc {
		ls.bwAsc[j] = append([]float64(nil), ls.bw[j+1:]...)
		sort.Float64s(ls.bwAsc[j])
	}
}

// buildLB1 computes the admissible per-group cost floor: for each coarsened
// group g, extract the single-group subgraph, coarsen it, and sum
// dp.LowerBound over the sub-machine's (factor, level) pool weighted by each
// level's bandwidth. Soundness: a single-group extraction severs every
// cross-group tensor union, so its coarsened variables refine any enclosing
// segment's — per-slot dense-table minima can only drop — and slots never
// span groups, so summing groupwise floors under-counts the segment's
// LowerBound, which itself under-counts the true per-factor DP cost at the
// segment root; the factor deltas only shrink down the recursion (pricing at
// original shapes, Lemma 1), so the pool sum bounds the full stage cost from
// below. A group that cannot split f ways makes every segment containing it
// infeasible for the same reason (the single-group problem has strictly
// fewer sharding constraints).
func (ls *levelState) buildLB1() {
	L := len(ls.s.c.Groups)
	ls.lb1 = make([]float64, L)
	ls.lb1err = make([]error, L)
	for g := 0; g < L; g++ {
		ls.lb1[g], ls.lb1err[g] = ls.groupFloor(g)
	}
	ls.lbSuffix = make([]float64, L+1)
	for g := L - 1; g >= 0; g-- {
		ls.lbSuffix[g] = ls.lbSuffix[g+1] + ls.lb1[g]
	}
}

func (ls *levelState) groupFloor(g int) (float64, error) {
	sub, err := ls.s.extract(g, g+1)
	if err != nil {
		return math.Inf(1), err
	}
	co, err := coarsen.CoarsenSub(ls.s.c, sub)
	if err != nil {
		return math.Inf(1), fmt.Errorf("group %d: %w", g, err)
	}
	shapes := make(map[int]shape.Shape, len(sub.G.Tensors))
	for _, t := range sub.G.Tensors {
		shapes[t.ID] = t.Shape
	}
	total := 0.0
	// One LowerBound per distinct prime factor, shared across the levels it
	// appears at; a factor's floor is charged once per pool entry at that
	// entry's bandwidth.
	perF := make(map[int64]float64)
	for li := 0; li < ls.level; li++ {
		for _, f := range recursive.Factorize(ls.s.tp.Levels[li].GroupSize) {
			lb, ok := perF[f]
			if !ok {
				ls.s.stats.LBQueries++
				lb, err = dp.LowerBound(&dp.Problem{
					Coarse:      co,
					K:           f,
					Shapes:      shapes,
					DType:       ls.s.opts.DType,
					MaxStates:   ls.s.opts.MaxStates,
					Parallelism: ls.s.opts.Parallelism,
					Cache:       ls.s.cache,
				})
				if err != nil {
					return math.Inf(1), fmt.Errorf("group %d cannot split %d ways: %w", g, f, err)
				}
				perF[f] = lb
			}
			total += lb / ls.s.tp.Levels[li].Bandwidth
		}
	}
	return total, nil
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
// solving it on first touch: one full topology-aware recursive search on the
// stage sub-machine. Shared across every boundary set — and, via the memo,
// across the branch-and-bound and oracle paths of the same Partition call.
func (ls *levelState) segment(lo, hi int) *segment {
	key := segKey{lo, hi}
	if sg, ok := ls.segs[key]; ok {
		return sg
	}
	sg := &segment{}
	ls.segs[key] = sg
	ls.s.stats.Segments++
	sub, err := ls.s.extract(lo, hi)
	if err != nil {
		sg.err = err
		return sg
	}
	ssp := ls.trace.Child("hybrid.segment")
	ssp.SetInt("lo", int64(lo))
	ssp.SetInt("hi", int64(hi))
	defer ssp.End()
	csp := ssp.Child("coarsen")
	co, err := coarsen.CoarsenSub(ls.s.c, sub)
	if err == nil {
		csp.SetInt("groups", int64(len(co.Groups)))
	}
	csp.End()
	if err != nil {
		sg.err = fmt.Errorf("groups [%d,%d) on %d GPUs: %w", lo, hi, ls.kSub, err)
		return sg
	}
	var inner recursive.SearchStats
	ropts := ls.stageOptions()
	ropts.Stats, ropts.Trace, ropts.Cancel = &inner, ssp, ls.s.opts.Cancel
	p, err := recursive.Search(co, ls.kSub, ropts)
	if ls.subTopo.Hierarchical() {
		ls.s.stats.DPSolves = satAdd(ls.s.stats.DPSolves, int64(inner.DPSolves))
		ls.s.stats.LBQueries = satAdd(ls.s.stats.LBQueries, int64(inner.LBQueries))
	} else {
		// Flat sub-machine: one Solve per prime factor, no ordering search.
		ls.s.stats.DPSolves = satAdd(ls.s.stats.DPSolves, int64(ls.depth))
	}
	if err != nil {
		sg.err = fmt.Errorf("groups [%d,%d) on %d GPUs: %w", lo, hi, ls.kSub, err)
		return sg
	}
	sg.plan = p
	sg.cost = recursive.CommTime(p, ls.subTopo)
	ssp.SetFloat("cost", sg.cost)
	return sg
}

// handoffFloor bounds the remaining hand-off cost from below after placing
// boundary j at position b: the S-1-j boundaries still to place must each
// use a distinct position > b, and their bandwidths are exactly
// bw[j+1..S-1]. Pair the R smallest candidate crossings (ascending) with
// those bandwidths sorted ascending — by the rearrangement inequality,
// Σ x_i/b_i over a fixed bandwidth multiset is minimized when x and b are
// similarly sorted, and replacing the true crossings with the R smallest
// candidates only lowers each term. Hence the floor never exceeds any
// completion's true hand-off cost.
func (ls *levelState) handoffFloor(b, j int) float64 {
	cand, bws := ls.xbAsc[b], ls.bwAsc[j]
	total := 0.0
	for i := 0; i < ls.S-1-j; i++ {
		total += cand[i] / bws[i]
	}
	return total
}

// run seeds the incumbent with the balanced boundary set, then walks the
// boundary tree depth-first in lexicographic order, pruning subtrees whose
// admissible bound exceeds the incumbent (never in Exhaustive mode). The
// leaf offer rule — strict improvement, or equal cost and lexicographically
// smaller — makes the winner the lex-first minimum with or without the seed
// and with or without pruning, so branch-and-bound plans are byte-identical
// to the oracle's.
func (ls *levelState) run() ([]int, bool) {
	ls.s.stats.BoundarySets = satAdd(ls.s.stats.BoundarySets,
		binomial(len(ls.s.c.Groups)-1, ls.S-1))
	ls.s.stats.FlatDPSolves = satAdd(ls.s.stats.FlatDPSolves,
		satMul(binomial(len(ls.s.c.Groups)-1, ls.S-1), satMul(int64(ls.S), int64(ls.depth))))

	if !ls.s.opts.Exhaustive {
		if seed, cost, ok := ls.balancedSeed(); ok {
			ls.offer(seed, cost)
		}
	}
	ls.dfs(1, 0, 0, make([]int, 0, ls.S-1))
	if !ls.haveBest {
		return nil, false
	}
	return ls.best, true
}

// balancedSeed costs the evenly spread boundary set b_j = round(j*L/S) using
// the same accumulation arithmetic as the tree walk, so an equal-cost tree
// leaf compares bit-for-bit against it.
func (ls *levelState) balancedSeed() ([]int, float64, bool) {
	L := len(ls.s.c.Groups)
	set := make([]int, ls.S-1)
	for j := 1; j < ls.S; j++ {
		b := (j*L + ls.S/2) / ls.S
		if b < j {
			b = j // keep strictly increasing with room for earlier stages
		}
		if max := L - (ls.S - j); b > max {
			b = max
		}
		set[j-1] = b
	}
	for j := 1; j < len(set); j++ {
		if set[j] <= set[j-1] {
			set[j] = set[j-1] + 1
		}
	}
	cost, ok := ls.leafCost(set)
	return set, cost, ok
}

// leafCost prices a complete boundary set with the identical left-to-right
// accumulation the DFS uses.
func (ls *levelState) leafCost(set []int) (float64, bool) {
	L := len(ls.s.c.Groups)
	g, prev := 0.0, 0
	for j := 1; j < ls.S; j++ {
		b := set[j-1]
		sg := ls.segment(prev, b)
		if sg.err != nil {
			ls.s.addErr(sg.err)
			return 0, false
		}
		g = g + sg.cost + ls.s.xb[b]/ls.bw[j]
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
// the exact prefix cost g. Bounds run twice per child: before the segment
// solve (prefix floor + suffix floor — this is where dp.Solve calls are
// saved) and after it (exact prefix + suffix floor).
func (ls *levelState) dfs(j, prev int, g float64, chosen []int) {
	if ls.s.opts.Cancel.Cancelled() {
		// Wind the walk down; the incumbent (balanced seed or an earlier
		// leaf) ships as the degraded answer.
		ls.s.cancelled = true
		return
	}
	ls.s.stats.Expanded++
	L := len(ls.s.c.Groups)
	bound := !ls.s.opts.Exhaustive
	for b := prev + 1; b <= L-(ls.S-j); b++ {
		hb := ls.s.xb[b] / ls.bw[j]
		if bound && ls.haveBest {
			// lbSuffix[prev] covers both this child's segment [prev,b) and
			// everything after b, since suffix sums telescope.
			ls.s.stats.LBQueries++
			pre := g + ls.lbSuffix[prev] + hb + ls.handoffFloor(b, j)
			if pre > ls.bestCost+pruneSlack(ls.bestCost) {
				ls.s.stats.Pruned++
				continue
			}
		}
		sg := ls.segment(prev, b)
		if sg.err != nil {
			ls.s.addErr(sg.err)
			continue
		}
		g2 := g + sg.cost + hb
		if bound && ls.haveBest && j < ls.S-1 {
			ls.s.stats.LBQueries++
			post := g2 + ls.lbSuffix[b] + ls.handoffFloor(b, j)
			if post > ls.bestCost+pruneSlack(ls.bestCost) {
				ls.s.stats.Pruned++
				continue
			}
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
