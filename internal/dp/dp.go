// Package dp implements the per-step dynamic-programming search over the
// coarsened graph (EuroSys'19 Sec 5.1). It generalizes the chain DP of
// ICML18 [14] to a frontier sweep: groups are processed in the coarsened
// order; the DP state is the cut assignment of every variable live across
// the current boundary. On a chain this is exactly the classic algorithm; on
// WResNet's fork-join residual structure (linear by the paper's
// homeomorphism definition) the frontier simply carries one extra variable.
// Within each group the search brute-forces the member operators' strategy
// choices — the paper's "combinatorial search among all member
// operators/tensors within the group".
//
// The sweep is allocation-free integer arithmetic: states are packed
// mixed-radix numbers over per-variable cut-dim alphabets (state.go), every
// slot's cost under any assignment comes from a dense table built once per
// step (table.go), and each group sums its slots' tables into one group
// cost table that the sweep reads a row at a time (sweep.go). See
// DESIGN.md, "Packed frontier states and dense slot tables".
//
//tofu:searchpath reachable from dp.Solve / recursive.Partition; nodeterm enforces determinism
package dp

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"tofu/internal/cancel"
	"tofu/internal/coarsen"
	"tofu/internal/obs"
	"tofu/internal/partition"
	"tofu/internal/shape"
)

// Problem is one invocation of the per-step search: partition every tensor
// along one dimension among K worker groups, minimizing total communication.
//
// Costs are priced at the graph's ORIGINAL shapes. Lemma 1 shows a basic
// plan's cost is Σ α_t·S_t where the α depend only on strategy/cut
// alignment, so at recursive step i (when every tensor is 1/mult of its
// original size) the true cost is the original-shape cost divided by mult —
// the same argmin. Pricing at original shapes keeps the cost function
// exactly linear (Theorem 1's commutativity), while divisibility is checked
// against the current, already-divided shapes.
type Problem struct {
	Coarse *coarsen.Coarse
	K      int64
	// Shapes maps tensor ID to its current shape at this recursive step;
	// it gates which dimensions may still be cut. Only each variable's
	// first member (v.Tensors[0].ID) is read, once per preparation: a step
	// divides a variable's members alike, so they share one shape, and a
	// table with one entry per variable (what recursive keeps) serves as
	// well as a full per-tensor map.
	Shapes map[int]shape.Shape
	DType  shape.DType
	// StrategyFilter, if non-nil, restricts the operator strategies the
	// search may use (the ICML18 baseline drops output reduction).
	StrategyFilter func(partition.Strategy) bool
	// MaxStates bounds the DP frontier (0 = exact, unlimited). Graphs with
	// higher cutwidth than the paper's chains/residuals — e.g. attention
	// blocks fanning one tensor into Q/K/V — can explode the exact state
	// space; with a bound, only the cheapest MaxStates states survive each
	// step (beam search: near-optimal in practice, no optimality proof).
	// An exact solve prunes its sweep instead with an incumbent bound
	// (bound.go) when the frontiers are wide, which changes no result; a
	// beam turns that bound off.
	MaxStates int
	// Parallelism is the number of worker goroutines evaluating the
	// frontier sweep's (state × strategy-combination) expansions and the
	// per-slot pricing analyses (0 = runtime.GOMAXPROCS(0), 1 = serial).
	// The merge is deterministic: ties between equal-cost expansions break
	// by canonical sweep order, so the chosen plan is byte-identical for
	// every setting.
	Parallelism int
	// Cache, if non-nil, memoizes priced strategy enumerations across Solve
	// calls — across recursive factor steps and across baseline variants
	// over the same model (see PriceCache).
	Cache *PriceCache
	// Reuse is the retired cross-step evaluator carrier; a StepMemo shares
	// preparations between the steps of a search instead.
	//
	// Deprecated: has no effect; only bench/ names it, and ROADMAP item 1 deletes it.
	Reuse *EvalReuse
	// Trace, if non-nil, is the parent of a "dp.pricing" span per Prepare
	// (slot-evaluator preparation, whoever asks for it — a solve or a bound
	// query) and a "dp.solve" span per sweep. A nil Trace — the default — is
	// a strict no-op: spans never influence the sweep, so plans stay
	// byte-identical either way.
	Trace *obs.Span
	// Cancel, if non-nil, is polled once per group sweep; a tripped token
	// aborts Solve with its reason. The DP has no incumbent to degrade to —
	// a partial frontier is not a plan — so cancellation here is an error
	// the recursive layer above turns into its own best incumbent. A nil
	// token (the default) costs one pointer comparison per group.
	Cancel *cancel.Token

	// bound is the incumbent bound's test seam (bound.go); the zero value,
	// boundGated, is the only setting outside this package's tests.
	bound boundMode
}

// EvalReuse is the retired cross-step evaluator carrier.
//
// Deprecated: has no effect; only bench/ names it, and ROADMAP item 1 deletes it.
type EvalReuse struct{}

// parallelism resolves the effective worker count.
func (p *Problem) parallelism() int {
	if p.Parallelism > 0 {
		return p.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Result is the chosen basic partition plan for one step. A solve decides the
// assignment and its cost; the dense per-tensor and per-node tables a plan
// step carries are derived from the assignment on demand (Materialize), so a
// search that asks thousands of solves for a number builds them for its
// winners only.
type Result struct {
	// VarCut maps coarsened-variable ID to the chosen cut dimension.
	VarCut map[int]int
	// TensorCut expands VarCut to every member tensor ID — dense by the IDs
	// of the coarsening's graph (Coarse.G: for a segment, the whole graph it
	// was cut from), -1 for uncut tensors and tensors outside the coarsening.
	// It, OpStrategy and OpComm are nil until Materialize fills them.
	TensorCut []int
	// OpStrategy is the chosen partition strategy per node ID (dense); an
	// empty Axis marks nodes without one.
	OpStrategy []partition.Strategy
	// OpComm itemizes each node's communication (fetch vs output bytes,
	// summed over all workers at this step), dense by node ID — the graph
	// generator turns these into MultiFetch and reduce tasks.
	OpComm []partition.Parts
	// CommBytes is δ_i for this basic plan: total communication across all
	// worker groups, priced at the graph's original shapes (see Problem).
	CommBytes float64
	// States is the number of DP states explored (search-effort metric for
	// Table 1).
	States int
	// Configs is the number of (state x choice) combinations evaluated.
	Configs int

	// c and evals (all slots, in group order) are what the assignment was
	// solved or priced on — the handle the dense tables derive from. Holding
	// a Result therefore holds its step's evaluators.
	c     *coarsen.Coarse
	evals []*slotEval
}

// maxSweep bounds a single group's (states × combinations) sweep; beyond it
// the search could not complete anyway, and the bound keeps the flattened
// index arithmetic safely inside int64.
const maxSweep = int64(1) << 40

// minParallelSweep is the (states × combinations) size below which a
// group's sweep runs inline instead of fanning out.
const minParallelSweep = 1 << 9

// Materialize fills TensorCut, OpStrategy and OpComm from VarCut and the
// evaluators the result came from. A result that already has them is left
// alone, so callers need not track whether someone else asked first.
func (res *Result) Materialize() error {
	if res.TensorCut != nil {
		return nil
	}
	_, err := res.materialize()
	return err
}

// materialize expands res.VarCut to every member tensor and gives every
// operator of res.evals its cheapest strategy and itemized communication
// under it. It returns the slots' summed cost — the assignment's price.
func (res *Result) materialize() (float64, error) {
	c := res.c
	tensorCut := make([]int, len(c.G.Tensors))
	opStrategy := make([]partition.Strategy, len(c.G.Nodes))
	opComm := make([]partition.Parts, len(c.G.Nodes))
	for i := range tensorCut {
		tensorCut[i] = -1
	}
	total := 0.0
	maxIn := 0
	for _, ev := range res.evals {
		maxIn = max(maxIn, len(ev.slot.In))
	}
	cuts := make([]partition.Cut, maxIn)
	for _, ev := range res.evals {
		si, cost, err := ev.best(res.VarCut)
		if err != nil {
			return 0, err
		}
		parts, err := ev.parts(si, res.VarCut, cuts[:len(ev.slot.In)])
		if err != nil {
			return 0, err
		}
		total += cost
		for _, n := range ev.slot.Ops {
			opStrategy[n.ID] = ev.priced.Strategies[si]
			opComm[n.ID] = parts
		}
	}
	for _, v := range c.Vars {
		dim, ok := res.VarCut[v.ID]
		if !ok {
			continue
		}
		for _, t := range v.Tensors {
			tensorCut[t.ID] = dim
		}
	}
	res.TensorCut, res.OpStrategy, res.OpComm = tensorCut, opStrategy, opComm
	return total, nil
}

// priceAssignment is the materialized Result of a given assignment on
// evals: CommBytes is the slots' summed cost.
func priceAssignment(c *coarsen.Coarse, evals []*slotEval, varCut map[int]int) (*Result, error) {
	res := &Result{VarCut: varCut, c: c, evals: evals}
	var err error
	if res.CommBytes, err = res.materialize(); err != nil {
		return nil, err
	}
	return res, nil
}

// Prepared is a Problem with its slot evaluators built: the per-variable
// alphabets and every slot's dense cost table. Preparation is the part of a
// step that a bound query and a solve share, so a search that bounds first
// and solves later prepares once and does both on the same evaluators; a
// StepMemo goes further and shares one slot set between the steps of a
// search with equal K and alphabets.
type Prepared struct {
	p  *Problem
	sl *slotSet
}

// Prepare builds p's slot evaluators (fanned out across the worker pool —
// slots are independent). A "dp.pricing" span under p.Trace measures it and
// attributes the price-cache traffic it caused; under parallel sibling solves
// the shared-cache deltas are approximate, which is fine for display. An
// error reports genuine infeasibility: some variable has no dimension
// divisible by K, or some slot no applicable strategy.
//
// The Prepared keeps p, not a copy: Solve reads p.MaxStates, p.Parallelism,
// p.Cancel and p.Trace when it runs, so a caller that prepared under one span
// may point p.Trace at another before solving.
func Prepare(p *Problem) (*Prepared, error) {
	if p.K < 2 {
		return nil, fmt.Errorf("dp: K must be >= 2, got %d", p.K)
	}
	pricing := p.Trace.Child("dp.pricing")
	var hits0, misses0 int64
	if pricing.Enabled() {
		hits0, misses0 = p.Cache.Stats()
	}
	sl, err := prepareSlotEvals(p)
	if pricing.Enabled() {
		hits1, misses1 := p.Cache.Stats()
		pricing.SetInt("cache_hits", hits1-hits0)
		pricing.SetInt("cache_misses", misses1-misses0)
	}
	pricing.End()
	if err != nil {
		return nil, err
	}
	return &Prepared{p: p, sl: sl}, nil
}

// Solve runs the frontier DP: Prepare, then the sweep.
func Solve(p *Problem) (*Result, error) {
	pr, err := Prepare(p)
	if err != nil {
		return nil, err
	}
	return pr.Solve()
}

// Solve sweeps the frontier over the prepared evaluators and back-tracks the
// cheapest assignment. The Result carries the assignment, its cost and the
// effort counters; see Result.Materialize for the dense tables. An exact
// solve over wide frontiers cuts the states the incumbent bound rules out
// (bound.go): the same assignment and cost, fewer States and Configs.
func (pr *Prepared) Solve() (*Result, error) {
	p, sl := pr.p, pr.sl
	c := p.Coarse
	sp := p.Trace.Child("dp.solve")
	defer sp.End()
	sp.SetInt("k", p.K)
	sp.SetInt("groups", int64(len(c.Groups)))

	// Frontier DP over groups. Each group's (state × strategy-combination)
	// expansion is evaluated by the worker pool; the merge is deterministic
	// (cheapest wins, ties break by canonical sweep order), so the result is
	// byte-identical for every Parallelism setting.
	res := &Result{VarCut: make(map[int]int, len(c.Vars)), c: c, evals: sl.ordered}
	sw := newSweeper(p, sl)
	if sw.bound {
		sw.seed(c.Groups, sl.byGroup)
	}
	// back[gi] is all backtracking reads of the frontier after group gi.
	type backPtrs struct{ parent, combo []int32 }
	back := make([]backPtrs, len(c.Groups))
	var prev *frontier
	for gi, g := range c.Groups {
		if p.Cancel.Cancelled() {
			return nil, cancel.Reason(p.Cancel.Err(), "dp: cancelled before group %d/%d", gi, len(c.Groups))
		}
		// Guard the flattened index arithmetic: combination and state
		// indices must fit int32 (they are stored as compact trace
		// entries), and the product must fit the sweep bound. Division
		// avoids overflowing the product check itself (layout.set clamps
		// runaway sizes to maxStateSpace).
		before, nCombos := sw.begin(gi, g)
		if nCombos > math.MaxInt32 || int64(before.count()) > math.MaxInt32 {
			return nil, fmt.Errorf("dp: group %d sweep exceeds index range", gi)
		}
		if int64(before.count()) > maxSweep/nCombos {
			return nil, fmt.Errorf("dp: group %d sweep exceeds %d combinations", gi, maxSweep)
		}
		res.Configs += before.live * int(nCombos)
		next, ok := sw.expand(gi, g, sl.byGroup[gi])
		if !ok {
			return nil, fmt.Errorf("dp: group %d sweep exceeds index range", gi)
		}
		if next.live == 0 {
			return nil, fmt.Errorf("dp: no feasible assignment at group %d", gi)
		}
		if p.MaxStates > 0 && next.live > p.MaxStates {
			sw.idxs = next.prune(p.MaxStates, sw.idxs)
		}
		if sw.bound {
			sw.cut(next, sw.floor[gi+1])
		}
		back[gi] = backPtrs{next.parent, next.combo}
		prev = next
		res.States += next.live
	}

	// The final frontier must be the single empty state (every variable's
	// liveness closed).
	fi := 0
	fc := prev.cost[0]
	if len(prev.lay.vars) != 0 || math.IsInf(fc, 1) {
		// Defensive: pick the cheapest remaining state (smallest packed
		// order on ties, for determinism).
		fi, fc = prev.best()
		if fi < 0 {
			return nil, fmt.Errorf("dp: empty final frontier")
		}
	}
	res.CommBytes = fc

	// Backtrack decisions through the compact parent/combo indices: a
	// combination is the mixed-radix number of its new variables' digits,
	// last variable least significant.
	cur := fi
	for gi := len(c.Groups) - 1; gi >= 0; gi-- {
		ci := int(back[gi].combo[cur])
		nv := c.Groups[gi].NewVars
		for j := len(nv) - 1; j >= 0; j-- {
			dims := sl.alphas[nv[j].ID].dims
			res.VarCut[nv[j].ID] = dims[ci%len(dims)]
			ci /= len(dims)
		}
		cur = int(back[gi].parent[cur])
	}

	sp.SetInt("states", int64(res.States))
	sp.SetInt("configs", int64(res.Configs))
	if sw.bound {
		sp.SetFloat("incumbent", sw.incumbent)
		sp.SetInt("bound_pruned", int64(sw.pruned))
	}
	sp.SetFloat("comm_bytes", res.CommBytes)
	return res, nil
}

// slotSet is every prepared slot evaluator of a problem, plus the
// per-variable alphabets their tables are indexed by. Of the step's shapes it
// keeps only the alphabets, so it is the same for every step with equal K
// and alphabets (StepMemo).
type slotSet struct {
	alphas []varAlpha
	// ordered lists evaluators in group/slot order; byGroup slices the same
	// backing array per group.
	ordered []*slotEval
	byGroup [][]*slotEval
}

// prepareSlotEvals builds every slot's evaluator and dense cost table,
// fanning the pricing analyses across the worker pool. Each worker counts
// first what its slots need, then builds them in three exactly-sized slabs —
// evaluators, variable lists, index lists.
func prepareSlotEvals(p *Problem) (*slotSet, error) {
	alphas, err := buildAlphas(p)
	if err != nil {
		return nil, err
	}
	groups := p.Coarse.Groups
	nSlots := 0
	for _, g := range groups {
		nSlots += len(g.Slots)
	}
	slots := make([]*coarsen.Slot, 0, nSlots)
	ss := &slotSet{alphas: alphas, ordered: make([]*slotEval, nSlots), byGroup: make([][]*slotEval, len(groups))}
	maxIn, maxSig := 0, 0 // over all slots: sizes each worker's scratch
	for gi, g := range groups {
		off := len(slots)
		slots = append(slots, g.Slots...)
		ss.byGroup[gi] = ss.ordered[off:len(slots):len(slots)]
		for _, s := range g.Slots {
			maxIn, maxSig = max(maxIn, len(s.Rep().Inputs)), max(maxSig, len(s.Sig))
		}
	}
	cls := p.Cache.classes(p)
	ranges := chunkRanges(nil, p.parallelism(), nSlots)
	// Per chunk: its error, then its class memo hits and fills.
	type chunkOut struct {
		err         error
		hits, fills int64
	}
	outs := make([]chunkOut, len(ranges))
	runChunks(ranges, func(w, lo, hi int) {
		// An evaluator lists the slot's distinct variables (vars), and an
		// index per entry of that list and per input (ints).
		touched, ins := 0, 0
		for i := lo; i < hi; i++ {
			touched += touchedVars(slots[i])
			ins += len(slots[i].In)
		}
		slabs := evalSlabs{
			evs:  make([]slotEval, hi-lo),
			vars: make([]*coarsen.Var, touched),
			ints: make([]int, touched+ins),
		}
		sc := newEvalScratch(maxIn, maxSig)
		out := &outs[w]
		for i := lo; i < hi; i++ {
			if ss.ordered[i], out.err = newSlotEval(p, slots[i], alphas, cls, &sc, &slabs); out.err != nil {
				break
			}
		}
		out.hits, out.fills = sc.classHits, sc.classFills
	})
	for _, out := range outs {
		if cls != nil {
			p.Cache.countClasses(out.hits, out.fills)
		}
		if out.err != nil {
			return nil, out.err
		}
	}
	return ss, nil
}

// chunkRanges appends to dst the split of [0, n) into at most workers
// contiguous [lo, hi) ranges. Callers size their per-chunk state by the
// number of ranges, so the split arithmetic lives in exactly one place.
func chunkRanges(dst [][2]int, workers, n int) [][2]int {
	if n == 0 {
		return dst
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return append(dst, [2]int{0, n})
	}
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		dst = append(dst, [2]int{lo, min(lo+chunk, n)})
	}
	return dst
}

// runChunks executes fn(chunkIdx, lo, hi) for each range, concurrently
// when there is more than one (inline otherwise).
func runChunks(ranges [][2]int, fn func(w, lo, hi int)) {
	if len(ranges) == 0 {
		return
	}
	if len(ranges) == 1 {
		fn(0, ranges[0][0], ranges[0][1])
		return
	}
	var wg sync.WaitGroup
	for w, r := range ranges {
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, r[0], r[1])
	}
	wg.Wait()
}

// Evaluate prices a complete variable assignment without searching — the
// heuristic baselines (AllRow-Greedy, Spartan) choose cuts by their own
// rules and use this to cost them, and tests use it to cross-check the DP's
// optimality. The slot evaluators (and their pricing analyses) are built on
// the worker pool, exactly like Solve's.
func Evaluate(p *Problem, varCut map[int]int) (*Result, error) {
	sl, err := prepareSlotEvals(p)
	if err != nil {
		return nil, err
	}
	return priceAssignment(p.Coarse, sl.ordered, varCut)
}

// Evaluator prices assignments incrementally: the pricings (each operator's
// compiled region program evaluated into fetch terms) and the cost tables are
// built once (on the worker pool), after which pricing any assignment (or the
// delta of flipping a single variable) is plain arithmetic. The Spartan-style
// greedy baseline relies on this.
type Evaluator struct {
	p       *Problem
	evals   []*slotEval
	byVar   map[int][]int // var ID -> slot indices touching it
	configs map[int][]int // var ID -> viable cut dims
}

// NewEvaluator prepares the slot evaluators through the same pooled path as
// Solve.
func NewEvaluator(p *Problem) (*Evaluator, error) {
	sl, err := prepareSlotEvals(p)
	if err != nil {
		return nil, err
	}
	e := &Evaluator{p: p, evals: sl.ordered, byVar: map[int][]int{}, configs: map[int][]int{}}
	for idx, ev := range sl.ordered {
		seen := map[int]bool{}
		for _, v := range ev.slot.In {
			if !seen[v.ID] {
				seen[v.ID] = true
				e.byVar[v.ID] = append(e.byVar[v.ID], idx)
			}
		}
		if !seen[ev.slot.Out.ID] {
			e.byVar[ev.slot.Out.ID] = append(e.byVar[ev.slot.Out.ID], idx)
		}
	}
	for _, v := range p.Coarse.Vars {
		if v.First < 0 {
			continue
		}
		e.configs[v.ID] = sl.alphas[v.ID].dims
	}
	return e, nil
}

// Configs returns the viable cut dimensions of a variable at this step.
func (e *Evaluator) Configs(varID int) []int { return e.configs[varID] }

// VarCost sums the (multiplicity-weighted) cost of every slot touching the
// variable under the assignment.
func (e *Evaluator) VarCost(varID int, assign map[int]int) (float64, error) {
	total := 0.0
	for _, idx := range e.byVar[varID] {
		_, c, err := e.evals[idx].best(assign)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// Total prices a complete assignment.
func (e *Evaluator) Total(assign map[int]int) (float64, error) {
	total := 0.0
	for _, ev := range e.evals {
		_, c, err := ev.best(assign)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// Result materializes a full Result (strategies, per-op comm) for an
// assignment.
func (e *Evaluator) Result(assign map[int]int) (*Result, error) {
	return priceAssignment(e.p.Coarse, e.evals, assign)
}
