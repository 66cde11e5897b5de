package dp

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"tofu/internal/coarsen"
	"tofu/internal/partition"
	"tofu/internal/shape"
	"tofu/internal/tdl"
)

// tableLimit bounds the per-slot dense cost tables; slots whose touched
// variables span a larger cross-product (which no benchmark model comes
// near) price lazily through an integer-keyed memo instead.
const tableLimit = 1 << 16

// tableMemoBytes bounds the dense tables one PriceCache's class memo retains
// (12 bytes per table entry plus class key and bookkeeping). Past it a table
// is filled for its evaluator alone, exactly as without a cache: retention
// decides who pays for a table, never what is in it.
const (
	tableMemoBytes  = 16 << 20
	tableEntryBytes = 256
)

// slotEval prices one slot under any variable assignment. The region
// analysis runs once per pricing (compiled region programs, cached across
// steps in PriceCache); on top of it the evaluator holds a dense cost table
// indexed by the cross-product of its touched variables' alphabet digits, so
// the DP sweep prices a slot with one multiply-add per touched variable and a
// pair of array loads — no locks, no maps, no error paths.
type slotEval struct {
	slot   *coarsen.Slot
	priced *partition.Priced

	// tvars lists the distinct touched variables ascending by ID; tstride
	// their mixed-radix weights over alphabet digits (tvars[0] most
	// significant). alphas is the per-variable alphabet table (indexed by
	// variable ID) the evaluator was built against. inPos/outPos map the
	// slot's input positions and output to tvars indices. The evaluator and
	// its four lists are windows of the slabs of the prepareSlotEvals call
	// that built it (evalSlabs).
	tvars   []*coarsen.Var
	alphas  []varAlpha
	tstride []int
	inPos   []int
	outPos  int

	// t is the dense table, nil when the cross-product exceeds tableLimit.
	// It and priced are read-only: evaluators of one slot class share them
	// through PriceCache.
	t *slotTable
	// memo is the lazy fallback for oversized cross-products; nil for a
	// dense evaluator.
	memo *lazyMemo
}

// lazyMemo is an oversized slot's integer-keyed pricing memo, guarded for
// the parallel sweep.
type lazyMemo struct {
	mu sync.Mutex
	m  map[int]slotBest
}

type slotBest struct {
	si   int32
	cost float64
}

// slotTable is the finished, immutable payload of a dense evaluator: the
// step's restricted pricing and the tables filled from it. PriceCache's class
// memo shares one between every slot of a class (classEntry).
type slotTable struct {
	priced *partition.Priced
	// costT and bestT are the cost (pre-multiplied by the slot's timestep
	// multiplicity) and the best strategy index per digit cross-product.
	costT []float64
	bestT []int32
	// minCost is the cheapest entry of costT — the slot's contribution to
	// LowerBound. A lazily priced slot contributes 0, which keeps the bound
	// admissible.
	minCost float64
}

// evalScratch is the working memory one pool worker reuses across the slot
// evaluators it builds; nothing in it outlives a newSlotEval call. key holds
// a slot's class key, then its slot key; ints the table filler's digits and
// term columns.
type evalScratch struct {
	ints []int
	keep []bool
	key  []byte
	// sums holds the table filler's per-strategy fetch bytes; it is grown
	// by the first fill, so a preparation that fills no table allocates
	// none.
	sums []float64
	// classHits and classFills count the worker's class memo lookups.
	classHits, classFills int64
}

// newEvalScratch sizes a scratch for building evaluators of slots of up to
// maxIn inputs whose carried signatures are up to maxSig bytes: ints exactly
// (at most 1 + 2·maxIn digits and columns), keep and key with room for
// the strategy count, and the class key or slot key of every registered
// operator (a longer one grows them like any append).
func newEvalScratch(maxIn, maxSig int) evalScratch {
	return evalScratch{
		ints: make([]int, 1+2*maxIn),
		keep: make([]bool, 16),
		key:  make([]byte, 0, maxSig+32),
	}
}

// evalSlabs is the storage of the evaluators one pool worker rebuilds in one
// prepareSlotEvals call, sized exactly by its count pass and carved from the
// front by newSlotEval.
type evalSlabs struct {
	evs  []slotEval
	vars []*coarsen.Var
	ints []int
}

// touchedVars counts the distinct variables among a slot's operands — the
// variable list an evaluator for it lays out.
//
//tofu:hotpath count pass of prepareSlotEvals; enforced by tofu-vet/hotalloc
func touchedVars(s *coarsen.Slot) int {
	n := 1
	for i, v := range s.In {
		if v != s.Out && !slices.Contains(s.In[:i], v) {
			n++
		}
	}
	return n
}

// newSlotEval builds slot s's evaluator. Through a class memo (cls, nil
// without one) the slot looks its class up: the first slot of each class
// claims it and fills its table, every later one lays out its own variables
// and takes the class's table. Without a class memo, or past its budget, the
// slot fills a table of its own.
func newSlotEval(p *Problem, s *coarsen.Slot, alphas []varAlpha, cls *classMemo, sc *evalScratch, slabs *evalSlabs) (*slotEval, error) {
	rep := s.Rep()
	ev := &slabs.evs[0]
	slabs.evs = slabs.evs[1:]
	ev.slot, ev.alphas = s, alphas
	size := ev.layout(slabs)
	desc := s.Desc
	if desc == nil {
		var err error
		desc, err = p.Coarse.G.Describe(rep)
		if err != nil {
			return nil, err
		}
	}
	if size > tableLimit {
		// Oversized cross-product: no table to share, price lazily.
		full, err := ev.pricing(p, desc, sc)
		if err == nil {
			ev.priced, err = full.Restrict(sc.keep)
		}
		if err != nil {
			return nil, fmt.Errorf("dp: pricing %v: %w", rep, err)
		}
		ev.memo = &lazyMemo{m: map[int]slotBest{}}
		return ev, nil
	}
	var e *classEntry
	if cls != nil {
		if key, ok := ev.classKey(sc.key[:0]); ok {
			var found bool
			sc.key = key
			if e, found = p.Cache.claim(cls, s.SigID, key, size); found {
				sc.classHits++
			} else {
				sc.classFills++
			}
		}
	}
	var err error
	if e == nil {
		ev.t = new(slotTable)
		err = ev.fill(ev.t, p, desc, size, sc)
	} else {
		e.once.Do(func() { e.err = ev.fill(&e.t, p, desc, size, sc) })
		ev.t, err = &e.t, e.err
	}
	if err != nil {
		return nil, fmt.Errorf("dp: pricing %v: %w", rep, err)
	}
	ev.priced = ev.t.priced
	return ev, nil
}

// pricing returns the slot's full pricing and leaves in sc.keep which of its
// strategies the step admits. Price at ORIGINAL shapes (see Problem); gate
// applicability on the CURRENT shapes, where earlier steps may have
// exhausted a dimension — read off the step's alphabets (admits). The full
// pricing (every strategy applicable at original shapes) is step-invariant,
// so it is memoized in the cache — the Spec only materializes on a miss; the
// per-step strategy filter and the gate become a mask over its strategies.
func (ev *slotEval) pricing(p *Problem, desc *tdl.OpDesc, sc *evalScratch) (*partition.Priced, error) {
	s, rep := ev.slot, ev.slot.Rep()
	sc.key = slotKey(sc.key[:0], s.Sig, p.K, p.DType)
	full, err := p.Cache.priced(sc.key, func() (*partition.Priced, error) {
		origIn := make([]shape.Shape, len(rep.Inputs))
		for i, in := range rep.Inputs {
			origIn[i] = in.Shape
		}
		return partition.Price(&partition.Spec{
			Desc:     desc,
			InShapes: origIn,
			OutShape: rep.Output.Shape,
			DType:    p.DType,
		}, p.K, nil)
	})
	if err != nil {
		return nil, err
	}
	sc.keep = grow(sc.keep, len(full.Strategies))
	for si, st := range full.Strategies {
		sc.keep[si] = (p.StrategyFilter == nil || p.StrategyFilter(st)) && admits(desc, s, ev.alphas, p.K, st)
	}
	return full, nil
}

// mult is the slot's timestep multiplicity, which its costs are
// pre-multiplied by.
func (ev *slotEval) mult() float64 { return float64(len(ev.slot.Ops)) }

// admits reports whether strategy st of a slot passes the current-shape
// gate: whether the step's shapes still divide its partitioned extent into K
// equal parts. The gate is read off the alphabets, because it is a function
// of them. An output split on d needs d cuttable on the output variable:
// shape.CanSplit(d, K), the alphabet's own test. A reduce split needs its
// extent to be a multiple of K, at least K: for an extent bound to an input's
// dimension that is the same test on that input's variable, so alphabet
// membership again, and a constant extent never changes. So a slot's
// surviving strategies depend only on K and its operands' alphabets (given
// the Coarse, dtype and strategy filter), which is what lets StepMemo share
// one preparation between steps with equal alphabets.
//
//tofu:hotpath once per strategy per built evaluator; enforced by tofu-vet/hotalloc
func admits(desc *tdl.OpDesc, s *coarsen.Slot, alphas []varAlpha, k int64, st partition.Strategy) bool {
	if st.Kind == partition.SplitOutput {
		return alphas[s.Out.ID].cuttable(st.OutDim)
	}
	for _, ra := range desc.ReduceAxes() {
		if ra.Name != st.Axis {
			continue
		}
		if ra.Extent.Input == "" {
			return ra.Extent.Const >= k && ra.Extent.Const%k == 0
		}
		i := desc.InputIndex(ra.Extent.Input)
		return i >= 0 && i < len(s.In) && alphas[s.In[i].ID].cuttable(ra.Extent.Dim)
	}
	return false
}

// layout lays out the touched-variable cross-product — tvars, tstride,
// inPos, outPos, carved from the slabs — and returns its size.
func (ev *slotEval) layout(slabs *evalSlabs) int {
	// Distinct touched vars (a slot's operands may repeat), kept ascending
	// by ID — the per-slot sets are tiny, so linear scans beat maps.
	tvars := slabs.vars[:0]
	add := func(v *coarsen.Var) {
		for _, t := range tvars {
			if t == v {
				return
			}
		}
		i := len(tvars)
		tvars = append(tvars, nil)
		for i > 0 && tvars[i-1].ID > v.ID {
			tvars[i] = tvars[i-1]
			i--
		}
		tvars[i] = v
	}
	for _, v := range ev.slot.In {
		add(v)
	}
	add(ev.slot.Out)
	nT, nIn := len(tvars), len(ev.slot.In)
	ev.tvars, slabs.vars = tvars[:nT:nT], slabs.vars[nT:]
	pos := func(v *coarsen.Var) int {
		for j, t := range tvars {
			if t == v {
				return j
			}
		}
		return -1
	}
	ev.tstride, ev.inPos, slabs.ints = slabs.ints[:nT:nT], slabs.ints[nT:nT+nIn:nT+nIn], slabs.ints[nT+nIn:]
	for i, v := range ev.slot.In {
		ev.inPos[i] = pos(v)
	}
	ev.outPos = pos(ev.slot.Out)

	size := 1
	for j := len(tvars) - 1; j >= 0; j-- {
		ev.tstride[j] = size
		size *= len(ev.alphas[tvars[j].ID].dims)
	}
	return size
}

// classKey appends ev's class key to key: the slot's multiplicity, its
// aliasing pattern (outPos, then inPos) and each touched variable's alphabet
// mask in tvars order, as varints. The slot's SigID fixes its operand count
// and the pattern the number of masks, so the key is self-delimiting. With
// the SigID and the class memo's scope (the coarsening's signature table, K,
// dtype, no strategy filter) it fixes everything the slot's table is a
// function of: which strategies of the full pricing survive the gate (a
// function of the alphabets), which positions share a variable (f(x,x) and
// f(x,y) index their tables differently), each touched variable's alphabet
// (the cut dimension behind every digit) and the multiplicity the costs are
// pre-multiplied by. Variable IDs, the step and the graph are deliberately
// absent. ok is false when a touched variable's rank is past the mask
// (varAlpha.mask).
//
//tofu:hotpath once per dense slot per Solve/LowerBound; enforced by tofu-vet/hotalloc
func (ev *slotEval) classKey(key []byte) (_ []byte, ok bool) {
	key = binary.AppendUvarint(key, uint64(len(ev.slot.Ops)))
	key = binary.AppendUvarint(key, uint64(ev.outPos))
	for _, tp := range ev.inPos {
		key = binary.AppendUvarint(key, uint64(tp))
	}
	for _, v := range ev.tvars {
		m := ev.alphas[v.ID].mask
		if m == 0 {
			return key, false
		}
		key = binary.AppendUvarint(key, m)
	}
	return key, true
}

// fill prices the slot (pricing), restricts the full pricing to the
// surviving strategies and fills t's dense cost/strategy tables over the
// laid-out cross-product — the one table filler, whether the class memo
// retains the result or not. It walks the digits in table order, the last
// touched variable fastest, with a carry instead of a division per entry. The
// strategies' fetch bytes (Priced.InSums) depend on the input cuts alone, so
// they are summed again only when an input's digit moved; Priced.BestOf adds
// the output term per entry. Together they are Priced.Best: its sums, order
// and tie rule.
func (ev *slotEval) fill(t *slotTable, p *Problem, desc *tdl.OpDesc, size int, sc *evalScratch) error {
	full, err := ev.pricing(p, desc, sc)
	if err != nil {
		return err
	}
	priced, err := full.Restrict(sc.keep)
	if err != nil {
		return err
	}
	*t = slotTable{
		priced:  priced,
		costT:   make([]float64, size),
		bestT:   make([]int32, size),
		minCost: math.Inf(1),
	}
	sc.ints = grow(sc.ints, len(ev.tvars)+len(ev.inPos))
	nT, mult := len(ev.tvars), ev.mult()
	digit, cols := sc.ints[:nT], sc.ints[nT:nT+len(ev.inPos)]
	clear(digit)
	sc.sums = grow(sc.sums, len(priced.Strategies))
	// outOnly is the output's digit when no input shares its variable, -1
	// otherwise: the one digit that leaves the fetch bytes as they are.
	outOnly := ev.outPos
	if slices.Contains(ev.inPos, ev.outPos) {
		outOnly = -1
	}
	for ti, moved := 0, true; ti < size; ti++ {
		if moved {
			for i, tp := range ev.inPos {
				cols[i] = priced.Column(i, ev.alphas[ev.tvars[tp].ID].dims[digit[tp]])
			}
			priced.InSums(cols, sc.sums)
		}
		si, cost := priced.BestOf(sc.sums, ev.alphas[ev.tvars[ev.outPos].ID].dims[digit[ev.outPos]])
		cost *= mult
		t.costT[ti] = cost
		t.bestT[ti] = int32(si)
		if cost < t.minCost {
			t.minCost = cost
		}
		moved = false
		for j := nT - 1; j >= 0; j-- {
			moved = moved || j != outOnly
			if digit[j]++; digit[j] < len(ev.alphas[ev.tvars[j].ID].dims) {
				break
			}
			digit[j] = 0
		}
	}
	return nil
}

// price runs the legacy per-call pricing for one digit cross-product index:
// decode the index into per-position cuts and take the cheapest strategy.
// The returned cost is pre-multiplied by the slot multiplicity. The lazy
// path prices with it, and it is the reference the dense tables are held to.
//
//tofu:hotpath allocation-free by PR 3; enforced by tofu-vet/hotalloc
func (ev *slotEval) price(ti int, inCuts []partition.Cut) (int32, float64) {
	for i, tp := range ev.inPos {
		inCuts[i] = partition.Cut{Dim: ev.dimAt(ti, tp)}
	}
	outCut := partition.Cut{Dim: ev.dimAt(ti, ev.outPos)}
	si, cost := ev.priced.Best(inCuts, outCut)
	return int32(si), cost * ev.mult()
}

// dimAt is the cut dimension table index ti assigns to tvars[tp].
//
//tofu:hotpath allocation-free by PR 3; enforced by tofu-vet/hotalloc
func (ev *slotEval) dimAt(ti, tp int) int {
	dims := ev.alphas[ev.tvars[tp].ID].dims
	return dims[(ti/ev.tstride[tp])%len(dims)]
}

// lazy is the oversized-slot path: memoized per-index pricing.
//
//tofu:hotpath allocation-free by PR 3; enforced by tofu-vet/hotalloc
func (ev *slotEval) lazy(ti int) (int32, float64) {
	lm := ev.memo
	lm.mu.Lock()
	b, ok := lm.m[ti]
	lm.mu.Unlock()
	if !ok {
		inCuts := make([]partition.Cut, len(ev.slot.In))
		si, cost := ev.price(ti, inCuts)
		b = slotBest{si: si, cost: cost}
		lm.mu.Lock()
		lm.m[ti] = b
		lm.mu.Unlock()
	}
	return b.si, b.cost
}

// bestAt returns the cheapest strategy index and (pre-multiplied) cost at a
// table index.
//
//tofu:hotpath allocation-free by PR 3; enforced by tofu-vet/hotalloc
func (ev *slotEval) bestAt(ti int) (int32, float64) {
	if t := ev.t; t != nil {
		return t.bestT[ti], t.costT[ti]
	}
	return ev.lazy(ti)
}

// indexOf packs a dimension assignment (public map form) into the table
// index, validating that every touched variable is decided along a cuttable
// dimension.
func (ev *slotEval) indexOf(assign map[int]int) (int, error) {
	ti := 0
	for j, v := range ev.tvars {
		d, ok := assign[v.ID]
		if !ok {
			for _, iv := range ev.slot.In {
				if iv == v {
					return 0, fmt.Errorf("dp: slot %v references undecided var %v", ev.slot.Rep(), v)
				}
			}
			return 0, fmt.Errorf("dp: slot %v output var %v undecided", ev.slot.Rep(), v)
		}
		a := &ev.alphas[v.ID]
		if d < 0 || d >= len(a.digitOf) || a.digitOf[d] < 0 {
			return 0, fmt.Errorf("dp: slot %v: var %v cannot be cut along dim %d at this step",
				ev.slot.Rep(), v, d)
		}
		ti += ev.tstride[j] * int(a.digitOf[d])
	}
	return ti, nil
}

// best returns the cheapest strategy for the slot under a full assignment.
// The cost is pre-multiplied by the slot's timestep multiplicity.
func (ev *slotEval) best(assign map[int]int) (int, float64, error) {
	ti, err := ev.indexOf(assign)
	if err != nil {
		return 0, 0, err
	}
	si, cost := ev.bestAt(ti)
	return int(si), cost, nil
}

// parts itemizes the chosen strategy's communication under an assignment.
// inCuts is caller scratch, one per input.
func (ev *slotEval) parts(si int, assign map[int]int, inCuts []partition.Cut) (partition.Parts, error) {
	for i, v := range ev.slot.In {
		d, ok := assign[v.ID]
		if !ok {
			return partition.Parts{}, fmt.Errorf("dp: slot %v references undecided var %v", ev.slot.Rep(), v)
		}
		inCuts[i] = partition.Cut{Dim: d}
	}
	od, ok := assign[ev.slot.Out.ID]
	if !ok {
		return partition.Parts{}, fmt.Errorf("dp: slot %v output var %v undecided", ev.slot.Rep(), ev.slot.Out)
	}
	return ev.priced.PartsOf(si, inCuts, partition.Cut{Dim: od}), nil
}
