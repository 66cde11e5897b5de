package dp

import (
	"bytes"
	"math"
	"slices"

	"tofu/internal/coarsen"
)

// This file is the frontier sweep: one group's (state × combination)
// expansion, factored through a group cost table. See DESIGN.md, "Group cost
// tables".
//
// A group's cost depends only on the digits of the variables its slots
// touch: the touched part T of the previous frontier and the group's new
// variables N. Live variables the group does not touch only ride along. So
// the sweeper sums the slot tables once per (T-assignment, combination) into
// a row-major table G[t][c], in slot order, and the per-pair work of the
// sweep is one row read: stCost + G[row(state)][c]. Where a pair lands in
// the next frontier splits the same way — nextBase(state) + nOff[c] — so the
// inner loop divides nothing, follows no *coarsen.Var and packs no key.

// sweeper is one Solve's sweep engine and all of its working memory: the two
// frontiers it alternates between, the group plan, the cost table and the
// per-worker merge buffers are reused group after group. newSweeper sizes
// everything the coarsening and the alphabets determine — per-variable,
// per-slot and dense per-state arrays, and the back-pointers backtracking
// keeps — to the largest group, in one slab per element type; what depends
// on the sweep itself (the shared cost table, byte-keyed frontiers, extra
// workers' candidates) grows when a group first needs it.
type sweeper struct {
	alphas  []varAlpha
	workers int

	// fr[gi%2] is the frontier after group gi (fr[1] starts as the single
	// empty state); combos lays out the current group's new variables.
	fr     [2]frontier
	combos layout
	nC     int // combos.size

	// pos maps a variable ID to its position in the previous frontier's
	// layout (>= 0) or, bit-complemented, in combos (< 0). Every variable a
	// group touches or leaves live is one or the other.
	pos []int32

	// Per previous-frontier position: whether a slot touches it, and its
	// weight in the table row index and in the next-state index.
	touched []bool
	rowW    []int32
	nextW   []int32
	// Per new-variable position: its weight in the next-state index (offW)
	// and, slot by slot, in that slot's table index (slotW).
	offW  []int32
	slotW []int32

	// plans are the group's slots with their table-index terms split into
	// the previous-frontier side (fixed along a table row) and the
	// new-variable side (slotOff[i*nC+c], fixed along a column).
	plans   []slotPlan
	terms   []slotTerm
	slotOff []int32
	// nOff[c] is combination c's contribution to the next-state index.
	nOff []int32
	// stRow and stNext are each previous state's table row and next-state
	// base; stRow is only filled when the table is shared.
	stRow, stNext []int32

	// shared reports that the touched variables take fewer distinct
	// assignments (nRows) than there are live states, so table holds every
	// row once and each state reads the one it shares. Otherwise a table
	// would be no smaller than the sweep, and each worker fills a scratch
	// row per state instead: the same filler with nothing to share.
	shared bool
	nRows  int
	table  []float64

	// nextSize is the next-state index space: the packed state number at a
	// dense boundary; at a byte-keyed one, (the state's projection onto the
	// variables that stay live, interned) × (the packed new live variables).
	nextSize int
	intern   map[string]int32
	cont     []int32
	keyBuf   []byte

	// backs is what is left of the back-pointer slab (see backPtrs).
	backs []int32

	// The incumbent bound (bound.go), sized only when it engages: floor[g]
	// is the floor on groups g.. (floor[len(groups)] = 0), dive the greedy
	// dive's digits by variable ID, incumbent the dive's cost and pruned the
	// states the bound has dropped.
	bound     bool
	floor     []float64
	dive      []uint8
	incumbent float64
	pruned    int

	// out aliases a dense next frontier's arrays as worker 0's candidates.
	out       cands
	work      []workBuf
	chunks    [][2]int
	rowChunks [][2]int
	idxs      []int32
}

// slotTerm is one touched variable of a slot: its position (in the previous
// layout or in combos) and its stride in the slot's table index.
type slotTerm struct {
	pos    int32
	stride int
}

// slotPlan is one slot of the group being swept: terms[lo:mid] are its
// previous-frontier variables, terms[mid:hi] its new ones.
type slotPlan struct {
	ev          *slotEval
	lo, mid, hi int32
}

// cands holds the cheapest candidate found so far for every next state.
type cands struct {
	cost   []float64
	parent []int32
	combo  []int32
}

// workBuf is one chunk worker's memory: its candidates, a scratch row for
// unshared groups and a digit buffer.
type workBuf struct {
	cands
	row []float64
	dg  []uint8
}

// presizeLimit caps each state- or combination-indexed array newSweeper
// sizes ahead of the sweep. Past it — frontiers that will be byte-keyed,
// groups whose sweep Solve may yet refuse — the array grows when its group
// is reached, as all of them used to.
const presizeLimit = denseStateLimit

func newSweeper(p *Problem, sl *slotSet) *sweeper {
	s := &sweeper{alphas: sl.alphas, workers: p.parallelism()}
	c := p.Coarse

	// Count pass: the widest frontier and group, and every dense boundary's
	// state count, are known from the coarsening and the alphabets — and
	// so is what the sweep and a boundBeam-wide beam would pair, which the
	// incumbent bound's gate weighs.
	var live, fresh, slots, terms int // maxima over groups
	var nC, offs, states int          // maxima over groups, each <= presizeLimit
	backs := 2                        // back-pointer entries: the initial state's, then every dense boundary's
	var pairs, beamPairs int64        // predicted (state × combination) pairs, exhaustive and beamed
	before := int64(1)                // states before the group
	diveable := true                  // every group's combinations fit presizeLimit: the dive enumerates them
	for gi, g := range c.Groups {
		live, fresh = max(live, len(g.LiveAfter)), max(fresh, len(g.NewVars))
		evs := sl.byGroup[gi]
		slots = max(slots, len(evs))
		t := 0
		for _, ev := range evs {
			t += len(ev.tvars)
		}
		terms = max(terms, t)
		n := s.span(g.NewVars)
		if n <= presizeLimit {
			nC = max(nC, n)
			if n*len(evs) <= presizeLimit {
				offs = max(offs, n*len(evs))
			}
		}
		diveable = diveable && n <= presizeLimit
		pairs += before * int64(n)
		beamPairs += min(before, boundBeam) * int64(n)
		after := s.span(g.LiveAfter)
		if after <= presizeLimit {
			states = max(states, after)
			backs += 2 * after
		}
		before = int64(after)
	}
	s.bound = p.MaxStates == 0 && diveable && p.bound.engages(pairs, beamPairs)
	var floors, dives int
	if s.bound {
		floors, dives = len(c.Groups)+1, len(c.Vars)
	}

	// Fill pass: one slab per element type, each array a window whose
	// capacity is its maximum (the sweep's grow calls then re-slice).
	i32 := make([]int32, len(c.Vars)+2*live+2*fresh+nC+offs+2*states+backs)
	carve32 := func(n int) []int32 {
		w := i32[:n:n]
		i32 = i32[n:]
		return w
	}
	s.pos = carve32(len(c.Vars))
	s.rowW, s.nextW = carve32(live)[:0], carve32(live)[:0]
	s.offW, s.slotW = carve32(fresh)[:0], carve32(fresh)[:0]
	s.nOff, s.slotOff = carve32(nC)[:0], carve32(offs)[:0]
	s.stRow, s.stNext = carve32(states)[:0], carve32(states)[:0]
	s.backs = i32

	i64 := make([]int64, 4*live+2*fresh)
	for _, l := range []*layout{&s.fr[0].lay, &s.fr[1].lay} {
		l.radix, l.stride, i64 = i64[:0:live], i64[live:live:2*live], i64[2*live:]
	}
	s.combos.radix, s.combos.stride = i64[:0:fresh], i64[fresh:fresh:2*fresh]

	costs := make([]float64, 2*states+floors)
	s.fr[0].cost, s.fr[1].cost = costs[:0:states], costs[states:states:2*states]
	s.floor = costs[2*states:]
	s.plans, s.terms = make([]slotPlan, 0, slots), make([]slotTerm, 0, terms)
	s.touched = make([]bool, 0, live)
	s.work = make([]workBuf, s.workers)
	dg := make([]uint8, s.workers*live+dives)
	for w := range s.work {
		s.work[w].dg, dg = dg[:0:live], dg[live:]
	}
	s.dive = dg

	first := &s.fr[1]
	first.lay.size, first.lay.dense = 1, true
	first.cost = append(first.cost, 0)
	bp := s.backPtrs(2)
	bp[0], bp[1] = -1, -1
	first.parent, first.combo = bp[:1:1], bp[1:]
	first.live = 1
	return s
}

// span is the number of joint assignments of vars — the size of the layout
// over them — saturating just past presizeLimit.
func (s *sweeper) span(vars []*coarsen.Var) int {
	n := 1
	for _, v := range vars {
		if n *= len(s.alphas[v.ID].dims); n > presizeLimit {
			return presizeLimit + 1
		}
	}
	return n
}

// backPtrs returns n zeroed back-pointer entries that outlive the group: a
// window of the slab newSweeper sized for the dense boundaries, or an
// allocation of their own for a boundary it did not count.
func (s *sweeper) backPtrs(n int) []int32 {
	if n > len(s.backs) {
		return make([]int32, n)
	}
	bp := s.backs[:n:n]
	s.backs = s.backs[n:]
	return bp
}

// begin lays out group gi's new variables and returns the frontier before
// it and the combination count, for Solve's index-range guards.
func (s *sweeper) begin(gi int, g *coarsen.Group) (prev *frontier, nCombos int64) {
	s.combos.set(g.NewVars, s.alphas)
	s.nC = int(s.combos.size)
	return &s.fr[(gi+1)%2], s.combos.size
}

// expand evaluates every (state × combination) pair of group gi and returns
// the frontier after it, or false when the next-state index space outgrows
// int32. The work is chunked over the flattened (state × combination) index
// space, so even a single-state frontier (always the first group)
// parallelizes across its combinations. Within a worker the sweep runs in
// ascending flat order and replaces only on strictly cheaper cost; workers
// merge in chunk order the same way — so ties always resolve to the
// earliest candidate in canonical sweep order, independent of the worker
// count.
//
// Apart from growing the sweeper's scratch it allocates only what outlives
// the group: the next frontier's parent/combo back-pointers and, at a
// byte-keyed boundary, its keys.
func (s *sweeper) expand(gi int, g *coarsen.Group, slots []*slotEval) (*frontier, bool) {
	prev, next := &s.fr[(gi+1)%2], &s.fr[gi%2]
	next.lay.set(g.LiveAfter, s.alphas)
	next.keys = nil
	if !s.plan(slots, prev, next) {
		return nil, false
	}

	total := prev.count() * s.nC
	workers := s.workers
	// Tiny sweeps (the common case on chain graphs) run inline: goroutine
	// fan-out and per-worker merge buffers cost more than the sweep.
	if total < minParallelSweep {
		workers = 1
	}
	s.chunks = chunkRanges(s.chunks[:0], workers, total)
	for w := range s.work[:workers] {
		wb := &s.work[w]
		wb.dg = grow(wb.dg, len(prev.lay.vars))
		if !s.shared {
			wb.row = grow(wb.row, s.nC)
		}
	}
	if s.shared {
		s.table = grow(s.table, s.nRows*s.nC)
		if len(s.table) < minParallelSweep {
			workers = 1
		}
		// One chunk runs inline without a closure: the tiny sweeps are too
		// many to pay an allocation each.
		if s.rowChunks = chunkRanges(s.rowChunks[:0], workers, s.nRows); len(s.rowChunks) == 1 {
			s.fillTable(prev, 0, s.nRows, s.work[0].dg)
		} else {
			runChunks(s.rowChunks, func(w, lo, hi int) { s.fillTable(prev, lo, hi, s.work[w].dg) })
		}
	}

	// Worker 0 collects the merged candidates: at a dense boundary straight
	// into the next frontier's own arrays.
	out := &s.work[0].cands
	if next.lay.dense {
		next.cost = grow(next.cost, s.nextSize)
		bp := s.backPtrs(2 * s.nextSize)
		next.parent, next.combo = bp[:s.nextSize:s.nextSize], bp[s.nextSize:]
		s.out = cands{cost: next.cost, parent: next.parent, combo: next.combo}
		out = &s.out
	} else {
		out.size(s.nextSize)
	}
	for w := 1; w < len(s.chunks); w++ {
		s.work[w].size(s.nextSize)
	}
	if len(s.chunks) == 1 {
		s.scan(prev, 0, total, out, &s.work[0])
	} else {
		runChunks(s.chunks, func(w, lo, hi int) {
			cd := &s.work[w].cands
			if w == 0 {
				cd = out
			}
			s.scan(prev, lo, hi, cd, &s.work[w])
		})
		for w := 1; w < len(s.chunks); w++ {
			out.merge(&s.work[w].cands)
		}
	}
	if next.lay.dense {
		next.live = 0
		for _, c := range next.cost {
			if !math.IsInf(c, 1) {
				next.live++
			}
		}
	} else {
		s.collect(prev, next, out)
	}
	return next, true
}

// plan splits group work into its row side and its column side: which
// previous-frontier variables the slots touch (the table's row space), every
// slot's and the next-state index's per-combination offsets, and every
// previous state's row and next-state base. It reports false when the
// next-state index space does not fit int32.
func (s *sweeper) plan(slots []*slotEval, prev, next *frontier) bool {
	nPrev, nNew, nC := len(prev.lay.vars), len(s.combos.vars), s.nC
	for j, v := range prev.lay.vars {
		s.pos[v.ID] = int32(j)
	}
	for j, v := range s.combos.vars {
		s.pos[v.ID] = ^int32(j)
	}

	s.touched = grow(s.touched, nPrev)
	clear(s.touched)
	s.plans, s.terms = s.plans[:0], s.terms[:0]
	for _, ev := range slots {
		sp := slotPlan{ev: ev, lo: int32(len(s.terms))}
		for j, v := range ev.tvars {
			if q := s.pos[v.ID]; q >= 0 {
				s.touched[q] = true
				s.terms = append(s.terms, slotTerm{pos: q, stride: ev.tstride[j]})
			}
		}
		sp.mid = int32(len(s.terms))
		for j, v := range ev.tvars {
			if q := s.pos[v.ID]; q < 0 {
				s.terms = append(s.terms, slotTerm{pos: ^q, stride: ev.tstride[j]})
			}
		}
		sp.hi = int32(len(s.terms))
		s.plans = append(s.plans, sp)
	}

	// Column side of every densely tabled slot; a lazily priced slot's
	// strides need not fit int32, fillRow indexes it pair by pair.
	s.slotOff = grow(s.slotOff, len(slots)*nC)
	s.slotW = grow(s.slotW, nNew)
	for i := range s.plans {
		sp := &s.plans[i]
		if sp.ev.t == nil {
			continue
		}
		clear(s.slotW)
		for _, t := range s.terms[sp.mid:sp.hi] {
			s.slotW[t.pos] = int32(t.stride)
		}
		fillWeighted(s.slotOff[i*nC:(i+1)*nC], s.combos.radix, s.slotW)
	}

	// Row space: the touched variables' mixed-radix product, while it stays
	// below the live-state count (the weights are unused once it does not).
	s.rowW = grow(s.rowW, nPrev)
	rows := int64(1)
	for j := nPrev - 1; j >= 0; j-- {
		s.rowW[j] = 0
		if s.touched[j] && rows < int64(prev.live) {
			s.rowW[j] = int32(rows)
			rows *= prev.lay.radix[j]
		}
	}
	s.shared = rows < int64(prev.live)
	s.nRows = int(rows)

	// Next-state index: per-variable weights, on whichever side the
	// variable comes from.
	s.nextW = grow(s.nextW, nPrev)
	s.offW = grow(s.offW, nNew)
	clear(s.nextW)
	clear(s.offW)
	count := prev.count()
	s.stNext = grow(s.stNext, count)
	if next.lay.dense {
		for j, v := range next.lay.vars {
			if q := s.pos[v.ID]; q >= 0 {
				s.nextW[q] = int32(next.lay.stride[j])
			} else {
				s.offW[^q] = int32(next.lay.stride[j])
			}
		}
		s.nextSize = int(next.lay.size)
	} else {
		nQ, nP := int64(1), int64(1)
		s.cont = s.cont[:0]
		for j := len(next.lay.vars) - 1; j >= 0; j-- {
			if q := s.pos[next.lay.vars[j].ID]; q < 0 {
				s.offW[^q] = int32(nQ)
				nQ *= s.combos.radix[^q]
			} else {
				s.cont = append(s.cont, q)
			}
		}
		if prev.lay.dense {
			for _, q := range s.cont {
				if nP*nQ > math.MaxInt32 {
					return false
				}
				s.nextW[q] = int32(nP * nQ)
				nP *= prev.lay.radix[q]
			}
		} else if nP = s.internStates(prev, nQ); nP < 0 {
			return false
		}
		if nP*nQ > math.MaxInt32 {
			return false
		}
		s.nextSize = int(nP * nQ)
	}
	s.nOff = grow(s.nOff, nC)
	fillWeighted(s.nOff, s.combos.radix, s.offW)

	if s.shared {
		s.stRow = grow(s.stRow, count)
	}
	if prev.lay.dense {
		fillWeighted(s.stNext, prev.lay.radix, s.nextW)
		if s.shared {
			fillWeighted(s.stRow, prev.lay.radix, s.rowW)
		}
		return true
	}
	for si, key := range prev.keys {
		if next.lay.dense {
			s.stNext[si] = weighted(s.nextW, key)
		}
		if s.shared {
			s.stRow[si] = weighted(s.rowW, key)
		}
	}
	return true
}

// weighted is Σ_j w[j]·key[j]: a byte-keyed state's digits under one set of
// per-variable weights.
func weighted(w []int32, key string) int32 {
	sum := int32(0)
	for j, wj := range w {
		sum += wj * int32(key[j])
	}
	return sum
}

// internStates numbers the distinct projections of a byte-keyed frontier's
// states onto the variables that stay live (s.cont), in first-seen order,
// and sets every state's next-state base to its number × nQ. It returns the
// count, or -1 when the bases would not fit int32.
func (s *sweeper) internStates(prev *frontier, nQ int64) int64 {
	if s.intern == nil {
		s.intern = make(map[string]int32)
	}
	clear(s.intern)
	buf := grow(s.keyBuf, len(s.cont))
	s.keyBuf = buf
	for si, key := range prev.keys {
		for i, q := range s.cont {
			buf[i] = key[q]
		}
		id, ok := s.intern[string(buf)]
		if !ok {
			id = int32(len(s.intern))
			if int64(id+1)*nQ > math.MaxInt32 {
				return -1
			}
			s.intern[string(buf)] = id
		}
		s.stNext[si] = id * int32(nQ)
	}
	return int64(len(s.intern))
}

// fillWeighted writes out[i] = Σ_j w[j]·digit_j(i) for every index i of the
// mixed-radix space with the given radices (radix[0] most significant):
// len(out) is their product. Each variable extends the block built from the
// less significant ones, so the whole array costs one add per entry.
//
//tofu:hotpath allocation-free; enforced by tofu-vet/hotalloc
func fillWeighted(out []int32, radix []int64, w []int32) {
	out[0] = 0
	n := 1
	for j := len(radix) - 1; j >= 0; j-- {
		r := int(radix[j])
		for d := 1; d < r; d++ {
			step := int32(d) * w[j]
			blk := out[d*n : (d+1)*n]
			for i, base := range out[:n] {
				blk[i] = base + step
			}
		}
		n *= r
	}
}

// fillTable builds table rows [lo, hi): decode the row number into the
// touched variables' digits, then fill the row.
//
//tofu:hotpath allocation-free; enforced by tofu-vet/hotalloc
func (s *sweeper) fillTable(prev *frontier, lo, hi int, dg []uint8) {
	for t := lo; t < hi; t++ {
		rem := t
		for j := len(dg) - 1; j >= 0; j-- {
			if s.rowW[j] != 0 {
				r := int(prev.lay.radix[j])
				dg[j] = uint8(rem % r)
				rem /= r
			}
		}
		s.fillRow(s.table[t*s.nC:(t+1)*s.nC], 0, s.nC, dg)
	}
}

// fillRow is the per-slot summation: row[c] = Σ_slots cost(slot, dg, c) for
// combinations [c0, c1), where dg holds the previous-frontier digits by
// layout position. The sum runs in slot order from zero for every c, so each
// entry is bit-identical to summing the slots pair by pair. A slot priced
// lazily (no dense table) is indexed and memo-read per pair.
//
//tofu:hotpath allocation-free; enforced by tofu-vet/hotalloc
func (s *sweeper) fillRow(row []float64, c0, c1 int, dg []uint8) {
	row = row[c0:c1]
	clear(row)
	for i := range s.plans {
		sp := &s.plans[i]
		base := 0
		for _, t := range s.terms[sp.lo:sp.mid] {
			base += t.stride * int(dg[t.pos])
		}
		if sp.ev.t != nil {
			tbl := sp.ev.t.costT
			off := s.slotOff[i*s.nC+c0 : i*s.nC+c1]
			for k, o := range off {
				row[k] += tbl[base+int(o)]
			}
			continue
		}
		for k := range row {
			ti := base
			for _, t := range s.terms[sp.mid:sp.hi] {
				ti += t.stride * int(int64(c0+k)/s.combos.stride[t.pos]%s.combos.radix[t.pos])
			}
			_, cost := sp.ev.lazy(ti)
			row[k] += cost
		}
	}
}

// scan is the sweep kernel: pairs [lo, hi) of the flattened (state ×
// combination) space, in ascending order, each one row read, one add and one
// compare against the cheapest candidate so far for its next state.
//
//tofu:hotpath allocation-free; enforced by tofu-vet/hotalloc
func (s *sweeper) scan(prev *frontier, lo, hi int, cd *cands, wb *workBuf) {
	bc, bp, bb := cd.cost, cd.parent, cd.combo
	for i := range bc {
		bc[i] = math.Inf(1)
	}
	nC := s.nC
	si, c0 := lo/nC, lo%nC
	for idx := lo; idx < hi; si, c0 = si+1, 0 {
		c1 := min(nC, c0+hi-idx)
		idx += c1 - c0
		stCost := prev.cost[si]
		if math.IsInf(stCost, 1) {
			continue // unreachable or pruned predecessor
		}
		var row []float64
		if s.shared {
			row = s.table[int(s.stRow[si])*nC:][c0:c1]
		} else {
			prev.digits(si, wb.dg)
			s.fillRow(wb.row, c0, c1, wb.dg)
			row = wb.row[c0:c1]
		}
		nb := int(s.stNext[si])
		off := s.nOff[c0:c1]
		for k, rc := range row {
			cost := stCost + rc
			ni := nb + int(off[k])
			if cost < bc[ni] {
				bc[ni] = cost
				bp[ni] = int32(si)
				bb[ni] = int32(c0 + k)
			}
		}
	}
}

// size resizes the candidate arrays to n next states.
func (cd *cands) size(n int) {
	cd.cost = grow(cd.cost, n)
	cd.parent = grow(cd.parent, n)
	cd.combo = grow(cd.combo, n)
}

// merge folds a later chunk's candidates in; strictly-cheaper replacement
// keeps the result independent of the worker count.
//
//tofu:hotpath allocation-free; enforced by tofu-vet/hotalloc
func (cd *cands) merge(later *cands) {
	for i, c := range later.cost {
		if c < cd.cost[i] {
			cd.cost[i] = c
			cd.parent[i] = later.parent[i]
			cd.combo[i] = later.combo[i]
		}
	}
}

// collect turns an interned candidate array into a byte-keyed frontier: the
// reached next states, keyed by the digits their winning (parent,
// combination) pair gives the live variables, in ascending key order.
func (s *sweeper) collect(prev, next *frontier, cd *cands) {
	w := len(next.lay.vars)
	n := 0
	for _, c := range cd.cost {
		if !math.IsInf(c, 1) {
			n++
		}
	}
	s.keyBuf = grow(s.keyBuf, n*w)
	s.idxs = grow(s.idxs, 2*n)
	at, perm := s.idxs[:n], s.idxs[n:]
	dg := s.work[0].dg
	k := 0
	for ni, c := range cd.cost {
		if math.IsInf(c, 1) {
			continue
		}
		ci := int64(cd.combo[ni])
		prev.digits(int(cd.parent[ni]), dg)
		key := s.keyBuf[k*w : (k+1)*w]
		for j, v := range next.lay.vars {
			if q := s.pos[v.ID]; q >= 0 {
				key[j] = dg[q]
			} else {
				key[j] = uint8(ci / s.combos.stride[^q] % s.combos.radix[^q])
			}
		}
		at[k], perm[k] = int32(ni), int32(k)
		k++
	}
	slices.SortFunc(perm, func(a, b int32) int {
		ka, kb := int(a)*w, int(b)*w
		return bytes.Compare(s.keyBuf[ka:ka+w], s.keyBuf[kb:kb+w])
	})

	keys := string(s.keyBuf[:n*w])
	next.keys = make([]string, n)
	next.cost = grow(next.cost, n)
	bp := make([]int32, 2*n)
	next.parent, next.combo = bp[:n:n], bp[n:]
	for o, k := range perm {
		ni := at[k]
		next.keys[o] = keys[int(k)*w : (int(k)+1)*w]
		next.cost[o] = cd.cost[ni]
		next.parent[o] = cd.parent[ni]
		next.combo[o] = cd.combo[ni]
	}
	next.live = n
}
