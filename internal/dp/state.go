package dp

import (
	"fmt"
	"math"
	"slices"

	"tofu/internal/coarsen"
)

// This file implements the packed frontier-state encoding. A DP state at the
// boundary after group gi assigns every live variable one entry of its
// cut-dimension alphabet; the state is the mixed-radix number whose digits
// are those alphabet indices, most significant digit first in variable-ID
// order. Small boundaries (the paper's chains and residual graphs) keep the
// whole frontier in flat arrays indexed by that number; wide boundaries
// (attention fan-outs under a beam bound) list their reachable states by
// raw digit bytes, sorted. Both orders coincide with the legacy sorted-string-key
// sweep order, which is what keeps plans byte-identical across the
// representations and across worker-pool sizes.

// varAlpha is one variable's cut-dimension alphabet at the current step: the
// dimensions (ascending) the variable's shape can still be split along for
// this step's K, plus the inverse digit lookup.
//
// An alphabet is all a preparation keeps of the step's shapes: the strategy
// gate reads it (admits), and two steps with equal K and alphabets prepare
// identical slot sets (StepMemo.Prepare).
type varAlpha struct {
	// dims lists the cuttable dimensions, ascending; a state digit d means
	// "cut along dims[d]".
	dims []int
	// digitOf maps a dimension to its digit, -1 when not cuttable.
	digitOf []int8
	// mask is the set of dims as bits, 0 when the rank is past 64: a slot
	// class key names an alphabet by it (slotEval.classKey).
	mask uint64
}

// cuttable reports whether the alphabet lists dimension d.
//
//tofu:hotpath the strategy gate; enforced by tofu-vet/hotalloc
func (a *varAlpha) cuttable(d int) bool {
	return d >= 0 && d < len(a.digitOf) && a.digitOf[d] >= 0
}

// buildAlphas enumerates per-variable alphabets (cuttable dimensions at this
// step), indexed by variable ID, from each variable's shape in p.Shapes.
// Unreferenced variables keep a nil alphabet. Every dims and digitOf is a
// window of one backing array each.
func buildAlphas(p *Problem) ([]varAlpha, error) {
	alphas := make([]varAlpha, len(p.Coarse.Vars))
	ranks := 0
	for _, v := range p.Coarse.Vars {
		if v.First >= 0 {
			ranks += p.Shapes[v.Tensors[0].ID].Rank()
		}
	}
	dims := make([]int, ranks)
	digits := make([]int8, ranks)
	for _, v := range p.Coarse.Vars {
		if v.First < 0 {
			continue // never referenced by an operator
		}
		a := &alphas[v.ID]
		s := p.Shapes[v.Tensors[0].ID]
		rank := s.Rank()
		a.dims, a.digitOf = dims[:0:rank], digits[:rank:rank]
		dims, digits = dims[rank:], digits[rank:]
		for d := 0; d < rank; d++ {
			a.digitOf[d] = -1
			if s.CanSplit(d, p.K) {
				a.digitOf[d] = int8(len(a.dims))
				a.dims = append(a.dims, d)
				a.mask |= 1 << d
			}
		}
		if rank > 64 {
			a.mask = 0
		}
		if len(a.dims) == 0 {
			// Name a member tensor too: variable IDs are the coarsening's own,
			// tensor IDs the graph's (for a segment, the whole graph's).
			return nil, fmt.Errorf("dp: variable %v (tensor %v) shape %v has no dimension divisible by %d",
				v, v.Tensors[0], s, p.K)
		}
	}
	return alphas, nil
}

const (
	// denseStateLimit bounds the state spaces kept in flat arrays; larger
	// boundaries use the byte-keyed sparse representation.
	denseStateLimit = 1 << 16
	// maxStateSpace clamps the mixed-radix product against int64 overflow.
	maxStateSpace = int64(1) << 62
)

// layout fixes the packed encoding of one set of variables (a frontier
// boundary, or a group's newly introduced variables).
type layout struct {
	vars []*coarsen.Var
	// radix[j] is the alphabet size of vars[j]; stride[j] its mixed-radix
	// weight (vars[0] is the most significant digit).
	radix  []int64
	stride []int64
	// size is the full state-space cardinality, clamped to maxStateSpace.
	size int64
	// dense marks layouts small enough for flat-array frontiers.
	dense bool
}

// set points the layout at vars, reusing its radix/stride storage — Solve
// keeps three layouts (previous boundary, next boundary, the group's new
// variables) and re-points them group after group.
func (l *layout) set(vars []*coarsen.Var, alphas []varAlpha) {
	l.vars = vars
	l.radix = grow(l.radix, len(vars))
	l.stride = grow(l.stride, len(vars))
	l.size = 1
	for j := len(vars) - 1; j >= 0; j-- {
		r := int64(len(alphas[vars[j].ID].dims))
		l.radix[j] = r
		l.stride[j] = l.size
		if l.size >= maxStateSpace/r {
			l.size = maxStateSpace
		} else {
			l.size *= r
		}
	}
	l.dense = l.size <= denseStateLimit
}

// grow returns s resized to n elements, reallocating only when its capacity
// is too small. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// frontier holds the DP states at one boundary. Dense frontiers are indexed
// by the packed state number with +Inf marking unreachable or pruned
// states; sparse frontiers list reachable states in ascending key order.
// parent is the state's predecessor position in the previous frontier's
// state list and combo the packed assignment of the group's new variables —
// together they replace the legacy per-group decided-map trace, and they are
// all backtracking reads: each group allocates its own pair, while the
// layout and the cost array belong to the sweeper and are reused two groups
// later.
type frontier struct {
	lay    layout
	cost   []float64
	parent []int32
	combo  []int32
	// keys holds the packed digit bytes of each state, ascending; nil for
	// dense frontiers.
	keys []string
	// live counts reachable (unpruned) states.
	live int
}

// count is the number of enumerable state positions (dense counts holes).
//
//tofu:hotpath allocation-free by PR 3; enforced by tofu-vet/hotalloc
func (f *frontier) count() int {
	if f.lay.dense {
		return int(f.lay.size)
	}
	return len(f.keys)
}

// digits writes state position i's digits into dg, indexed like lay.vars.
//
//tofu:hotpath allocation-free by PR 3; enforced by tofu-vet/hotalloc
func (f *frontier) digits(i int, dg []uint8) {
	if !f.lay.dense {
		copy(dg, f.keys[i])
		return
	}
	for j := range f.lay.vars {
		dg[j] = uint8((int64(i) / f.lay.stride[j]) % f.lay.radix[j])
	}
}

// best returns the position and cost of the cheapest live state (ties break
// by position, i.e. by packed state order).
//
//tofu:hotpath allocation-free by PR 3; enforced by tofu-vet/hotalloc
func (f *frontier) best() (int, float64) {
	bi, bc := -1, math.Inf(1)
	for i, c := range f.cost {
		if c < bc {
			bi, bc = i, c
		}
	}
	return bi, bc
}

// prune keeps the cheapest max live states — the beam bound. The surviving
// set is selected by the total order (cost, state order), so it is
// deterministic; selection is O(n) expected (quickselect), replacing the
// legacy full sort. Sparse frontiers compact their state list in place;
// dense ones mark pruned states +Inf. idxs is selection scratch, returned
// (possibly grown) for the next call.
//
//tofu:hotpath allocation-free by PR 3; enforced by tofu-vet/hotalloc
func (f *frontier) prune(max int, idxs []int32) []int32 {
	if f.live <= max {
		return idxs
	}
	idxs = grow(idxs, f.live)[:0]
	for i, c := range f.cost {
		if !math.IsInf(c, 1) {
			idxs = append(idxs, int32(i))
		}
	}
	selectCheapest(idxs, f.cost, max)
	f.live = max
	if f.lay.dense {
		for _, i := range idxs[max:] {
			f.cost[i] = math.Inf(1)
		}
		return idxs
	}
	keep := idxs[:max]
	slices.Sort(keep)
	for o, i := range keep {
		f.keys[o] = f.keys[i]
		f.cost[o] = f.cost[i]
		f.parent[o] = f.parent[i]
		f.combo[o] = f.combo[i]
	}
	f.keys, f.cost, f.parent, f.combo = f.keys[:max], f.cost[:max], f.parent[:max], f.combo[:max]
	return idxs
}

// selectCheapest partially sorts idxs so its first k entries are the k
// smallest by (cost, index) — expected-linear Hoare quickselect with
// median-of-three pivots.
//
//tofu:hotpath allocation-free by PR 3; enforced by tofu-vet/hotalloc
func selectCheapest(idxs []int32, cost []float64, k int) {
	lo, hi := 0, len(idxs) // select within idxs[lo:hi]
	for hi-lo > 1 && k > lo && k < hi {
		// Median-of-three pivot on (cost, index).
		mid := lo + (hi-lo)/2
		a, b, c := idxs[lo], idxs[mid], idxs[hi-1]
		pivot := b
		if cheaper(a, b, cost) {
			if cheaper(b, c, cost) {
				pivot = b
			} else if cheaper(a, c, cost) {
				pivot = c
			} else {
				pivot = a
			}
		} else {
			if cheaper(a, c, cost) {
				pivot = a
			} else if cheaper(b, c, cost) {
				pivot = c
			} else {
				pivot = b
			}
		}
		i, j := lo, hi-1
		for i <= j {
			for cheaper(idxs[i], pivot, cost) { //tofu:allow-ctxpoll quickselect scan: the pivot sentinel stops i inside the slice
				i++
			}
			for cheaper(pivot, idxs[j], cost) { //tofu:allow-ctxpoll quickselect scan: the pivot sentinel stops j inside the slice
				j--
			}
			if i <= j {
				idxs[i], idxs[j] = idxs[j], idxs[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j + 1
		} else if k >= i {
			lo = i
		} else {
			return
		}
	}
}

// cheaper is the total order pruning selects by: cost, then packed state
// order.
//
//tofu:hotpath allocation-free by PR 3; enforced by tofu-vet/hotalloc
func cheaper(a, b int32, cost []float64) bool {
	if cost[a] != cost[b] {
		return cost[a] < cost[b]
	}
	return a < b
}
