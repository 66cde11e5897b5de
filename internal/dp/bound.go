package dp

import (
	"math"

	"tofu/internal/coarsen"
)

// This file is the branch-and-bound support: an admissible lower bound on
// the communication a Solve of the same Problem could choose, and the
// incumbent bound that prunes an exact Solve's own sweep with the same
// per-slot minima. The recursive ordering search prices every
// not-yet-placed factor with the first and prunes any factor-to-level
// ordering whose bound already exceeds the incumbent.

// LowerBound returns an admissible lower bound on the CommBytes any feasible
// assignment of the prepared problem can achieve: the sum over slots of each
// slot's cheapest table entry. Independent per-slot minima ignore the
// consistency constraint between slots sharing a variable, so the bound can
// only be below Solve's optimum — never above it.
//
// The bound is also a valid lower bound for the SAME K at any LATER
// recursive step over further-divided shapes: costs are priced at the
// graph's original shapes (Lemma 1), and shrinking shapes can only remove
// strategies and cut dimensions from the search, never add them, so every
// per-slot minimum is monotone nondecreasing along a recursion branch. By
// the same monotonicity a Prepare error — genuine infeasibility — condemns
// the whole recursion subtree below the queried shapes for this K.
func (pr *Prepared) LowerBound() float64 {
	total := 0.0
	for _, ev := range pr.sl.ordered {
		if ev.t != nil {
			total += ev.t.minCost
		}
	}
	return total
}

// LowerBound is Prepare followed by the bound, for callers that will not
// solve the problem they bound.
func LowerBound(p *Problem) (float64, error) {
	pr, err := Prepare(p)
	if err != nil {
		return 0, err
	}
	return pr.LowerBound(), nil
}

// An exact Solve (MaxStates == 0) whose sweep is wide is a branch-and-bound
// DP (DESIGN.md, "Bound-pruned sweep"). Before the sweep, seed dives greedily
// through the groups for an incumbent U — the cost of one complete
// assignment, so U bounds the optimum from above — and sums the suffix
// floors F[g], the per-slot minima of groups g.. (LowerBound's, suffix by
// suffix). After group g's frontier is merged, cut drops every state whose
// cost exceeds U·(1+boundSlack) − F[g+1]: no completion of it can reach
// U, so it lies on no optimal path, and it could never tie or win for a state
// that does. The chosen assignment and its CommBytes are the exhaustive
// sweep's, bit for bit; States and Configs only shrink.

// boundMode is the incumbent bound's test seam (Problem.bound): the gate
// below in production; the oracle compares a sweep with the bound forced
// on, even where the gate would decline, against one with it off.
type boundMode uint8

const (
	boundGated boundMode = iota
	boundOff
	boundForced
)

const (
	// boundSlack widens the incumbent by a relative 1e-9 before the floors
	// are subtracted. Path costs, the incumbent and the floors are float sums
	// of non-negative byte counts in different orders, each within a few
	// hundred ulps of its exact value, far below 1e-9: the slack makes the
	// cut safe against rounding and costs nothing measurable in states.
	boundSlack = 1e-9

	// The gate: the bound engages when the predicted exhaustive sweep pairs
	// more than boundMinPairs (state × combination) pairs and more than
	// boundBeamRatio times what a boundBeam-wide beam over the same groups
	// would. The dive enumerates every group's combinations once, which is
	// what a one-state frontier sweeps, so on narrow frontiers (chains and
	// residual graphs carry a handful of states per boundary: ratio ~1) it
	// costs about as much as the cut saves, and on the thousands of small
	// pipeline-segment solves of a hybrid search there is little to save.
	// BenchmarkBoundGate, bound forced on against off, warm, one core of a
	// shared 2-vCPU x86 host, medians of 6: mlp-4-384 (126 pairs, ratio
	// 1.0) +55 %; rnn-10-8192 (978 pairs, ratio 1.0) within noise;
	// wresnet-152-10 (114 046 pairs, ratio 1.6, cut to 69 874) +10 %;
	// transformer-1-64 (207 119 pairs, ratio 98, cut to 411) −76 %;
	// transformer-4-1024 (828 362 pairs, ratio 106, cut to 1 139) −79 %.
	// The ratio separates the families (at most 1.8 against at least 98 on
	// every benchmark model at K = 2). Wide but small sweeps have little to
	// save: the tests' fan graphs at ratio 11–20 with 6 128–12 272 pairs,
	// where the cut removes 6–11 % of them, run 13 % faster to 11 % slower
	// forced; the pair floor keeps such solves off the dive.
	boundMinPairs  = 1 << 14
	boundBeam      = 16
	boundBeamRatio = 8
)

// engages decides whether a sweep predicted to pair pairs (state ×
// combination) pairs, against beamPairs for a boundBeam-wide beam, prunes by
// the incumbent bound.
func (m boundMode) engages(pairs, beamPairs int64) bool {
	switch m {
	case boundOff:
		return false
	case boundForced:
		return true
	}
	return pairs > boundMinPairs && pairs > boundBeamRatio*beamPairs
}

// seed fills the suffix floors and runs the greedy dive: group by group, the
// cheapest combination of the group's new variables given the digits
// already chosen (first in combination order on ties), priced from the slot
// tables. Each combination's cost is summed from zero in slot order and
// added to the running total, exactly as the sweep prices the same path, so
// the incumbent is that path's sweep cost. A dive that dead-ends (every
// combination of some group infeasible) leaves no incumbent, and the bound
// disengages. Lazily priced slots count 0 towards the floors, as in
// LowerBound.
//
//tofu:hotpath allocation-free; enforced by tofu-vet/hotalloc
func (s *sweeper) seed(groups []*coarsen.Group, byGroup [][]*slotEval) {
	f := 0.0
	s.floor[len(groups)] = 0
	for gi := len(groups) - 1; gi >= 0; gi-- {
		for _, ev := range byGroup[gi] {
			if ev.t != nil {
				f += ev.t.minCost
			}
		}
		s.floor[gi] = f
	}
	u := 0.0
	for gi, g := range groups {
		s.combos.set(g.NewVars, s.alphas)
		best, bc := -1, math.Inf(1)
		for ci := 0; ci < int(s.combos.size); ci++ {
			s.diveTo(ci)
			cost := 0.0
			for _, ev := range byGroup[gi] {
				ti := 0
				for j, v := range ev.tvars {
					ti += ev.tstride[j] * int(s.dive[v.ID])
				}
				_, sc := ev.bestAt(ti)
				cost += sc
			}
			if cost < bc {
				best, bc = ci, cost
			}
		}
		if best < 0 {
			s.bound = false
			return
		}
		s.diveTo(best)
		u += bc
	}
	s.incumbent = u
}

// diveTo writes combination ci's digits into the dive, by variable ID.
//
//tofu:hotpath allocation-free; enforced by tofu-vet/hotalloc
func (s *sweeper) diveTo(ci int) {
	for j, v := range s.combos.vars {
		s.dive[v.ID] = uint8(int64(ci) / s.combos.stride[j] % s.combos.radix[j])
	}
}

// cut marks unreachable every live state of f whose cost exceeds the
// incumbent less rest, the floor on the groups still to come.
//
//tofu:hotpath allocation-free; enforced by tofu-vet/hotalloc
func (s *sweeper) cut(f *frontier, rest float64) {
	limit := s.incumbent*(1+boundSlack) - rest
	for i, c := range f.cost {
		if c > limit && !math.IsInf(c, 1) {
			f.cost[i] = math.Inf(1)
			f.live--
			s.pruned++
		}
	}
}
