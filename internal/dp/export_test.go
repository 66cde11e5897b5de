package dp

import (
	"fmt"
	"math"
	"slices"
)

// ProblemOf returns the Problem pr is bound to.
func ProblemOf(pr *Prepared) *Problem { return pr.p }

// DiffPrepared describes the first difference between two preparations of
// one Coarse — in the alphabets, or in any slot's strategies, costT, bestT
// or minCost, bit for bit — or returns nil.
func DiffPrepared(got, want *Prepared) error {
	for id, a := range want.sl.alphas {
		if !slices.Equal(got.sl.alphas[id].dims, a.dims) {
			return fmt.Errorf("variable %d: alphabet %v, fresh %v", id, got.sl.alphas[id].dims, a.dims)
		}
	}
	for i, w := range want.sl.ordered {
		g := got.sl.ordered[i]
		name := w.slot.Rep().String()
		if !slices.Equal(g.priced.Strategies, w.priced.Strategies) {
			return fmt.Errorf("slot %s: strategies %v, fresh %v", name, g.priced.Strategies, w.priced.Strategies)
		}
		if len(g.costT) != len(w.costT) || !slices.Equal(g.bestT, w.bestT) {
			return fmt.Errorf("slot %s: %d entries and best strategies %v, fresh %d and %v",
				name, len(g.costT), g.bestT, len(w.costT), w.bestT)
		}
		for ti, c := range w.costT {
			if math.Float64bits(g.costT[ti]) != math.Float64bits(c) {
				return fmt.Errorf("slot %s: entry %d costs %v, fresh %v", name, ti, g.costT[ti], c)
			}
		}
		if math.Float64bits(g.minCost) != math.Float64bits(w.minCost) {
			return fmt.Errorf("slot %s: minCost %v, fresh %v", name, g.minCost, w.minCost)
		}
	}
	return nil
}
