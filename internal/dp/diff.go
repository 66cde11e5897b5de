package dp

import (
	"fmt"
	"math"
	"slices"
)

// DiffPrepared describes the first difference between two preparations of
// one Coarse — in the alphabets, or in any slot's strategies, costT, bestT
// or minCost, bit for bit — or returns nil. It is what the memo layers are
// held to: a preparation through a PriceCache and a StepMemo against one
// with neither.
func DiffPrepared(got, want *Prepared) error {
	for id, a := range want.sl.alphas {
		if !slices.Equal(got.sl.alphas[id].dims, a.dims) {
			return fmt.Errorf("variable %d: alphabet %v, fresh %v", id, got.sl.alphas[id].dims, a.dims)
		}
	}
	for i, w := range want.sl.ordered {
		if err := diffSlot(got.sl.ordered[i], w); err != nil {
			return fmt.Errorf("slot %s: %w", w.slot.Rep(), err)
		}
	}
	return nil
}

// diffSlot describes the first difference between two evaluators of one
// slot in what the class memo shares — strategies, costT, bestT, minCost, bit
// for bit — or returns nil.
func diffSlot(g, w *slotEval) error {
	if !slices.Equal(g.priced.Strategies, w.priced.Strategies) {
		return fmt.Errorf("strategies %v, fresh %v", g.priced.Strategies, w.priced.Strategies)
	}
	if (g.t == nil) != (w.t == nil) {
		return fmt.Errorf("dense %v, fresh %v", g.t != nil, w.t != nil)
	}
	if w.t == nil {
		return nil
	}
	if len(g.t.costT) != len(w.t.costT) || !slices.Equal(g.t.bestT, w.t.bestT) {
		return fmt.Errorf("%d entries and best strategies %v, fresh %d and %v",
			len(g.t.costT), g.t.bestT, len(w.t.costT), w.t.bestT)
	}
	for ti, c := range w.t.costT {
		if math.Float64bits(g.t.costT[ti]) != math.Float64bits(c) {
			return fmt.Errorf("entry %d costs %v, fresh %v", ti, g.t.costT[ti], c)
		}
	}
	if math.Float64bits(g.t.minCost) != math.Float64bits(w.t.minCost) {
		return fmt.Errorf("minCost %v, fresh %v", g.t.minCost, w.t.minCost)
	}
	return nil
}
