package partition

import (
	"fmt"
	"math"
)

// Cut describes how one tensor is partitioned among the k worker groups of
// the current recursive step: along exactly one of its dimensions. Tofu
// always partitions every tensor (Sec 9, "Tofu always partitions every
// operator and tensor across all workers").
type Cut struct {
	Dim int
}

// Breakdown itemizes the communication a (strategy, cuts) combination
// incurs at one recursive step, in bytes summed over all k workers — the
// quantity Lemma 1 shows is a weighted sum of tensor sizes.
type Breakdown struct {
	InputBytes  []float64 // remote-fetch bytes per operator input
	OutputBytes float64   // redistribution or reduction bytes for the output
	Total       float64
}

// Cost prices executing the operator under strategy s when input i is cut
// along inCuts[i].Dim and the output is cut along outCut.Dim, across k
// workers. All shapes in sp are the *current* shapes at this recursive step
// (already divided by earlier steps' cuts).
func Cost(sp *Spec, s Strategy, k int64, inCuts []Cut, outCut Cut) (Breakdown, error) {
	if err := sp.Validate(); err != nil {
		return Breakdown{}, err
	}
	if len(inCuts) != len(sp.InShapes) {
		return Breakdown{}, fmt.Errorf("partition: %d cuts for %d inputs", len(inCuts), len(sp.InShapes))
	}
	if !sp.Applicable(s, k) {
		return Breakdown{}, fmt.Errorf("partition: strategy %v not applicable to %s at k=%d", s, sp.Desc.Name, k)
	}
	bd := Breakdown{InputBytes: make([]float64, len(sp.InShapes))}
	elemSize := float64(sp.DType.Size())

	// Input side: every worker fetches the part of its required region that
	// its own slab (under the tensor's cut) does not cover.
	for w := int64(0); w < k; w++ {
		regions, err := InputRegions(sp, s, k, w)
		if err != nil {
			return Breakdown{}, err
		}
		for i, reg := range regions {
			ishape := sp.InShapes[i]
			d := inCuts[i].Dim
			if d < 0 || d >= ishape.Rank() {
				return Breakdown{}, fmt.Errorf("partition: input %d cut dim %d out of range for %v", i, d, ishape)
			}
			bd.InputBytes[i] += fetchBytes(reg, d, w, k, float64(ishape.Dim(d)), elemSize)
		}
	}

	// Output side.
	outBytes := float64(sp.OutShape.Elems()) * elemSize
	d := outCut.Dim
	if d < 0 || d >= sp.OutShape.Rank() {
		return Breakdown{}, fmt.Errorf("partition: output cut dim %d out of range for %v", d, sp.OutShape)
	}
	switch s.Kind {
	case SplitOutput:
		if s.OutDim != d {
			// Each worker produced a full-range slab along d' = s.OutDim but
			// must end up owning a slab along d: all-to-all keeping 1/k.
			bd.OutputBytes = outBytes * float64(k-1) / float64(k)
		}
	case SplitReduce:
		// Every worker holds a full-size partial result; a reduce-scatter
		// (spread across all GPUs, Sec 6) leaves each worker with its
		// reduced 1/k slab along d: each worker ships (k-1)/k of its partial.
		bd.OutputBytes = outBytes * float64(k-1)
	}

	for _, b := range bd.InputBytes {
		bd.Total += b
	}
	bd.Total += bd.OutputBytes
	return bd, nil
}

// fetchBytes is the input side of Lemma 1 for one worker and one input: the
// bytes of the region reg worker w of k must read that its own slab of the
// tensor — the w-th of k equal parts along dimension d, of extent ext — does
// not hold. The one definition both Cost and the Priced term tables price
// with.
//
//tofu:hotpath the term fill of Price; enforced by tofu-vet/hotalloc
func fetchBytes(reg Region, d int, w, k int64, ext, elemSize float64) float64 {
	need := reg.Elems()
	if need == 0 {
		return 0
	}
	own := Range{Lo: float64(w) / float64(k) * ext, Hi: float64(w+1) / float64(k) * ext}
	overlap := reg[d].Intersect(own).Size()
	// Elements covered locally: the box with its cut-dim range replaced by
	// the overlap with the worker's own slab.
	local := need
	if reg[d].Size() > 0 {
		local = need / reg[d].Size() * overlap
	}
	return math.Max(0, need-local) * elemSize
}

// BestStrategy returns the cheapest applicable strategy for the given cuts,
// or an error when no strategy is applicable (e.g. no dimension divides k).
func BestStrategy(sp *Spec, k int64, inCuts []Cut, outCut Cut) (Strategy, Breakdown, error) {
	var (
		best     Strategy
		bestBD   Breakdown
		found    bool
		bestCost = math.Inf(1)
	)
	for _, s := range Enumerate(sp.Desc) {
		if !sp.Applicable(s, k) {
			continue
		}
		bd, err := Cost(sp, s, k, inCuts, outCut)
		if err != nil {
			continue
		}
		if bd.Total < bestCost {
			best, bestBD, bestCost, found = s, bd, bd.Total, true
		}
	}
	if !found {
		return Strategy{}, Breakdown{}, fmt.Errorf("partition: no applicable strategy for %s at k=%d", sp.Desc.Name, k)
	}
	return best, bestBD, nil
}
