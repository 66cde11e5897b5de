package partition

import (
	"fmt"
	"math"
)

// Priced caches the interval-analysis results for one operator instance at
// one recursive step, so the DP's inner loop prices (strategy, cuts)
// combinations with plain arithmetic instead of re-running symbolic
// execution. Regions depend only on (description, strategy, k, worker) —
// never on the tensor cuts — which is what makes this cache exact.
type Priced struct {
	Spec       *Spec
	K          int64
	Strategies []Strategy

	regions  [][][]Region // [strategy][worker][input]
	outBytes float64
}

// Price runs the region analysis for every applicable strategy. filter, if
// non-nil, drops strategies before analysis — the ICML18 baseline uses it to
// discard output-reduction strategies (Sec 7.3).
func Price(sp *Spec, k int64, filter func(Strategy) bool) (*Priced, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	p := &Priced{Spec: sp, K: k, outBytes: float64(sp.OutShape.Bytes(sp.DType))}
	for _, s := range Enumerate(sp.Desc) {
		if filter != nil && !filter(s) {
			continue
		}
		if !sp.Applicable(s, k) {
			continue
		}
		perWorker := make([][]Region, k)
		for w := int64(0); w < k; w++ {
			regs, err := InputRegions(sp, s, k, w)
			if err != nil {
				return nil, err
			}
			perWorker[w] = regs
		}
		p.Strategies = append(p.Strategies, s)
		p.regions = append(p.regions, perWorker)
	}
	if len(p.Strategies) == 0 {
		return nil, fmt.Errorf("partition: no applicable strategy for %s at k=%d", sp.Desc.Name, k)
	}
	return p, nil
}

// Restrict returns a view of p holding only the strategies whose keep entry
// is set (keep is indexed like p.Strategies), in the original enumeration
// order. The view shares the underlying region analyses, so restricting a
// cached full pricing to one recursive step's applicable strategies costs a
// few slice appends instead of re-running the symbolic interval analysis
// (see dp.PriceCache).
func (p *Priced) Restrict(keep []bool) (*Priced, error) {
	out := &Priced{
		Spec: p.Spec, K: p.K, outBytes: p.outBytes,
		Strategies: make([]Strategy, 0, len(p.Strategies)),
		regions:    make([][][]Region, 0, len(p.Strategies)),
	}
	for si, s := range p.Strategies {
		if !keep[si] {
			continue
		}
		out.Strategies = append(out.Strategies, s)
		out.regions = append(out.regions, p.regions[si])
	}
	if len(out.Strategies) == 0 {
		return nil, fmt.Errorf("partition: no applicable strategy for %s at k=%d", p.Spec.Desc.Name, p.K)
	}
	return out, nil
}

// Parts itemizes a strategy's communication into the input-fetch bytes
// (MultiFetch traffic before the kernel runs) and the output bytes
// (redistribution or reduction after it), summed across all workers.
type Parts struct {
	InBytes  float64
	OutBytes float64
}

// Total returns InBytes + OutBytes.
func (p Parts) Total() float64 { return p.InBytes + p.OutBytes }

// CostOf prices strategy index si under the given cuts (bytes across all
// workers, Lemma 1).
func (p *Priced) CostOf(si int, inCuts []Cut, outCut Cut) float64 {
	return p.PartsOf(si, inCuts, outCut).Total()
}

// PartsOf prices strategy si with the input/output breakdown.
func (p *Priced) PartsOf(si int, inCuts []Cut, outCut Cut) Parts {
	s := p.Strategies[si]
	elemSize := float64(p.Spec.DType.Size())
	var parts Parts
	for w := int64(0); w < p.K; w++ {
		regs := p.regions[si][w]
		for i, reg := range regs {
			ishape := p.Spec.InShapes[i]
			d := inCuts[i].Dim
			need := reg.Elems()
			if need == 0 {
				continue
			}
			ext := float64(ishape.Dim(d))
			own := Range{Lo: float64(w) / float64(p.K) * ext, Hi: float64(w+1) / float64(p.K) * ext}
			overlap := reg[d].Intersect(own).Size()
			local := need
			if reg[d].Size() > 0 {
				local = need / reg[d].Size() * overlap
			}
			parts.InBytes += math.Max(0, need-local) * elemSize
		}
	}
	switch s.Kind {
	case SplitOutput:
		if s.OutDim != outCut.Dim {
			parts.OutBytes += p.outBytes * float64(p.K-1) / float64(p.K)
		}
	case SplitReduce:
		parts.OutBytes += p.outBytes * float64(p.K-1)
	}
	return parts
}

// Best returns the index and cost of the cheapest strategy under the cuts.
func (p *Priced) Best(inCuts []Cut, outCut Cut) (int, float64) {
	best, bestCost := -1, math.Inf(1)
	for si := range p.Strategies {
		if c := p.CostOf(si, inCuts, outCut); c < bestCost {
			best, bestCost = si, c
		}
	}
	return best, bestCost
}
