package partition

import (
	"fmt"
	"math"
)

// Priced holds everything the DP's inner loop needs to price (strategy,
// cuts) combinations of one operator instance at one recursive step. Regions
// depend only on (description, strategy, k, worker) — never on the tensor
// cuts — so Price runs the region analysis once per (strategy, worker) and
// folds it into a table of fetch terms, one per (strategy, worker, input,
// cut dimension); pricing a combination is then k × inputs table reads.
type Priced struct {
	Spec       *Spec
	K          int64
	Strategies []Strategy

	// terms[si] is strategy si's fetch-term slab: K rows (one per worker) of
	// offs[len(inputs)] slots, the slot offs[i]+d holding the bytes the
	// worker fetches of input i when that input is cut along d (fetchBytes).
	// Restrict views share the slabs.
	terms    [][]float64
	offs     []int // the region program's slot layout
	outBytes float64
}

// Price runs the region analysis for every applicable strategy and fills the
// fetch-term tables. filter, if non-nil, drops strategies before analysis —
// the ICML18 baseline uses it to discard output-reduction strategies
// (Sec 7.3).
func Price(sp *Spec, k int64, filter func(Strategy) bool) (*Priced, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	strategies := Enumerate(sp.Desc)
	kept := strategies[:0]
	for _, s := range strategies {
		if (filter == nil || filter(s)) && sp.Applicable(s, k) {
			kept = append(kept, s)
		}
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("partition: no applicable strategy for %s at k=%d", sp.Desc.Name, k)
	}
	ev := newRegionEval(sp)
	p := &Priced{
		Spec: sp, K: k, Strategies: kept,
		terms:    make([][]float64, len(kept)),
		offs:     ev.prog.Offsets,
		outBytes: float64(sp.OutShape.Bytes(sp.DType)),
	}
	per := int(k) * len(ev.regs)
	slab := make([]float64, len(kept)*per)
	elemSize := float64(sp.DType.Size())
	for si, s := range kept {
		p.terms[si] = slab[si*per : (si+1)*per : (si+1)*per]
		ev.fillTerms(p.terms[si], ev.prog.Symbol(s.Axis), k, elemSize)
	}
	return p, nil
}

// fillTerms evaluates every worker's regions with symbol split partitioned
// k ways and writes the workers' fetch-term rows into terms.
//
//tofu:hotpath once per strategy of every pricing; enforced by tofu-vet/hotalloc
func (ev *regionEval) fillTerms(terms []float64, split int, k int64, elemSize float64) {
	row := len(ev.regs)
	for w := int64(0); w < k; w++ {
		ev.eval(split, k, w)
		out := terms[int(w)*row : (int(w)+1)*row]
		for i := 0; i+1 < len(ev.prog.Offsets); i++ {
			reg := ev.input(i)
			for d := range reg {
				out[ev.prog.Offsets[i]+d] = fetchBytes(reg, d, w, k, ev.dim[ev.prog.Offsets[i]+d], elemSize)
			}
		}
	}
}

// Restrict returns a view of p holding only the strategies whose keep entry
// is set (keep is indexed like p.Strategies), in the original enumeration
// order. The view shares the underlying term tables, so restricting a cached
// full pricing to one recursive step's applicable strategies costs two slice
// fills instead of re-running the region analysis (see dp.PriceCache).
func (p *Priced) Restrict(keep []bool) (*Priced, error) {
	n := 0
	for si := range p.Strategies {
		if keep[si] {
			n++
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("partition: no applicable strategy for %s at k=%d", p.Spec.Desc.Name, p.K)
	}
	out := &Priced{
		Spec: p.Spec, K: p.K, offs: p.offs, outBytes: p.outBytes,
		Strategies: make([]Strategy, 0, n),
		terms:      make([][]float64, 0, n),
	}
	for si, s := range p.Strategies {
		if keep[si] {
			out.Strategies = append(out.Strategies, s)
			out.terms = append(out.terms, p.terms[si])
		}
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

// PartsOf prices strategy si with the input/output breakdown. The fetch
// terms are summed worker-outer, input-inner; a cut dimension outside an
// input's rank panics instead of reading a neighbouring input's term.
//
//tofu:hotpath every dense slot-table entry × strategy; enforced by tofu-vet/hotalloc
func (p *Priced) PartsOf(si int, inCuts []Cut, outCut Cut) Parts {
	s := p.Strategies[si]
	terms := p.terms[si]
	inputs := len(p.offs) - 1
	row := p.offs[inputs]
	var parts Parts
	for w := 0; w < int(p.K); w++ {
		worker := terms[w*row : (w+1)*row]
		for i := 0; i < inputs; i++ {
			parts.InBytes += worker[p.offs[i]:p.offs[i+1]][inCuts[i].Dim]
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
//
//tofu:hotpath every dense slot-table entry; enforced by tofu-vet/hotalloc
func (p *Priced) Best(inCuts []Cut, outCut Cut) (int, float64) {
	best, bestCost := -1, math.Inf(1)
	for si := range p.Strategies {
		if c := p.CostOf(si, inCuts, outCut); c < bestCost {
			best, bestCost = si, c
		}
	}
	return best, bestCost
}
