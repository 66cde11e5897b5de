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
// k ways and writes the workers' fetch-term rows into terms. Each term is
// fetchBytes' expression, with the region's element count taken once per
// (worker, input) instead of once per cut dimension; TestFillTermsMatchFetchBytes
// holds every term to fetchBytes bit for bit.
//
//tofu:hotpath once per strategy of every pricing; enforced by tofu-vet/hotalloc
func (ev *regionEval) fillTerms(terms []float64, split int, k int64, elemSize float64) {
	row := len(ev.regs)
	fw, fk := 0.0, float64(k)
	for w := int64(0); w < k; w, fw = w+1, fw+1 {
		ev.eval(split, k, w)
		out := terms[int(w)*row : (int(w)+1)*row]
		lo, hi := fw/fk, (fw+1)/fk
		for i := 0; i+1 < len(ev.prog.Offsets); i++ {
			at := ev.prog.Offsets[i]
			reg := ev.input(i)
			need := 1.0 // reg.Elems(), in its order
			for _, r := range reg {
				need *= max(0, r.Hi-r.Lo)
			}
			for d, r := range reg {
				if need == 0 {
					out[at+d] = 0
					continue
				}
				// The overlap of the region's cut-dimension range with the
				// worker's own slab, and the elements held locally.
				ext := ev.dim[at+d]
				olo, ohi := max(r.Lo, lo*ext), min(r.Hi, hi*ext)
				if ohi < olo {
					ohi = olo
				}
				local := need
				if size := max(0, r.Hi-r.Lo); size > 0 {
					local = need / size * max(0, ohi-olo)
				}
				out[at+d] = max(0, need-local) * elemSize
			}
		}
	}
}

// Restrict returns a view of p holding only the strategies whose keep entry
// is set (keep is indexed like p.Strategies), in the original enumeration
// order: p itself when every entry is set. The view shares the underlying
// term tables, so restricting a cached full pricing to one recursive step's
// applicable strategies costs two slice fills instead of re-running the
// region analysis (see dp.PriceCache).
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
	if n == len(p.Strategies) {
		return p, nil
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

// Column returns where the fetch terms of input i cut along dimension d
// sit in a worker's row of the term tables: the cut InSums takes. A
// dimension outside the input's rank panics, as a cut past it does in
// PartsOf.
//
//tofu:hotpath every dense slot-table entry; enforced by tofu-vet/hotalloc
func (p *Priced) Column(i, d int) int {
	if uint(d) >= uint(p.offs[i+1]-p.offs[i]) {
		panic("partition: a cut dimension outside its input's rank")
	}
	return p.offs[i] + d
}

// InSums writes into sums[si] strategy si's fetch bytes when input i's cut
// is at column cols[i] (Column): PartsOf's InBytes, summed in its order,
// worker-outer and input-inner. The output's cut does not enter, so the
// dense table filler sums once per input cut and picks per output cut with
// BestOf.
//
//tofu:hotpath the dense slot-table fill; enforced by tofu-vet/hotalloc
func (p *Priced) InSums(cols []int, sums []float64) {
	row := p.offs[len(p.offs)-1]
	for si, terms := range p.terms {
		in := 0.0
		for w := 0; w < int(p.K); w++ {
			worker := terms[w*row : (w+1)*row]
			for _, c := range cols {
				in += worker[c]
			}
		}
		sums[si] = in
	}
}

// BestOf returns what Best returns when the strategies' fetch bytes are
// sums (InSums) and the output is cut along outDim: per strategy PartsOf's
// total, its output term added to the fetch bytes, and the first strictly
// cheapest strategy.
//
//tofu:hotpath every dense slot-table entry; enforced by tofu-vet/hotalloc
func (p *Priced) BestOf(sums []float64, outDim int) (int, float64) {
	move := p.outBytes * float64(p.K-1) / float64(p.K)
	reduce := p.outBytes * float64(p.K-1)
	best, bestCost := -1, math.Inf(1)
	for si := range p.Strategies {
		out := 0.0
		switch s := &p.Strategies[si]; s.Kind {
		case SplitOutput:
			if s.OutDim != outDim {
				out += move
			}
		case SplitReduce:
			out += reduce
		}
		if c := sums[si] + out; c < bestCost {
			best, bestCost = si, c
		}
	}
	return best, bestCost
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
