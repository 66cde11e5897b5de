package dp

// This file is the branch-and-bound support: an admissible lower bound on
// the communication a Solve of the same Problem could choose. The recursive
// ordering search prices every not-yet-placed factor with it and prunes any
// factor-to-level ordering whose bound already exceeds the incumbent.

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
		if ev.costT != nil {
			total += ev.minCost
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
