package dp

// ProblemOf returns the Problem pr is bound to.
func ProblemOf(pr *Prepared) *Problem { return pr.p }
