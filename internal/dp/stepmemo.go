package dp

import (
	"maps"
	"sync"
)

// StepMemo replays the recursive steps of one search whose sweep repeats an
// earlier step's. Every factor step is priced at the original shapes (Lemma
// 1), so a later step with the same factor, the same alphabets and the same
// slot tables poses exactly the DP an earlier step solved, and its optimum is
// bit-identical: Solve returns the recorded result instead of sweeping.
//
// Two prepared steps have identical sweep inputs when they share the
// *coarsen.Coarse, K and MaxStates, every variable's alphabet lists the same
// dimensions, and every slot either keeps the same evaluator or reads the
// same dense-table backing array. PriceCache shares a table only under an
// equal table key, which encodes K, dtype, signature, surviving strategies,
// operand wiring, touched alphabets and multiplicity; a lazily priced slot
// (no table) matches only its own evaluator, and an evaluator is reused only
// while its touched alphabets are unchanged. Only the Coarse, MaxStates and
// the slots are compared: a variable has an alphabet only if an operator
// references it, so some slot touches it, and matching slots therefore fix
// every alphabet and K (with no slots there are no alphabets, and K reaches
// nothing). Lookups compare these full inputs, never a fingerprint, and a
// recorded step holds its evaluators, so a table matched by address is still
// the table it was.
//
// Soundness: the sweep reads only the Coarse's groups, the alphabets, each
// slot's table, touched variables and strides (fixed by the Coarse and the
// alphabets), and MaxStates. K, DType, StrategyFilter and Shapes reach it
// only through the alphabets and the tables; Parallelism and Cancel cannot
// change a completed result. (*Prepared).Solve and dp.Solve stay plain
// sweeps.
//
// The zero value is an empty memo, safe for concurrent use. Failed sweeps are
// not recorded.
type StepMemo struct {
	mu    sync.Mutex
	steps []sweptStep
}

// sweptStep is one recorded sweep and the preparation it ran on.
type sweptStep struct {
	pr  *Prepared
	res *Result
}

// replayAudit, when set (tests only), sees every replay: the step's own
// Prepared and the Result the memo returned for it.
var replayAudit func(pr *Prepared, replay *Result)

// Solve returns the optimum of pr's step and whether it was replayed. A
// replay is a new Result with its own copy of the recorded VarCut, the
// recorded CommBytes, States and Configs, and pr's evaluators, so
// Materialize fills the tables from this step.
func (m *StepMemo) Solve(pr *Prepared) (res *Result, replayed bool, err error) {
	if rec := m.lookup(pr); rec != nil {
		res = &Result{VarCut: maps.Clone(rec.VarCut), CommBytes: rec.CommBytes, States: rec.States,
			Configs: rec.Configs, c: pr.p.Coarse, evals: pr.sl.ordered}
		if replayAudit != nil {
			replayAudit(pr, res)
		}
		return res, true, nil
	}
	if res, err = pr.Solve(); err != nil {
		return nil, false, err
	}
	m.mu.Lock()
	m.steps = append(m.steps, sweptStep{pr, res})
	m.mu.Unlock()
	return res, false, nil
}

// lookup returns the recorded result of a step with pr's sweep inputs, or
// nil.
func (m *StepMemo) lookup(pr *Prepared) *Result {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, st := range m.steps {
		if sameSweep(st.pr, pr) {
			return st.res
		}
	}
	return nil
}

// sameSweep reports whether a and b have identical sweep inputs (see
// StepMemo).
//
//tofu:hotpath once per recorded step per memo lookup; enforced by tofu-vet/hotalloc
func sameSweep(a, b *Prepared) bool {
	if a.p.Coarse != b.p.Coarse || a.p.MaxStates != b.p.MaxStates {
		return false
	}
	for i, x := range a.sl.ordered {
		y := b.sl.ordered[i]
		if x != y && (x.costT == nil || y.costT == nil || &x.costT[0] != &y.costT[0]) {
			return false
		}
	}
	return true
}
