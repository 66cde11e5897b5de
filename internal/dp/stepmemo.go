package dp

import (
	"encoding/binary"
	"errors"
	"maps"

	"tofu/internal/coarsen"
	"tofu/internal/graph"
)

// StepMemo prepares and solves each distinct recursive step of one search
// once. Every factor step is priced at the original shapes (Lemma 1), so what
// a step's preparation builds — the alphabets and every slot's surviving
// strategies and dense table — is a function of the Coarse, K, DType, the
// strategy filter and the alphabets alone: the strategy gate reads only the
// alphabets (admits), and a table's contents are fixed by its slot, K, the
// surviving strategies and the touched alphabets. Within one search all but K
// and the alphabets are fixed, so Prepare keys preparations by K and every
// referenced variable's alphabet, and a step whose key repeats an earlier
// step's shares that step's slot set instead of building one. The shapes
// themselves never enter a slot set, so a shared set holds nothing of the
// step that built it.
//
// Two steps on one slot set under the same MaxStates pose exactly the same
// sweep — the sweep reads the Coarse's groups, the alphabets, the slots'
// tables and MaxStates, and Parallelism and Cancel cannot change a completed
// result — so Solve sweeps each (slot set, MaxStates) once and replays the
// recorded optimum for every later step on it, bit for bit. (*Prepared).Solve
// and dp.Solve stay plain sweeps.
//
// A memo serves one search: one Coarse, one DType and one strategy filter,
// which its keys do not name. It refuses a second coarsening (bind), so a
// memo cannot outlive a segment whose scratch-backed Coarse the next segment
// reuses. The zero value is an empty memo. A memo is not safe for concurrent
// use: each search calls its own from one goroutine. Failed sweeps are not
// recorded. Failed preparations are, their errors being functions of the key
// too, except where no key can be built: a variable with an empty alphabet,
// whose error names the shape that emptied it, is prepared outside the memo.
type StepMemo struct {
	scope    coarseScope
	prepared map[string]preparedStep
	swept    []sweptStep
}

// preparedStep is one distinct preparation: its slot set, or why it failed.
type preparedStep struct {
	sl  *slotSet
	err error
}

// sweptStep is one distinct sweep — a prepared slot set swept under a
// frontier bound — and its result.
type sweptStep struct {
	sl        *slotSet
	maxStates int
	res       *Result
}

// coarseScope identifies the coarsening a memo is bound to: its address, and
// what tells two segments coarsened into one SegmentScratch apart, since
// those share an address — their sizes and their first and last operators.
type coarseScope struct {
	c            *coarsen.Coarse
	vars, groups int
	first, last  *graph.Node
}

func scopeOf(c *coarsen.Coarse) coarseScope {
	sc := coarseScope{c: c, vars: len(c.Vars), groups: len(c.Groups)}
	if n := len(c.Groups); n > 0 {
		if slots := c.Groups[0].Slots; len(slots) > 0 {
			sc.first = slots[0].Rep()
		}
		if slots := c.Groups[n-1].Slots; len(slots) > 0 {
			ops := slots[len(slots)-1].Ops
			sc.last = ops[len(ops)-1]
		}
	}
	return sc
}

// bind ties the memo to c on first use and refuses any other coarsening.
func (m *StepMemo) bind(c *coarsen.Coarse) error {
	sc := scopeOf(c)
	if m.scope.c == nil {
		m.scope = sc
		return nil
	}
	if sc != m.scope {
		return errors.New("dp: step memo already serves another coarsening; a memo serves one search")
	}
	return nil
}

// Prepare returns p's preparation and whether it shares the slot set of an
// earlier step of the search (a hit: no pricing work and no "dp.pricing"
// span). A hit is bound to p, so a Solve on it reads p's MaxStates,
// Parallelism, Cancel and Trace.
func (m *StepMemo) Prepare(p *Problem) (pr *Prepared, hit bool, err error) {
	var buf [256]byte // a key is one byte per variable while no rank exceeds 7
	key, ok := appendStepKey(buf[:0], p)
	if err := m.bind(p.Coarse); err != nil {
		return nil, false, err
	}
	if !ok {
		// An empty alphabet, whose error Prepare reports with the shape that
		// emptied it, or a rank beyond the key's bit set.
		pr, err = Prepare(p)
		return pr, false, err
	}
	if e, ok := m.prepared[string(key)]; ok {
		if e.err != nil {
			return nil, true, e.err
		}
		return &Prepared{p: p, sl: e.sl}, true, nil
	}
	e := preparedStep{}
	if pr, e.err = Prepare(p); e.err == nil {
		e.sl = pr.sl
	}
	if m.prepared == nil {
		m.prepared = map[string]preparedStep{}
	}
	m.prepared[string(key)] = e
	return pr, false, e.err
}

// appendStepKey appends p's preparation key to buf: K, then the alphabet of
// every referenced variable in variable order, as the varint of the bit set
// of its cuttable dimensions. ok is false when some variable has no cuttable
// dimension, or a rank too large for the bit set.
//
//tofu:hotpath once per step per memo preparation; enforced by tofu-vet/hotalloc
func appendStepKey(buf []byte, p *Problem) (key []byte, ok bool) {
	buf = binary.AppendUvarint(buf, uint64(p.K))
	for _, v := range p.Coarse.Vars {
		if v.First < 0 {
			continue
		}
		s := p.Shapes[v.Tensors[0].ID]
		if s.Rank() > 64 {
			return buf, false
		}
		var dims uint64
		for d := range s.Rank() {
			if s.CanSplit(d, p.K) {
				dims |= 1 << d
			}
		}
		if dims == 0 {
			return buf, false
		}
		buf = binary.AppendUvarint(buf, dims)
	}
	return buf, true
}

// Solve returns the optimum of pr's step and whether it was replayed. A
// replay is a new Result with its own copy of the recorded VarCut, the
// recorded CommBytes, States and Configs, and pr's evaluators, so
// Materialize fills the tables from this step. Only preparations that share
// a slot set (Prepare) replay each other.
func (m *StepMemo) Solve(pr *Prepared) (res *Result, replayed bool, err error) {
	if rec := m.lookup(pr); rec != nil {
		return &Result{VarCut: maps.Clone(rec.VarCut), CommBytes: rec.CommBytes, States: rec.States,
			Configs: rec.Configs, c: pr.p.Coarse, evals: pr.sl.ordered}, true, nil
	}
	if res, err = pr.Solve(); err != nil {
		return nil, false, err
	}
	m.swept = append(m.swept, sweptStep{pr.sl, pr.p.MaxStates, res})
	return res, false, nil
}

// lookup returns the recorded result of a sweep on pr's slot set under pr's
// MaxStates, or nil.
func (m *StepMemo) lookup(pr *Prepared) *Result {
	for _, st := range m.swept {
		if st.sl == pr.sl && st.maxStates == pr.p.MaxStates {
			return st.res
		}
	}
	return nil
}
