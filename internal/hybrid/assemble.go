package hybrid

import (
	"fmt"

	"tofu/internal/graph"
	"tofu/internal/graphgen"
	"tofu/internal/plan"
	"tofu/internal/recursive"
	"tofu/internal/shape"
)

// assemble materializes the winning level's boundary set: per-stage plans
// filled from copies of their memoized cost-only form (never re-solved),
// per-stage execution structures, and one combined stage-annotated plan in
// full-graph IDs, with per-stage multipliers restarting at 1 (each stage's
// kSub workers divide only that stage's tensors). It polls no cancellation:
// the work is bounded by the S winning stages, and a degraded incumbent must
// still ship as a complete plan.
//
// A stage's plan is materialized on its segment view, whose tables come out
// in full-graph IDs, and its execution is generated over the stage's nodes of
// the full graph: no stage is copied out, and no table is translated.
func (s *search) assemble(ls *levelState) (*Result, error) {
	L := len(s.c.Groups)
	bounds := make([]int, 0, ls.S+1)
	bounds = append(bounds, 0)
	bounds = append(bounds, ls.best...)
	bounds = append(bounds, L)

	res := &Result{Level: ls.level, Cost: ls.bestCost}
	combined := &plan.Plan{
		K:           ls.kSub * int64(ls.S),
		FinalShapes: make(map[int]shape.Shape, len(s.g.Tensors)),
	}
	info := &plan.PipelineInfo{Level: ls.level}
	for si := 0; si+1 < len(bounds); si++ {
		lo, hi := bounds[si], bounds[si+1]
		// The walk priced the winning set, so its slots are filled: read them,
		// never segment(), which could start a search no token governs.
		sg := ls.segs[lo*ls.W+hi]
		if sg.err != nil {
			// Unreachable: the winning set's segments all solved feasibly.
			return nil, sg.err
		}
		// A transient view: Materialize's tables name c.G's tensors and
		// nodes, not the view's variables, so they outlive it.
		co, err := s.c.SegmentTransient(lo, hi, &s.scratch)
		if err != nil {
			// Unreachable: the segment's fill coarsened the same groups.
			return nil, fmt.Errorf("hybrid: stage %d: %w", si, err)
		}
		// The cost-only plan may be shared with the segment's whole memo
		// class — winners included — and Materialize fills steps in place.
		p := ownSteps(sg.plan)
		if err := recursive.Materialize(co, p, ls.stageOptions()); err != nil {
			return nil, fmt.Errorf("hybrid: stage %d: %w", si, err)
		}
		sh, err := graphgen.GenerateStage(s.g, p, s.opts.Gen, func(n *graph.Node) bool {
			gi := s.groupOf[n.ID]
			return gi >= lo && gi < hi
		})
		if err != nil {
			return nil, fmt.Errorf("hybrid: stage %d graph generation: %w", si, err)
		}
		hb, hbw := 0.0, 0.0
		if hi < L {
			hb = s.xb[hi]
			hbw = ls.bw[si+1]
		}
		res.Stages = append(res.Stages, Stage{
			Groups:           [2]int{lo, hi},
			Workers:          ls.kSub,
			Topo:             ls.subTopo,
			G:                s.g,
			Plan:             p,
			Sharded:          sh,
			HandoffBytes:     hb,
			HandoffBandwidth: hbw,
		})
		info.Stages = append(info.Stages, plan.StageInfo{
			Groups:       [2]int{lo, hi},
			Workers:      ls.kSub,
			HandoffBytes: hb,
		})
		// A stage whose own search ran out of budget taints the whole
		// assembly: the combined plan is only as proven as its weakest stage.
		combined.Degraded = combined.Degraded || p.Degraded
		// The combined plan's steps share the stage plan's tables. Tensors
		// and nodes outside the stage stay uncut and strategy-less, exactly
		// like tensors a flat step never references. VarCut is dropped: its
		// keys are variable IDs of the stage's own coarsening, which name
		// nothing in the full graph — the stage plans keep theirs.
		steps := make([]plan.Step, len(p.Steps))
		for i, st := range p.Steps {
			steps[i] = *st
			steps[i].VarCut, steps[i].Stage = nil, si
			combined.Steps = append(combined.Steps, &steps[i])
		}
		// A tensor touched by several stages (a shared weight) keeps its
		// earliest stage's shard shape — FinalShapes on the combined plan is
		// informational; execution reads the per-stage plans. The shapes are
		// read-only, so both plans share them.
		for id, fs := range p.FinalShapes {
			if _, ok := combined.FinalShapes[id]; !ok {
				combined.FinalShapes[id] = fs
			}
		}
	}
	combined.Pipeline = info
	// A boundary walk the deadline stopped early ships its incumbent under
	// the same marker: feasible, priced, but not a proven optimum.
	combined.Degraded = combined.Degraded || s.cancelled
	res.Plan = combined
	return res, nil
}

// ownSteps returns a copy of a cost-only plan with steps of its own, for
// Materialize to fill. Each step's VarCut map stays shared: its keys are
// variable positions, the same in every segment of the plan's memo class, and
// nothing writes it.
func ownSteps(p *plan.Plan) *plan.Plan {
	own := *p
	steps := make([]plan.Step, len(p.Steps))
	own.Steps = make([]*plan.Step, len(p.Steps))
	for i, st := range p.Steps {
		steps[i] = *st
		own.Steps[i] = &steps[i]
	}
	return &own
}
