package hybrid

import (
	"fmt"

	"tofu/internal/graph"
	"tofu/internal/graphgen"
	"tofu/internal/partition"
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
// in full-graph IDs — the combined plan's steps as they are. Execution needs
// a graph of the stage's own, so only here is a segment extracted
// (graph.Subgraph), and the stage plan gathers its tables through the
// extraction's ID maps.
func (s *search) assemble(ls *levelState) (*Result, error) {
	L := len(s.c.Groups)
	bounds := make([]int, 0, ls.S+1)
	bounds = append(bounds, 0)
	bounds = append(bounds, ls.best...)
	bounds = append(bounds, L)

	res := &Result{Level: ls.level, Cost: ls.bestCost}
	combined := &plan.Plan{
		K:           ls.kSub * int64(ls.S),
		FinalShapes: make(map[int]shape.Shape),
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
		full := ownSteps(sg.plan)
		if err := recursive.Materialize(co, full, ls.stageOptions()); err != nil {
			return nil, fmt.Errorf("hybrid: stage %d: %w", si, err)
		}
		sub, err := s.g.Subgraph(func(n *graph.Node) bool {
			gi := s.groupOf[n.ID]
			return gi >= lo && gi < hi
		})
		if err != nil {
			return nil, fmt.Errorf("hybrid: extracting groups [%d,%d): %w", lo, hi, err)
		}
		p := stagePlan(full, sub)
		sh, err := graphgen.Generate(sub.G, p, s.opts.Gen)
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
			G:                sub.G,
			Sub:              sub,
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
		// Tensors and nodes outside the stage stay uncut and strategy-less,
		// exactly like tensors a flat step never references. VarCut is
		// dropped: its keys are variable IDs of the stage's own coarsening,
		// which name nothing in the full graph — the stage plans keep theirs.
		for _, st := range full.Steps {
			st.VarCut, st.Stage = nil, si
			combined.Steps = append(combined.Steps, st)
		}
		// A tensor touched by several stages (a shared weight) keeps its
		// earliest stage's shard shape — FinalShapes on the combined plan is
		// informational; execution reads the per-stage plans.
		for _, id := range sub.TensorID {
			if _, ok := combined.FinalShapes[id]; ok {
				continue
			}
			if fs, ok := full.FinalShapes[id]; ok {
				combined.FinalShapes[id] = fs.Clone()
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

// stagePlan is the stage-local copy of a plan materialized on a segment view:
// every dense table and the final shapes gathered from full-graph IDs into
// the extraction's through its ID maps, everything else — VarCut included —
// as the search left it.
func stagePlan(full *plan.Plan, sub *graph.Subgraphed) *plan.Plan {
	p := *full
	steps := make([]plan.Step, len(full.Steps))
	p.Steps = make([]*plan.Step, len(full.Steps))
	for i, st := range full.Steps {
		steps[i] = *st
		local := &steps[i]
		local.TensorCut = make([]int, len(sub.TensorID))
		for tid, id := range sub.TensorID {
			local.TensorCut[tid] = st.TensorCut[id]
		}
		local.OpStrategy = make([]partition.Strategy, len(sub.NodeID))
		local.OpComm = make([]partition.Parts, len(sub.NodeID))
		for nid, id := range sub.NodeID {
			local.OpStrategy[nid], local.OpComm[nid] = st.OpStrategy[id], st.OpComm[id]
		}
		p.Steps[i] = local
	}
	p.FinalShapes = make(map[int]shape.Shape, len(sub.TensorID))
	for tid, id := range sub.TensorID {
		if fs, ok := full.FinalShapes[id]; ok {
			p.FinalShapes[tid] = fs
		}
	}
	return &p
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
