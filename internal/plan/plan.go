// Package plan represents the output of Tofu's search: a sequence of basic
// partition plans (Appendix A.1), one per recursive step, each cutting every
// tensor along one dimension among that step's worker groups. The plan is
// what graph generation consumes, and what Figure 11 visualizes.
//
//tofu:searchpath reachable from dp.Solve / recursive.Partition; nodeterm enforces determinism
package plan

import (
	"fmt"
	"strings"

	"tofu/internal/partition"
	"tofu/internal/shape"
)

// Step is one basic partition plan p_i.
type Step struct {
	// K is the number of ways this step divides each tensor (2 for powers
	// of two; a factor of the total worker count otherwise).
	K int64
	// Multiplier is the number of worker groups executing this step
	// concurrently: k1*k2*...*k(i-1).
	Multiplier int64
	// VarCut maps coarsened-variable ID to the cut dimension — what the
	// step's search decided, and the handle the three dense tables below
	// derive from (recursive.Materialize prices it back into them). The
	// keys belong to the coarsening the step was searched over, so nothing
	// downstream of the search reads it: it is not serialized, and plans
	// decoded from JSON or lifted into another graph's IDs carry none.
	VarCut map[int]int
	// TensorCut is the cut dimension per tensor ID (dense — tensor IDs
	// index it directly), -1 for tensors uncut at this step.
	TensorCut []int
	// OpStrategy is the chosen partition strategy per node ID (dense); an
	// empty Axis marks nodes without one.
	OpStrategy []partition.Strategy
	// OpComm itemizes each node's communication at this step (fetch vs
	// output bytes, summed over all workers), dense by node ID.
	OpComm []partition.Parts
	// CommBytes is δ_i: the total communication incurred by all worker
	// groups at step i. The DP prices basic plans at the graph's original
	// shapes, which by Lemma 1's linearity equals Multiplier · cost(p_i at
	// the step's divided shapes) — δ_i directly.
	CommBytes float64
	// Level is the interconnect tier this step's communication crosses
	// (index into the topology's levels, 0 = innermost/fastest). Flat
	// machines and topology-blind searches leave it 0; the topology-aware
	// search and topo.Topology.AssignLevels set it, and the simulator prices
	// the step's transfers at that level's bandwidth.
	Level int
	// States/Configs record search effort (Table 1).
	States, Configs int
	// Stage is the pipeline stage this step belongs to. Flat (non-pipelined)
	// plans leave it 0 and carry no Pipeline descriptor; stage-annotated
	// plans restart the Multiplier chain at 1 inside each stage, because each
	// stage's sub-machine divides only that stage's tensors.
	Stage int
}

// Delta is δ_i, the total communication incurred by all worker groups at
// step i (Theorem 2's monotone quantity).
func (s *Step) Delta() float64 { return s.CommBytes }

// Plan is the full recursive partition plan for K workers.
type Plan struct {
	K     int64
	Steps []*Step
	// FinalShapes maps tensor ID to its per-worker shard shape. The search
	// fills it with the members of one coarsened variable aliasing one
	// shape, so its shapes are read-only: clone one before changing it.
	FinalShapes map[int]shape.Shape
	// Digest, when set, is the content digest ("sha256:<hex>") of the
	// canonical request that produced this plan — the partition service's
	// cache key. WriteJSON embeds it so a persisted plan names the request
	// it answers; the search itself leaves it empty.
	Digest string
	// Pipeline, when non-nil, marks a hybrid-parallel plan: the steps are
	// per-stage partition plans concatenated in stage order (see Step.Stage),
	// and the descriptor records how the stages map onto the machine. Flat
	// plans leave it nil and serialize byte-identically to before it existed.
	Pipeline *PipelineInfo
	// Degraded marks an anytime result: a deadline or cancellation stopped
	// the search before it proved optimality, so this is the best incumbent
	// found in the budget — still a valid, feasible plan, just not
	// necessarily the optimum. Deadline-free searches never set it, and the
	// JSON form omits it when false, so their plans stay byte-identical.
	Degraded bool
}

// PipelineInfo describes the stage structure of a hybrid-parallel plan.
type PipelineInfo struct {
	// Level is the interconnect level the stage hand-offs cross (an index
	// into the machine's levels, >= 1).
	Level int `json:"level"`
	// Stages lists the stages in execution order.
	Stages []StageInfo `json:"stages"`
}

// StageInfo is one pipeline stage of a hybrid-parallel plan.
type StageInfo struct {
	// Groups is the [lo, hi) coarsened-group range the stage executes.
	Groups [2]int `json:"groups"`
	// Workers is the stage's GPU count; every stage has the same.
	Workers int64 `json:"workers"`
	// HandoffBytes is the activation/gradient traffic crossing into the next
	// stage each iteration; 0 on the last stage.
	HandoffBytes float64 `json:"handoff_bytes"`
}

// TotalComm returns Σ δ_i — the objective the recursive algorithm minimizes.
func (p *Plan) TotalComm() float64 {
	t := 0.0
	for _, s := range p.Steps {
		t += s.Delta()
	}
	return t
}

// Monotone reports whether δ_i ≤ δ_(i+1) holds across steps — Theorem 2's
// invariant (allowing a small numerical slack).
func (p *Plan) Monotone() bool {
	const slack = 1e-6
	for i := 0; i+1 < len(p.Steps); i++ {
		a, b := p.Steps[i].Delta(), p.Steps[i+1].Delta()
		if a > b*(1+slack)+slack {
			return false
		}
	}
	return true
}

// TensorCuts returns the per-step cut dimensions for a tensor (empty if the
// tensor is never referenced by an operator).
func (p *Plan) TensorCuts(tensorID int) []int {
	if !p.CutAtEveryStep(tensorID) {
		return nil
	}
	out := make([]int, len(p.Steps))
	for i, s := range p.Steps {
		out[i] = s.TensorCut[tensorID]
	}
	return out
}

// CutAtEveryStep reports whether the plan has steps and every one of them
// cuts the tensor — len(TensorCuts(tensorID)) > 0, without the slice.
func (p *Plan) CutAtEveryStep(tensorID int) bool {
	for _, s := range p.Steps {
		if tensorID < 0 || tensorID >= len(s.TensorCut) || s.TensorCut[tensorID] < 0 {
			return false
		}
	}
	return len(p.Steps) > 0
}

// CutSummary renders a tensor's cut sequence like "dim0/2 · dim1/2 · dim1/2"
// — the notation behind Figure 11's tile diagrams. On stage-annotated plans
// a tensor is cut only by its own stage's steps, so the summary walks the
// steps and keeps the cuts that exist instead of demanding one per step.
func (p *Plan) CutSummary(tensorID int) string {
	if p.Pipeline != nil {
		var parts []string
		for _, s := range p.Steps {
			if tensorID >= 0 && tensorID < len(s.TensorCut) {
				if d := s.TensorCut[tensorID]; d >= 0 {
					parts = append(parts, fmt.Sprintf("dim%d/%d", d, s.K))
				}
			}
		}
		if len(parts) == 0 {
			return "unpartitioned"
		}
		return strings.Join(parts, " · ")
	}
	cuts := p.TensorCuts(tensorID)
	if len(cuts) == 0 {
		return "unpartitioned"
	}
	parts := make([]string, len(cuts))
	for i, d := range cuts {
		parts[i] = fmt.Sprintf("dim%d/%d", d, p.Steps[i].K)
	}
	return strings.Join(parts, " · ")
}

// ShardDims returns, per dimension, the total number of ways the tensor is
// divided along that dimension across all steps.
func (p *Plan) ShardDims(tensorID int, rank int) []int64 {
	ways := make([]int64, rank)
	for i := range ways {
		ways[i] = 1
	}
	for _, s := range p.Steps {
		if tensorID >= 0 && tensorID < len(s.TensorCut) {
			if d := s.TensorCut[tensorID]; d >= 0 {
				ways[d] *= s.K
			}
		}
	}
	return ways
}
