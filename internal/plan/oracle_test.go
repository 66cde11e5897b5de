package plan

// The differential oracle for the plan codec: the encoding/json path that
// WriteJSON and ReadJSON replaced, kept verbatim and compiled into tests
// only. The wire format is defined as "what this writes" (DESIGN.md, "Plan
// codec"), so the streaming codec is tested against it rather than against
// golden files.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// ToExport converts a plan into its serializable form.
func (p *Plan) ToExport() Export {
	ex := Export{Digest: p.Digest, Workers: p.K, Pipeline: p.Pipeline, Degraded: p.Degraded, TotalCommBytes: p.TotalComm()}
	for _, s := range p.Steps {
		se := StepExport{
			Ways: s.K, Multiplier: s.Multiplier, CommBytes: s.CommBytes, Level: s.Level, Stage: s.Stage,
			TensorCut:  make(map[string]int, len(s.TensorCut)),
			OpStrategy: make(map[string]strat, len(s.OpStrategy)),
		}
		for tid, d := range s.TensorCut {
			if d >= 0 {
				se.TensorCut[fmt.Sprint(tid)] = d
			}
		}
		for nid, st := range s.OpStrategy {
			if st.Axis == "" {
				continue
			}
			se.OpStrategy[fmt.Sprint(nid)] = strat{
				Kind: st.Kind.String(), Axis: st.Axis, Dim: st.OutDim,
			}
		}
		ex.Steps = append(ex.Steps, se)
	}
	return ex
}

// ReferenceWriteJSON is WriteJSON as it was before the streaming encoder:
// encoding/json over the Export, two-space indent.
func ReferenceWriteJSON(p *Plan, w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p.ToExport())
}

// ReferenceReadJSON is ReadJSON as it was before the scanner: encoding/json
// into the Export, then the audit over the decoded value. It is laxer than
// ReadJSON (trailing bytes, totals, folded or duplicate keys, aliasing IDs),
// so the differential is one-sided: whatever ReadJSON accepts, this accepts
// with an equal Export.
func ReferenceReadJSON(r io.Reader) (Export, error) {
	var ex Export
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ex); err != nil {
		return Export{}, fmt.Errorf("plan: decoding: %w", err)
	}
	if ex.Digest != "" {
		if err := ValidateDigest(ex.Digest); err != nil {
			return Export{}, err
		}
	}
	if ex.Workers < 1 {
		return Export{}, fmt.Errorf("plan: invalid worker count %d", ex.Workers)
	}
	if ex.Pipeline != nil {
		if err := validatePipeline(ex.Pipeline, ex.Workers); err != nil {
			return Export{}, err
		}
	}
	// Flat plans chain one multiplier product across all steps; stage-
	// annotated plans restart the chain at 1 inside each stage (every
	// stage's sub-machine divides only that stage's tensors), and the
	// per-stage products must each reach the stage's worker count.
	prod := int64(1)
	curStage := 0
	for si, s := range ex.Steps {
		if s.Ways < 2 {
			return Export{}, fmt.Errorf("plan: step %d: invalid ways %d", si, s.Ways)
		}
		if ex.Pipeline == nil {
			if s.Stage != 0 {
				return Export{}, fmt.Errorf("plan: step %d: stage %d without a pipeline descriptor", si, s.Stage)
			}
		} else {
			if s.Stage < curStage || s.Stage >= len(ex.Pipeline.Stages) {
				return Export{}, fmt.Errorf("plan: step %d: stage %d out of order (at stage %d of %d)",
					si, s.Stage, curStage, len(ex.Pipeline.Stages))
			}
			if s.Stage > curStage {
				if s.Stage != curStage+1 {
					return Export{}, fmt.Errorf("plan: stage %d has no steps", curStage+1)
				}
				if prod != ex.Pipeline.Stages[curStage].Workers {
					return Export{}, fmt.Errorf("plan: stage %d steps multiply to %d, want %d workers",
						curStage, prod, ex.Pipeline.Stages[curStage].Workers)
				}
				curStage++
				prod = 1
			}
		}
		if s.Multiplier != prod {
			return Export{}, fmt.Errorf("plan: step %d: multiplier %d, want %d (product of prior ways)",
				si, s.Multiplier, prod)
		}
		if s.CommBytes < 0 || math.IsNaN(s.CommBytes) {
			return Export{}, fmt.Errorf("plan: step %d: invalid comm bytes %g", si, s.CommBytes)
		}
		if s.Level < 0 {
			return Export{}, fmt.Errorf("plan: step %d: invalid level %d", si, s.Level)
		}
		for tid, d := range s.TensorCut {
			id, err := strconv.Atoi(tid)
			if err != nil || id < 0 {
				return Export{}, fmt.Errorf("plan: step %d: malformed tensor ID %q", si, tid)
			}
			if d < 0 {
				return Export{}, fmt.Errorf("plan: step %d: tensor %s: invalid cut dim %d", si, tid, d)
			}
		}
		for nid, st := range s.OpStrategy {
			id, err := strconv.Atoi(nid)
			if err != nil || id < 0 {
				return Export{}, fmt.Errorf("plan: step %d: malformed node ID %q", si, nid)
			}
			switch st.Kind {
			case "output":
				if st.Dim < 0 {
					return Export{}, fmt.Errorf("plan: step %d: node %s: invalid output dim %d", si, nid, st.Dim)
				}
			case "reduce":
				// Dim is unused for reductions.
			default:
				return Export{}, fmt.Errorf("plan: step %d: node %s: unknown strategy kind %q", si, nid, st.Kind)
			}
			if st.Axis == "" {
				return Export{}, fmt.Errorf("plan: step %d: node %s: missing strategy axis", si, nid)
			}
		}
		prod *= s.Ways
	}
	if ex.Pipeline == nil {
		if prod != ex.Workers {
			return Export{}, fmt.Errorf("plan: steps multiply to %d, want %d", prod, ex.Workers)
		}
	} else {
		if curStage != len(ex.Pipeline.Stages)-1 {
			return Export{}, fmt.Errorf("plan: stage %d has no steps", curStage+1)
		}
		if prod != ex.Pipeline.Stages[curStage].Workers {
			return Export{}, fmt.Errorf("plan: stage %d steps multiply to %d, want %d workers",
				curStage, prod, ex.Pipeline.Stages[curStage].Workers)
		}
	}
	return ex, nil
}
