package plan

import (
	"fmt"
	"io"
	"math"
)

// Export is the stable, serializable form of a partition plan, for tooling
// that wants to persist or diff plans (the original prototype emitted its
// plans into NNVM graph attributes the same way).
type Export struct {
	// Digest is the content digest ("sha256:<64 hex>") of the canonical
	// request this plan answers (see Plan.Digest). Omitted for plans
	// produced outside the request path, so their JSON is unchanged.
	Digest  string       `json:"digest,omitempty"`
	Workers int64        `json:"workers"`
	Steps   []StepExport `json:"steps"`
	// Pipeline describes the stage structure of a hybrid-parallel plan;
	// omitted for flat plans, so their JSON is unchanged.
	Pipeline *PipelineInfo `json:"pipeline,omitempty"`
	// Degraded marks an anytime result a deadline stopped early (see
	// Plan.Degraded); omitted for complete plans, so their JSON is
	// unchanged.
	Degraded bool `json:"degraded,omitempty"`
	// TotalCommBytes is Σ δ_i.
	TotalCommBytes float64 `json:"total_comm_bytes"`
}

// StepExport is one basic partition plan.
type StepExport struct {
	Ways       int64   `json:"ways"`
	Multiplier int64   `json:"multiplier"`
	CommBytes  float64 `json:"comm_bytes"`
	// Level is the interconnect tier the step's communication crosses;
	// omitted for flat plans, so their JSON is unchanged.
	Level int `json:"level,omitempty"`
	// Stage is the pipeline stage the step belongs to; omitted for flat
	// plans and first-stage steps (absent means 0).
	Stage      int              `json:"stage,omitempty"`
	TensorCut  map[string]int   `json:"tensor_cut"` // tensor ID (decimal) -> dim
	OpStrategy map[string]strat `json:"op_strategy"`
}

type strat struct {
	Kind string `json:"kind"` // "output" | "reduce"
	Axis string `json:"axis"`
	Dim  int    `json:"dim,omitempty"`
}

// Header is the part of a serialized plan the serving tier reads after
// verifying it: which request it answers, for how many workers, whether the
// search was cut short, and the realized ordering (factor and interconnect
// level per step) that the store records in each entry's header.
type Header struct {
	Digest   string
	Workers  int64
	Degraded bool
	Steps    []StepHeader
}

// StepHeader is one step of a Header.
type StepHeader struct {
	Ways  int64
	Level int
}

// ReadJSON parses a serialized plan back into its export form (tensor and
// node identities belong to the original graph, so the export — not a full
// Plan — is the unit of exchange). Every field is validated: malformed
// identifiers, unknown strategy kinds, inconsistent multipliers or totals,
// unknown, duplicated or case-folded keys and trailing bytes are errors,
// never silently-accepted zero values (DESIGN.md, "Plan codec").
func ReadJSON(r io.Reader) (Export, error) {
	raw, err := readAll(r)
	if err != nil {
		return Export{}, fmt.Errorf("plan: decoding: %w", err)
	}
	return scan(raw, true)
}

// ReadJSONExpect is ReadJSON that additionally requires the plan to answer
// the request identified by want: a missing or different embedded digest is
// an error. This is how a plan fetched by digest (the service's
// /v1/plans/{digest}, a cached artifact on disk) proves it belongs to the
// request the caller hashed.
func ReadJSONExpect(r io.Reader, want string) (Export, error) {
	if err := ValidateDigest(want); err != nil {
		return Export{}, err
	}
	ex, err := ReadJSON(r)
	if err != nil {
		return Export{}, err
	}
	if err := matchDigest(ex.Digest, want); err != nil {
		return Export{}, err
	}
	return ex, nil
}

func matchDigest(got, want string) error {
	if got != want {
		return fmt.Errorf("plan: digest mismatch: plan carries %q, want %q", got, want)
	}
	return nil
}

// Verify makes every check ReadJSON makes, in the same single pass, without
// building the per-step maps, and returns the plan's Header. A non-empty
// want must be a well-formed digest and the one the plan embeds (as in
// ReadJSONExpect); an empty want accepts any plan, digest or not.
func Verify(raw []byte, want string) (Header, error) {
	if want != "" {
		if err := ValidateDigest(want); err != nil {
			return Header{}, err
		}
	}
	ex, err := scan(raw, false)
	if err != nil {
		return Header{}, err
	}
	if want != "" {
		if err := matchDigest(ex.Digest, want); err != nil {
			return Header{}, err
		}
	}
	h := Header{Digest: ex.Digest, Workers: ex.Workers, Degraded: ex.Degraded, Steps: make([]StepHeader, len(ex.Steps))}
	for i, s := range ex.Steps {
		h.Steps[i] = StepHeader{Ways: s.Ways, Level: s.Level}
	}
	return h, nil
}

// readAll is io.ReadAll with the buffer sized up front when the reader knows
// its length (bytes.Reader, bytes.Buffer, strings.Reader).
func readAll(r io.Reader) ([]byte, error) {
	if l, ok := r.(interface{ Len() int }); ok {
		raw := make([]byte, l.Len())
		n, err := io.ReadFull(r, raw)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = nil
		}
		return raw[:n], err
	}
	return io.ReadAll(r)
}

// scan parses and audits one serialized plan. The scanner checks what is
// local to a value as it passes (syntax, keys, IDs, strategies); the checks
// that relate fields to each other run here, once the whole object is in.
// With full unset the steps' TensorCut and OpStrategy stay nil.
func scan(raw []byte, full bool) (Export, error) {
	s := scanner{b: raw, full: full}
	ex := s.plan()
	if s.err != nil {
		return Export{}, s.err
	}
	if err := validate(&ex); err != nil {
		return Export{}, err
	}
	return ex, nil
}

// validate audits a scanned plan's cross-field structure: worker count,
// pipeline descriptor, the multiplier chain and the communication totals.
func validate(ex *Export) error {
	if ex.Workers < 1 {
		return fmt.Errorf("plan: invalid worker count %d", ex.Workers)
	}
	if ex.Pipeline != nil {
		if err := validatePipeline(ex.Pipeline, ex.Workers); err != nil {
			return err
		}
	}
	// Flat plans chain one multiplier product across all steps; stage-
	// annotated plans restart the chain at 1 inside each stage (every
	// stage's sub-machine divides only that stage's tensors), and the
	// per-stage products must each reach the stage's worker count.
	prod := int64(1)
	curStage := 0
	total := 0.0
	for si, s := range ex.Steps {
		if s.Ways < 2 {
			return fmt.Errorf("plan: step %d: invalid ways %d", si, s.Ways)
		}
		if ex.Pipeline == nil {
			if s.Stage != 0 {
				return fmt.Errorf("plan: step %d: stage %d without a pipeline descriptor", si, s.Stage)
			}
		} else {
			if s.Stage < curStage || s.Stage >= len(ex.Pipeline.Stages) {
				return fmt.Errorf("plan: step %d: stage %d out of order (at stage %d of %d)",
					si, s.Stage, curStage, len(ex.Pipeline.Stages))
			}
			if s.Stage > curStage {
				if s.Stage != curStage+1 {
					return fmt.Errorf("plan: stage %d has no steps", curStage+1)
				}
				if prod != ex.Pipeline.Stages[curStage].Workers {
					return fmt.Errorf("plan: stage %d steps multiply to %d, want %d workers",
						curStage, prod, ex.Pipeline.Stages[curStage].Workers)
				}
				curStage++
				prod = 1
			}
		}
		if s.Multiplier != prod {
			return fmt.Errorf("plan: step %d: multiplier %d, want %d (product of prior ways)",
				si, s.Multiplier, prod)
		}
		if s.CommBytes < 0 || math.IsNaN(s.CommBytes) {
			return fmt.Errorf("plan: step %d: invalid comm bytes %g", si, s.CommBytes)
		}
		if s.Level < 0 {
			return fmt.Errorf("plan: step %d: invalid level %d", si, s.Level)
		}
		total += s.CommBytes
		prod *= s.Ways
	}
	if ex.Pipeline == nil {
		if prod != ex.Workers {
			return fmt.Errorf("plan: steps multiply to %d, want %d", prod, ex.Workers)
		}
	} else {
		if curStage != len(ex.Pipeline.Stages)-1 {
			return fmt.Errorf("plan: stage %d has no steps", curStage+1)
		}
		if prod != ex.Pipeline.Stages[curStage].Workers {
			return fmt.Errorf("plan: stage %d steps multiply to %d, want %d workers",
				curStage, prod, ex.Pipeline.Stages[curStage].Workers)
		}
	}
	// WriteJSON emits Σ comm_bytes summed in step order, and strconv
	// round-trips every float exactly, so an honest total matches bit for bit.
	if ex.TotalCommBytes < 0 || math.Float64bits(ex.TotalCommBytes) != math.Float64bits(total) {
		return fmt.Errorf("plan: total comm bytes %g, want %g (sum over steps)", ex.TotalCommBytes, total)
	}
	return nil
}

// validatePipeline audits a hybrid plan's stage descriptor: at least two
// stages of equal worker count multiplying to the plan's total, contiguous
// ascending group ranges from 0, hand-off bytes finite and absent on the
// last stage, and a stage level above the sub-machine's.
func validatePipeline(pl *PipelineInfo, workers int64) error {
	if pl.Level < 1 {
		return fmt.Errorf("plan: pipeline level %d invalid (stages straddle a level >= 1)", pl.Level)
	}
	if len(pl.Stages) < 2 {
		return fmt.Errorf("plan: pipeline with %d stage(s); need at least 2", len(pl.Stages))
	}
	kSub := pl.Stages[0].Workers
	if kSub < 1 {
		return fmt.Errorf("plan: pipeline stage 0: invalid worker count %d", kSub)
	}
	prevHi := 0
	for si, st := range pl.Stages {
		if st.Workers != kSub {
			return fmt.Errorf("plan: pipeline stage %d: %d workers, want %d (stages are equal sub-machines)",
				si, st.Workers, kSub)
		}
		if st.Groups[0] != prevHi || st.Groups[1] <= st.Groups[0] {
			return fmt.Errorf("plan: pipeline stage %d: group range [%d,%d) not contiguous after %d",
				si, st.Groups[0], st.Groups[1], prevHi)
		}
		prevHi = st.Groups[1]
		if st.HandoffBytes < 0 || math.IsNaN(st.HandoffBytes) || math.IsInf(st.HandoffBytes, 0) {
			return fmt.Errorf("plan: pipeline stage %d: invalid handoff bytes %g", si, st.HandoffBytes)
		}
		if si == len(pl.Stages)-1 && st.HandoffBytes != 0 {
			return fmt.Errorf("plan: last pipeline stage hands off %g bytes; want 0", st.HandoffBytes)
		}
	}
	if got := kSub * int64(len(pl.Stages)); got != workers {
		return fmt.Errorf("plan: pipeline stages cover %d workers, want %d", got, workers)
	}
	return nil
}

// DigestPrefix prefixes every request content digest.
const DigestPrefix = "sha256:"

// ValidateDigest checks the "sha256:<64 lowercase hex>" shape of a content
// digest — the same silent-garbage audit ReadJSON applies to IDs and
// strategy kinds, extended to the digest field.
func ValidateDigest(d string) error {
	if len(d) != len(DigestPrefix)+64 || d[:len(DigestPrefix)] != DigestPrefix {
		return fmt.Errorf("plan: malformed digest %q (want %s<64 hex>)", d, DigestPrefix)
	}
	for _, c := range d[len(DigestPrefix):] {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("plan: malformed digest %q (want %s<64 hex>)", d, DigestPrefix)
		}
	}
	return nil
}
