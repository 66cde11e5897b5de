package plan

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strconv"

	"tofu/internal/partition"
)

// WriteJSON serializes the plan in the frozen wire format (DESIGN.md, "Plan
// codec"): exactly the bytes encoding/json's two-space-indented Encoder
// produces for the plan's Export — stored plans, digests and the LRU depend
// on them — appended straight from the dense step slices. The output is
// built whole and handed to w in one Write, as the Encoder did: w may be an
// unbuffered file, and a bytes.Buffer grows once, to about the plan's size,
// instead of doubling its way there (the service keeps those bytes in its
// caches). On an unserializable plan (NaN or infinite bytes) nothing is
// written.
//
//tofu:hotpath
func (p *Plan) WriteJSON(w io.Writer) error {
	total := p.TotalComm()
	bad := math.IsNaN(total) || math.IsInf(total, 0)
	if p.Pipeline != nil {
		for i := range p.Pipeline.Stages {
			h := p.Pipeline.Stages[i].HandoffBytes
			bad = bad || math.IsNaN(h) || math.IsInf(h, 0)
		}
	}
	// A finite Σ δ_i has finite terms, so the steps need no loop of their own.
	if bad {
		return errors.New("plan: encoding: unsupported value: NaN or infinite byte count")
	}

	// One allocation close to the final size instead of doubling up to it:
	// an entry takes about 20 bytes per cut tensor and 90 per strategy.
	size := 1 << 10
	for _, s := range p.Steps {
		size += 256
		for _, d := range s.TensorCut {
			if d >= 0 {
				size += 20
			}
		}
		for i := range s.OpStrategy {
			if s.OpStrategy[i].Axis != "" {
				size += 96
			}
		}
	}
	var b []byte
	if buf, ok := w.(*bytes.Buffer); ok {
		// Append in place: the Write below then finds its bytes already there.
		buf.Grow(size)
		b = buf.AvailableBuffer()
	} else {
		b = make([]byte, 0, size)
	}

	b = append(b, "{\n"...)
	if p.Digest != "" {
		b = append(b, `  "digest": `...)
		b = appendString(b, p.Digest)
		b = append(b, ",\n"...)
	}
	b = append(b, `  "workers": `...)
	b = strconv.AppendInt(b, p.K, 10)
	b = append(b, ",\n  \"steps\": "...)
	if len(p.Steps) == 0 {
		b = append(b, "null"...)
	}
	for si, s := range p.Steps {
		if si == 0 {
			b = append(b, "[\n"...)
		} else {
			b = append(b, ",\n"...)
		}
		b = appendStep(b, s)
		if si == len(p.Steps)-1 {
			b = append(b, "\n  ]"...)
		}
	}
	if p.Pipeline != nil {
		b = appendPipeline(b, p.Pipeline)
	}
	if p.Degraded {
		b = append(b, ",\n  \"degraded\": true"...)
	}
	b = append(b, ",\n  \"total_comm_bytes\": "...)
	b = appendFloat(b, total)
	b = append(b, "\n}\n"...)
	_, err := w.Write(b)
	return err
}

// appendStep appends one element of "steps" at its four-space indent.
//
//tofu:hotpath
func appendStep(b []byte, s *Step) []byte {
	b = append(b, "    {\n      \"ways\": "...)
	b = strconv.AppendInt(b, s.K, 10)
	b = append(b, ",\n      \"multiplier\": "...)
	b = strconv.AppendInt(b, s.Multiplier, 10)
	b = append(b, ",\n      \"comm_bytes\": "...)
	b = appendFloat(b, s.CommBytes)
	if s.Level != 0 {
		b = append(b, ",\n      \"level\": "...)
		b = strconv.AppendInt(b, int64(s.Level), 10)
	}
	if s.Stage != 0 {
		b = append(b, ",\n      \"stage\": "...)
		b = strconv.AppendInt(b, int64(s.Stage), 10)
	}

	b = append(b, ",\n      \"tensor_cut\": {"...)
	n := len(b)
	for id := 0; id >= 0; id = nextID(id, len(s.TensorCut)) {
		if id >= len(s.TensorCut) || s.TensorCut[id] < 0 { // past the end only when there are no IDs
			continue
		}
		b = appendIDKey(b, id, len(b) == n)
		b = strconv.AppendInt(b, int64(s.TensorCut[id]), 10)
	}
	if len(b) > n {
		b = append(b, "\n      "...)
	}

	b = append(b, "},\n      \"op_strategy\": {"...)
	n = len(b)
	for id := 0; id >= 0; id = nextID(id, len(s.OpStrategy)) {
		if id >= len(s.OpStrategy) || s.OpStrategy[id].Axis == "" {
			continue
		}
		st := &s.OpStrategy[id]
		b = appendIDKey(b, id, len(b) == n)
		if st.Kind == partition.SplitOutput {
			b = append(b, "{\n          \"kind\": \"output\",\n          \"axis\": "...)
		} else {
			b = append(b, "{\n          \"kind\": \"reduce\",\n          \"axis\": "...)
		}
		b = appendString(b, st.Axis)
		if st.OutDim != 0 {
			b = append(b, ",\n          \"dim\": "...)
			b = strconv.AppendInt(b, int64(st.OutDim), 10)
		}
		b = append(b, "\n        }"...)
	}
	if len(b) > n {
		b = append(b, "\n      "...)
	}
	return append(b, "}\n    }"...)
}

// nextID steps through the IDs 0..n-1 in the order of their decimal strings
// ("0" < "1" < "10" < "100" < "11" < "2"), which is the order encoding/json
// sorts map keys into: a preorder walk of the digit trie, O(1) amortized per
// ID where sorting the formatted keys costs more than the rest of the
// encoder. It returns -1 after the last ID.
//
//tofu:hotpath
func nextID(id, n int) int {
	if id == 0 {
		if n > 1 {
			return 1
		}
		return -1
	}
	if id*10 < n {
		return id * 10
	}
	for id%10 == 9 || id+1 >= n {
		id /= 10
		if id == 0 {
			return -1
		}
	}
	return id + 1
}

// appendIDKey appends the `"<id>": ` that opens one tensor_cut or
// op_strategy entry at its eight-space indent.
//
//tofu:hotpath
func appendIDKey(b []byte, id int, first bool) []byte {
	if first {
		b = append(b, "\n        \""...)
	} else {
		b = append(b, ",\n        \""...)
	}
	b = strconv.AppendInt(b, int64(id), 10)
	return append(b, "\": "...)
}

func appendPipeline(b []byte, pl *PipelineInfo) []byte {
	b = append(b, ",\n  \"pipeline\": {\n    \"level\": "...)
	b = strconv.AppendInt(b, int64(pl.Level), 10)
	b = append(b, ",\n    \"stages\": "...)
	switch {
	case pl.Stages == nil:
		b = append(b, "null"...)
	case len(pl.Stages) == 0:
		b = append(b, "[]"...)
	}
	for i, st := range pl.Stages {
		if i == 0 {
			b = append(b, "[\n"...)
		} else {
			b = append(b, ",\n"...)
		}
		b = append(b, "      {\n        \"groups\": [\n          "...)
		b = strconv.AppendInt(b, int64(st.Groups[0]), 10)
		b = append(b, ",\n          "...)
		b = strconv.AppendInt(b, int64(st.Groups[1]), 10)
		b = append(b, "\n        ],\n        \"workers\": "...)
		b = strconv.AppendInt(b, st.Workers, 10)
		b = append(b, ",\n        \"handoff_bytes\": "...)
		b = appendFloat(b, st.HandoffBytes)
		b = append(b, "\n      }"...)
		if i == len(pl.Stages)-1 {
			b = append(b, "\n    ]"...)
		}
	}
	return append(b, "\n  }"...)
}

// appendFloat appends a finite float the way encoding/json does: shortest
// round-trip digits, plain notation unless the magnitude is below 1e-6 or at
// least 1e21, and a one-digit exponent without its leading zero (e-07 → e-7).
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	if abs == 0 || (abs >= 1e-6 && abs < 1e21) {
		return strconv.AppendFloat(b, f, 'f', -1, 64)
	}
	b = strconv.AppendFloat(b, f, 'e', -1, 64)
	if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendString appends s as a JSON string. Printable ASCII without the
// characters encoding/json escapes (quote, backslash and, for HTML safety,
// < > &) is copied between quotes; anything else — no axis name or digest in
// practice — is quoted by encoding/json itself, so the escaping rules live in
// one place.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) //tofu:allow-errdrop a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
