package plan

import (
	"bytes"
	"strings"
	"testing"

	"tofu/internal/partition"
)

func exportablePlan() *Plan {
	strategies := func(st partition.Strategy) []partition.Strategy {
		out := make([]partition.Strategy, 8)
		out[7] = st
		return out
	}
	return &Plan{
		K: 4,
		Steps: []*Step{
			{
				K: 2, Multiplier: 1, CommBytes: 100,
				TensorCut:  []int{-1, 0, 1},
				OpStrategy: strategies(partition.Strategy{Kind: partition.SplitOutput, Axis: "i", OutDim: 0}),
			},
			{
				K: 2, Multiplier: 2, CommBytes: 150,
				TensorCut:  []int{-1, 1, 1},
				OpStrategy: strategies(partition.Strategy{Kind: partition.SplitReduce, Axis: "k", OutDim: -1}),
			},
		},
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := exportablePlan()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{`"workers": 4`, `"ways": 2`, `"reduce"`, `"output"`} {
		if !strings.Contains(out, frag) {
			t.Errorf("serialized plan missing %q:\n%s", frag, out)
		}
	}
	ex, err := ReadJSON(&buf)
	if err != nil {
		// buf was drained by the first read; re-serialize.
		var buf2 bytes.Buffer
		if err := p.WriteJSON(&buf2); err != nil {
			t.Fatal(err)
		}
		ex, err = ReadJSON(&buf2)
		if err != nil {
			t.Fatal(err)
		}
	}
	if ex.Workers != 4 || len(ex.Steps) != 2 {
		t.Fatalf("round trip lost structure: %+v", ex)
	}
	if ex.TotalCommBytes != 250 {
		t.Fatalf("total comm = %g", ex.TotalCommBytes)
	}
	if ex.Steps[0].TensorCut["1"] != 0 || ex.Steps[1].TensorCut["1"] != 1 {
		t.Fatalf("tensor cuts lost: %+v", ex.Steps)
	}
	if ex.Steps[1].OpStrategy["7"].Kind != "reduce" {
		t.Fatalf("strategy kind lost: %+v", ex.Steps[1].OpStrategy)
	}
}

func TestReadJSONValidation(t *testing.T) {
	cases := []string{
		`{`, // malformed
		`{"workers": 0, "steps": []}`,
		`{"workers": 4, "steps": [{"ways": 1}]}`,
		`{"workers": 8, "steps": [{"ways": 2}, {"ways": 2}]}`, // product 4 != 8
	}
	for _, c := range cases {
		if _, err := ReadJSON(strings.NewReader(c)); err == nil {
			t.Errorf("ReadJSON(%q) accepted invalid input", c)
		}
	}
}

// TestReadJSONRejectsMalformed locks the parse-audit contract: malformed
// identifiers, unknown strategy kinds, inconsistent multipliers and totals,
// unknown, folded or repeated keys and trailing bytes are errors, never
// silently-accepted zero values.
func TestReadJSONRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"unknown field", `{"workers": 2, "bogus": 1, "steps": [{"ways": 2, "multiplier": 1, "comm_bytes": 0, "tensor_cut": {}, "op_strategy": {}}]}`},
		{"bad tensor id", `{"workers": 2, "steps": [{"ways": 2, "multiplier": 1, "comm_bytes": 0, "tensor_cut": {"x": 0}, "op_strategy": {}}]}`},
		{"negative cut dim", `{"workers": 2, "steps": [{"ways": 2, "multiplier": 1, "comm_bytes": 0, "tensor_cut": {"1": -1}, "op_strategy": {}}]}`},
		{"bad node id", `{"workers": 2, "steps": [{"ways": 2, "multiplier": 1, "comm_bytes": 0, "tensor_cut": {}, "op_strategy": {"n7": {"kind": "output", "axis": "i"}}}]}`},
		{"unknown kind", `{"workers": 2, "steps": [{"ways": 2, "multiplier": 1, "comm_bytes": 0, "tensor_cut": {}, "op_strategy": {"7": {"kind": "shuffle", "axis": "i"}}}]}`},
		{"missing axis", `{"workers": 2, "steps": [{"ways": 2, "multiplier": 1, "comm_bytes": 0, "tensor_cut": {}, "op_strategy": {"7": {"kind": "output"}}}]}`},
		{"bad multiplier", `{"workers": 4, "steps": [{"ways": 2, "multiplier": 1, "comm_bytes": 0, "tensor_cut": {}, "op_strategy": {}}, {"ways": 2, "multiplier": 3, "comm_bytes": 0, "tensor_cut": {}, "op_strategy": {}}]}`},
		{"negative comm", `{"workers": 2, "steps": [{"ways": 2, "multiplier": 1, "comm_bytes": -5, "tensor_cut": {}, "op_strategy": {}}]}`},
		// What encoding/json let through (each was accepted before the scanner).
		{"trailing bytes", `{"workers": 2, "steps": [{"ways": 2, "multiplier": 1, "comm_bytes": 0, "tensor_cut": {}, "op_strategy": {}}], "total_comm_bytes": 0}garbage`},
		{"trailing value", `{"workers": 2, "steps": [{"ways": 2, "multiplier": 1, "comm_bytes": 0, "tensor_cut": {}, "op_strategy": {}}], "total_comm_bytes": 0} {}`},
		{"negative total", `{"workers": 2, "steps": [{"ways": 2, "multiplier": 1, "comm_bytes": 0, "tensor_cut": {}, "op_strategy": {}}], "total_comm_bytes": -1}`},
		{"inconsistent total", `{"workers": 4, "steps": [{"ways": 2, "multiplier": 1, "comm_bytes": 10, "tensor_cut": {}, "op_strategy": {}}, {"ways": 2, "multiplier": 2, "comm_bytes": 20, "tensor_cut": {}, "op_strategy": {}}], "total_comm_bytes": 31}`},
		{"missing total", `{"workers": 2, "steps": [{"ways": 2, "multiplier": 1, "comm_bytes": 10, "tensor_cut": {}, "op_strategy": {}}]}`},
		{"case-folded key", `{"WORKERS": 2, "steps": [{"ways": 2, "multiplier": 1, "comm_bytes": 0, "tensor_cut": {}, "op_strategy": {}}], "total_comm_bytes": 0}`},
		{"case-folded step key", `{"workers": 2, "steps": [{"Ways": 2, "multiplier": 1, "comm_bytes": 0, "tensor_cut": {}, "op_strategy": {}}], "total_comm_bytes": 0}`},
		{"escaped key", `{"w\u006frkers": 2, "steps": [{"ways": 2, "multiplier": 1, "comm_bytes": 0, "tensor_cut": {}, "op_strategy": {}}], "total_comm_bytes": 0}`},
		{"duplicate key", `{"workers": 4, "workers": 2, "steps": [{"ways": 2, "multiplier": 1, "comm_bytes": 0, "tensor_cut": {}, "op_strategy": {}}], "total_comm_bytes": 0}`},
		{"duplicate step key", `{"workers": 2, "steps": [{"ways": 3, "ways": 2, "multiplier": 1, "comm_bytes": 0, "tensor_cut": {}, "op_strategy": {}}], "total_comm_bytes": 0}`},
		{"duplicate tensor id", `{"workers": 2, "steps": [{"ways": 2, "multiplier": 1, "comm_bytes": 0, "tensor_cut": {"1": 0, "1": 1}, "op_strategy": {}}], "total_comm_bytes": 0}`},
		{"tensor ids out of order", `{"workers": 2, "steps": [{"ways": 2, "multiplier": 1, "comm_bytes": 0, "tensor_cut": {"2": 0, "10": 1}, "op_strategy": {}}], "total_comm_bytes": 0}`},
		{"zero-padded id", `{"workers": 2, "steps": [{"ways": 2, "multiplier": 1, "comm_bytes": 0, "tensor_cut": {"01": 0}, "op_strategy": {}}], "total_comm_bytes": 0}`},
		{"signed id", `{"workers": 2, "steps": [{"ways": 2, "multiplier": 1, "comm_bytes": 0, "tensor_cut": {"+1": 0}, "op_strategy": {}}], "total_comm_bytes": 0}`},
		{"aliasing node ids", `{"workers": 2, "steps": [{"ways": 2, "multiplier": 1, "comm_bytes": 0, "tensor_cut": {}, "op_strategy": {"07": {"kind": "output", "axis": "i"}, "7": {"kind": "reduce", "axis": "k"}}}], "total_comm_bytes": 0}`},
		{"id beyond int", `{"workers": 2, "steps": [{"ways": 2, "multiplier": 1, "comm_bytes": 0, "tensor_cut": {"9223372036854775808": 0}, "op_strategy": {}}], "total_comm_bytes": 0}`},
		{"fractional workers", `{"workers": 2.0, "steps": [{"ways": 2, "multiplier": 1, "comm_bytes": 0, "tensor_cut": {}, "op_strategy": {}}], "total_comm_bytes": 0}`},
		{"null cut dim", `{"workers": 2, "steps": [{"ways": 2, "multiplier": 1, "comm_bytes": 0, "tensor_cut": {"1": null}, "op_strategy": {}}], "total_comm_bytes": 0}`},
		{"three-element groups", `{"workers": 4, "steps": [{"ways": 2, "multiplier": 1, "comm_bytes": 0}, {"ways": 2, "multiplier": 1, "comm_bytes": 0, "stage": 1}], "pipeline": {"level": 1, "stages": [{"groups": [0, 1, 9], "workers": 2, "handoff_bytes": 0}, {"groups": [1, 2], "workers": 2, "handoff_bytes": 0}]}, "total_comm_bytes": 0}`},
	}
	for _, tc := range cases {
		if _, err := ReadJSON(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: expected error, got none", tc.name)
		}
		if _, err := Verify([]byte(tc.in), ""); err == nil {
			t.Errorf("%s: Verify: expected error, got none", tc.name)
		}
	}
	// The same shapes in any key order, compact or indented, with the nulls
	// encoding/json writes for nil containers, are still plans.
	for _, in := range []string{
		`{"total_comm_bytes": 0, "steps": [{"op_strategy": {}, "tensor_cut": {}, "comm_bytes": 0, "multiplier": 1, "ways": 2}], "workers": 2}`,
		`{"workers":2,"steps":[{"ways":2,"multiplier":1,"comm_bytes":0,"tensor_cut":null,"op_strategy":null}],"total_comm_bytes":0}`,
		`{"workers":1,"steps":null,"total_comm_bytes":0}`,
		"{\"workers\": 2,\r\n\t\"steps\": [{\"ways\": 2, \"multiplier\": 1, \"comm_bytes\": 1e-7, \"tensor_cut\": {\"1\": 0, \"10\": 1, \"2\": 0}, \"op_strategy\": {\"0\": {\"axis\": \"a\\u00e9\", \"dim\": -1, \"kind\": \"reduce\"}}}], \"total_comm_bytes\": 1E-7} \n",
	} {
		if _, err := ReadJSON(strings.NewReader(in)); err != nil {
			t.Errorf("well-formed plan rejected: %v\n%s", err, in)
		}
		if _, err := Verify([]byte(in), ""); err != nil {
			t.Errorf("Verify: well-formed plan rejected: %v\n%s", err, in)
		}
	}
	// A well-formed plan still parses.
	p := exportablePlan()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJSON(&buf); err != nil {
		t.Fatalf("well-formed plan rejected: %v", err)
	}
}
