package plan_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"tofu/internal/plan"
)

// FuzzReadPlanJSON drives the strict plan reader with arbitrary bytes. The
// invariants under test: ReadJSON and Verify accept the same inputs; anything
// they accept the encoding/json reference reader accepts too, with an equal
// Export and a header that agrees with it (the reference is laxer, never
// different); and an accepted Export re-marshals, is accepted again, and
// re-marshals to identical bytes — the byte-stability the digest-keyed plan
// cache depends on. Seed corpus: real tofu-plan exports (flat, hierarchical,
// pipelined, degraded) under testdata/fuzz.
func FuzzReadPlanJSON(f *testing.F) {
	f.Add([]byte(`{"workers":2,"steps":[],"total_comm_bytes":0}`))
	f.Add([]byte(`{"workers":0}`))                                                                                                          // invalid worker count
	f.Add([]byte(`{"workers":2,"steps":[{"ways":1,"multiplier":1,"comm_bytes":0,"tensor_cut":{},"op_strategy":{}}],"total_comm_bytes":0}`)) // invalid ways
	f.Add([]byte(`{"digest":"sha256:zz","workers":2,"steps":[],"total_comm_bytes":0}`))                                                     // malformed digest
	f.Add([]byte(`{"workers":2,"unknown":1}`))                                                                                              // unknown field
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"workers":2,"steps":[{"ways":2,"multiplier":1,"comm_bytes":1e-7,"tensor_cut":{"1":0,"10":1,"2":0},"op_strategy":{"0":{"kind":"reduce","axis":"a\u00e9","dim":-1}}}],"total_comm_bytes":1e-7}`))
	f.Add([]byte(`{"workers":2,"workers":2,"steps":[{"ways":2,"multiplier":1,"comm_bytes":0,"tensor_cut":null,"op_strategy":{"01":{"kind":"output","axis":"i"}}}],"total_comm_bytes":0}x`)) // duplicate key, aliasing ID, trailing byte
	f.Fuzz(func(t *testing.T, data []byte) {
		ex, err := plan.ReadJSON(bytes.NewReader(data))
		if err != nil {
			if _, verr := plan.Verify(data, ""); verr == nil {
				t.Fatalf("Verify accepts what ReadJSON rejects (%v)", err)
			}
			return
		}
		checkReader(t, "fuzz input", data)
		out, err := json.Marshal(ex)
		if err != nil {
			t.Fatalf("accepted export does not re-marshal: %v", err)
		}
		ex2, err := plan.ReadJSON(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("re-marshaled export rejected: %v\n%s", err, out)
		}
		out2, err := json.Marshal(ex2)
		if err != nil {
			t.Fatalf("second marshal: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("plan round-trip is not byte-stable:\n%s\n%s", out, out2)
		}
	})
}
