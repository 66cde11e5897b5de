package service_test

import (
	"encoding/json"
	"strings"
	"testing"

	"tofu/internal/service"
)

// FuzzParseRequest drives the wire-request decoder with arbitrary bytes.
// Anything it accepts is already normalized, so: normalizing again must be a
// no-op (same digest), the digest must be well-formed, and the re-marshaled
// request must parse to the same digest — the cache-key stability the
// coalescing and plan cache rest on. Seed corpus: bare, profile-backed and
// inline-machine requests under testdata/fuzz.
func FuzzParseRequest(f *testing.F) {
	f.Add([]byte(`{"model":{"family":"mlp","depth":4,"width":64,"batch":8},"workers":4}`))
	f.Add([]byte(`{"model":{"family":"mlp","depth":4,"width":64,"batch":8},"hw":"dgx1"}`))
	f.Add([]byte(`{"model":{"family":"mlp","depth":4,"width":64,"batch":8},"hw":"dgx1","workers":4}`)) // workers/machine mismatch
	f.Add([]byte(`{"workers":4}`))                                                                     // missing model
	f.Add([]byte(`{"model":{},"hw":"?"}`))                                                             // unresolvable profile
	f.Add([]byte(`{"model":{"family":"mlp","depth":4,"width":64,"batch":8}} {}`))                      // trailing document
	f.Add([]byte(`{"model":{"family":"mlp","depth":4,"width":64,"batch":8},"hw":"cluster-4x2x8","pipeline":{"level":2}}`))
	f.Add([]byte(`{"model":{"family":"mlp","depth":4,"width":64,"batch":8},"hw":"dgx1","pipeline":{}}`))          // auto level
	f.Add([]byte(`{"model":{"family":"mlp","depth":4,"width":64,"batch":8},"pipeline":{"level":1}}`))             // pipeline on a flat machine
	f.Add([]byte(`{"model":{"family":"mlp","depth":4,"width":64,"batch":8},"hw":"dgx1","pipeline":{"level":9}}`)) // level out of range
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := service.ParseRequest(data)
		if err != nil {
			return
		}
		d1, err := r.Digest()
		if err != nil {
			t.Fatalf("accepted request has no digest: %v", err)
		}
		if !strings.HasPrefix(d1, "sha256:") || len(d1) != len("sha256:")+64 {
			t.Fatalf("malformed digest %q", d1)
		}
		r2, err := r.Normalize()
		if err != nil {
			t.Fatalf("normalized request fails to re-normalize: %v", err)
		}
		d2, err := r2.Digest()
		if err != nil {
			t.Fatalf("re-normalized request has no digest: %v", err)
		}
		if d2 != d1 {
			t.Fatalf("normalization is not idempotent: digest %s became %s", d1, d2)
		}
		out, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("accepted request does not re-marshal: %v", err)
		}
		r3, err := service.ParseRequest(out)
		if err != nil {
			t.Fatalf("re-marshaled request rejected: %v\n%s", err, out)
		}
		d3, err := r3.Digest()
		if err != nil {
			t.Fatalf("round-tripped request has no digest: %v", err)
		}
		if d3 != d1 {
			t.Fatalf("digest changed across a wire round trip: %s became %s", d1, d3)
		}
	})
}
