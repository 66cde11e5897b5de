package service_test

import (
	"bytes"
	"encoding/json"
	"math/big"
	"strings"
	"testing"
	"time"

	"tofu/internal/service"
	"tofu/internal/topo"
)

// FuzzParseRequest drives the wire-request decoder with arbitrary bytes.
// Anything it accepts is already normalized, so: normalizing again must be a
// no-op (same digest), the digest must be well-formed, and the re-marshaled
// request must parse to the same digest — the cache-key stability the
// coalescing and plan cache rest on. Accepted factors and an accepted
// machine's group sizes multiply to the worker count in exact arithmetic,
// and an accepted deadline is a time.Duration without wrapping. The bytes
// the digest hashes must equal what encoding/json writes for the digest
// form (the oracle in digest_test.go). An accepted worker count is within
// topo.MaxGPUs. Seed corpus: bare, profile-backed
// and inline-machine requests under testdata/fuzz.
func FuzzParseRequest(f *testing.F) {
	f.Add([]byte(`{"model":{"family":"mlp","depth":4,"width":64,"batch":8},"workers":4}`))
	f.Add([]byte(`{"model":{"family":"mlp","depth":4,"width":64,"batch":8},"hw":"dgx1"}`))
	f.Add([]byte(`{"model":{"family":"mlp","depth":4,"width":64,"batch":8},"hw":"dgx1","workers":4}`)) // workers/machine mismatch
	f.Add([]byte(`{"workers":4}`))                                                                     // missing model
	f.Add([]byte(`{"model":{},"hw":"?"}`))                                                             // unresolvable profile
	f.Add([]byte(`{"model":{"family":"mlp","depth":4,"width":64,"batch":8}} {}`))                      // trailing document
	f.Add([]byte(`{"model":{"family":"mlp","depth":4,"width":64,"batch":8},"hw":"cluster-4x2x8","pipeline":{"level":2}}`))
	f.Add([]byte(`{"model":{"family":"mlp","depth":4,"width":64,"batch":8},"hw":"dgx1","pipeline":{}}`))                     // auto level
	f.Add([]byte(`{"model":{"family":"mlp","depth":4,"width":64,"batch":8},"pipeline":{"level":1}}`))                        // pipeline on a flat machine
	f.Add([]byte(`{"model":{"family":"mlp","depth":4,"width":64,"batch":8},"hw":"dgx1","pipeline":{"level":9}}`))            // level out of range
	f.Add([]byte(`{"model":{"family":"mlp","depth":4,"width":64,"batch":8},"workers":8,"factors":[2305843009213693953,8]}`)) // product wraps to 8
	f.Add([]byte(`{"model":{"family":"mlp","depth":4,"width":64,"batch":8},"deadline_ms":9223372036855}`))                   // wraps time.Duration
	f.Add([]byte(`{"model":{"family":"mlp","depth":4,"width":64,"batch":8},"workers":8,"factors":[2,4]}`))
	f.Add([]byte(`{"model":{"family":"mlp","depth":4,"width":64,"batch":8},"workers":1,"factors":[]}`)) // empty factors
	f.Add([]byte(`{"model":{"family":"mlp","depth":4,"width":64,"batch":8},"hw":"dgx1","max_states":3,"topology_naive":true,"deadline_ms":7}`))
	f.Add([]byte(`{"model":{"family":"mlp","depth":4,"width":64,"batch":8},"workers":9223372036854775783}`)) // prime, beyond MaxGPUs
	f.Add([]byte(`{"model":{"family":"mlp","depth":4,"width":64,"batch":8},"topology":` + giantTopology + `}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := service.ParseRequest(data)
		if err != nil {
			return
		}
		if r.Workers < 1 || r.Workers > topo.MaxGPUs {
			t.Fatalf("accepted worker count %d outside [1, %d]", r.Workers, topo.MaxGPUs)
		}
		if r.Factors != nil {
			prod := big.NewInt(1)
			for _, f := range r.Factors {
				prod.Mul(prod, big.NewInt(f))
			}
			if prod.Cmp(big.NewInt(r.Workers)) != 0 {
				t.Fatalf("accepted factors %v multiply to %s, not %d workers", r.Factors, prod, r.Workers)
			}
		}
		if r.Topology != nil {
			prod := big.NewInt(1)
			for _, l := range r.Topology.Levels {
				prod.Mul(prod, big.NewInt(l.GroupSize))
			}
			if prod.Cmp(big.NewInt(r.Workers)) != 0 {
				t.Fatalf("accepted machine's group sizes multiply to %s, not %d workers", prod, r.Workers)
			}
		}
		if d := time.Duration(r.DeadlineMs) * time.Millisecond; d < 0 || d/time.Millisecond != time.Duration(r.DeadlineMs) {
			t.Fatalf("accepted deadline_ms %d is no time.Duration (%v)", r.DeadlineMs, d)
		}
		got, want, err := service.DigestForms(r)
		if err != nil {
			t.Fatalf("accepted request has no digest form: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("digest form differs from encoding/json:\n got %s\nwant %s", got, want)
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
