package service

import (
	"strings"
	"testing"

	"tofu/internal/models"
)

// TestDigestStabilityWithoutPipeline pins pre-pipeline request digests
// byte-for-byte: the pipeline field is omitempty in the digest form, so
// every request that does not set it must hash exactly as it did before the
// field existed. These constants were produced by the digest code before
// the pipeline field was added — do not regenerate them from the current
// code, that would defeat the test.
func TestDigestStabilityWithoutPipeline(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{
			"mlp-default",
			Request{Model: models.Config{Family: "mlp", Depth: 4, Width: 256, Batch: 64}, Workers: 8},
			"sha256:745c90a23da7441cd5a75306dbe4207b025d428b21979b61b3b8ca252163c8ed",
		},
		{
			"rnn-cluster",
			Request{Model: models.Config{Family: "rnn", Depth: 2, Width: 1500, Batch: 64}, HW: "cluster-2x8"},
			"sha256:bca5a796d0506600e78f428234556a4d50ce394a058553b8be6c3b3d21927ab9",
		},
		{
			"transformer-dgx1",
			Request{Model: models.Config{Family: "transformer", Depth: 2, Width: 1024, Batch: 16}, HW: "dgx1"},
			"sha256:d73e5e0091a6430d29aecb66a9200685a592e33eed1232bcc5a1b8c22191ff1e",
		},
	}
	for _, c := range cases {
		d, err := c.req.Digest()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if d != c.want {
			t.Errorf("%s: digest drifted: got %s, pinned %s", c.name, d, c.want)
		}
	}
}

// TestPipelineDigest checks the pipeline field is plan-relevant content:
// present-vs-absent and each distinct level must all digest differently,
// while plan-irrelevant variations (parsing the same request from the wire)
// digest identically.
func TestPipelineDigest(t *testing.T) {
	base := Request{
		Model: models.Config{Family: "mlp", Depth: 4, Width: 256, Batch: 64},
		HW:    "cluster-4x2x8",
	}
	plain, err := base.Digest()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{"": plain}
	for _, lv := range []int{0, 1, 2} {
		r := base
		r.Pipeline = &PipelineRequest{Level: lv}
		d, err := r.Digest()
		if err != nil {
			t.Fatalf("level %d: %v", lv, err)
		}
		for name, prev := range seen {
			if d == prev {
				t.Errorf("level %d digest collides with %q", lv, name)
			}
		}
		seen[string(rune('0'+lv))] = d
	}
	// The same pipeline request given over the wire digests identically.
	wire := `{"model":{"family":"mlp","depth":4,"width":256,"batch":64},"hw":"cluster-4x2x8","pipeline":{"level":2}}`
	r, err := ParseRequest([]byte(wire))
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.Digest()
	if err != nil {
		t.Fatal(err)
	}
	want := base
	want.Pipeline = &PipelineRequest{Level: 2}
	wd, err := want.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d != wd {
		t.Errorf("wire digest %s != struct digest %s", d, wd)
	}
}

// TestPipelineRequestValidation covers the pipeline-specific Normalize
// errors and the options mapping.
func TestPipelineRequestValidation(t *testing.T) {
	model := models.Config{Family: "mlp", Depth: 4, Width: 256, Batch: 64}
	for name, c := range map[string]struct {
		req  Request
		frag string
	}{
		"flat-machine": {
			Request{Model: model, Pipeline: &PipelineRequest{Level: 1}},
			"hierarchical",
		},
		"flat-profile": {
			Request{Model: model, HW: "p2.8xlarge", Pipeline: &PipelineRequest{Level: 1}},
			"hierarchical",
		},
		"level-out-of-range": {
			Request{Model: model, HW: "dgx1", Pipeline: &PipelineRequest{Level: 2}},
			"out of range",
		},
		"negative-level": {
			Request{Model: model, HW: "dgx1", Pipeline: &PipelineRequest{Level: -1}},
			"out of range",
		},
		"with-factors": {
			Request{Model: model, HW: "dgx1", Factors: []int64{2, 2, 2}, Pipeline: &PipelineRequest{}},
			"compose",
		},
		"with-naive": {
			Request{Model: model, HW: "dgx1", TopologyNaive: true, Pipeline: &PipelineRequest{}},
			"compose",
		},
	} {
		_, err := c.req.Normalize()
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: got %v, want error containing %q", name, err, c.frag)
		}
	}
	ok := Request{Model: model, HW: "cluster-4x2x8", Pipeline: &PipelineRequest{Level: 2}}
	nr, err := ok.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	opts := nr.PipelineOptions()
	if opts.Pipeline == nil || opts.Pipeline.Level != 2 {
		t.Fatalf("pipeline spec not mapped: %+v", opts.Pipeline)
	}
	if opts.Pipeline.MicroBatches != 0 {
		t.Fatalf("wire request set the simulation knob: %+v", opts.Pipeline)
	}
}
