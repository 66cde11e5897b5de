package tofu_test

import (
	"bytes"
	"strings"
	"testing"

	"tofu"
	"tofu/internal/obs"
)

// traceCases are the benchmark searches the trace-determinism tests sweep:
// flat DP, topology-aware ordering search on three machines (the RNN's prunes
// branch-and-bound nodes on dgx1 and cluster-2x8), and the joint pipeline
// search — every traced subsystem.
var traceCases = []struct {
	name     string
	cfg      tofu.ModelConfig
	hw       string // "" = default flat machine
	pipeline bool
}{
	{"mlp-flat", tofu.ModelConfig{Family: "mlp", Depth: 4, Width: 512, Batch: 64}, "", false},
	{"rnn-flat", tofu.ModelConfig{Family: "rnn", Depth: 2, Width: 1024, Batch: 64}, "", false},
	{"wresnet-flat", tofu.ModelConfig{Family: "wresnet", Depth: 50, Width: 2, Batch: 8}, "", false},
	{"mlp-topo", tofu.ModelConfig{Family: "mlp", Depth: 4, Width: 1024, Batch: 16}, "cluster-2x8", false},
	{"rnn-topo-dgx1", tofu.ModelConfig{Family: "rnn", Depth: 2, Width: 1500, Batch: 64}, "dgx1", false},
	{"rnn-topo-cluster", tofu.ModelConfig{Family: "rnn", Depth: 2, Width: 1500, Batch: 64}, "cluster-2x8", false},
	{"mlp-pipeline", tofu.ModelConfig{Family: "mlp", Depth: 4, Width: 256, Batch: 64}, "cluster-4x2x8", true},
}

func tracePlanBytes(t *testing.T, tc struct {
	name     string
	cfg      tofu.ModelConfig
	hw       string
	pipeline bool
}, parallelism int, root *tofu.TraceSpan) []byte {
	t.Helper()
	m, err := tofu.BuildModel(tc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := tofu.DefaultPipelineOptions()
	opts.Search.Parallelism = parallelism
	opts.Trace = root
	workers := int64(8)
	if tc.hw != "" {
		topo, err := tofu.TopologyProfile(tc.hw)
		if err != nil {
			t.Fatal(err)
		}
		opts.Topology = &topo
		workers = int64(topo.NumGPUs())
	}
	if tc.pipeline {
		opts.Pipeline = &tofu.PipelineSpec{}
	}
	s, err := tofu.PartitionWithOptions(m.G, workers, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Plan.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTracedPlansByteIdentical is the tentpole invariant: turning tracing
// on must not perturb a single plan byte, at any search parallelism.
func TestTracedPlansByteIdentical(t *testing.T) {
	for _, tc := range traceCases {
		t.Run(tc.name, func(t *testing.T) {
			for _, par := range []int{1, 2, 8} {
				baseline := tracePlanBytes(t, tc, par, nil)
				root := tofu.NewTraceSpan("test")
				traced := tracePlanBytes(t, tc, par, root)
				root.End()
				if !bytes.Equal(baseline, traced) {
					t.Fatalf("par %d: traced plan bytes differ from untraced", par)
				}
				if root.SpanCount() < 2 {
					t.Fatalf("par %d: trace recorded only %d spans", par, root.SpanCount())
				}
			}
		})
	}
}

// TestTraceStructureDeterministic checks the span tree's shape — names,
// parent edges, sibling order, counts; never timestamps — is identical
// across runs and across search parallelism: the serial structure again at
// 1, 2, 4 and 8, the same contract SearchStats has.
func TestTraceStructureDeterministic(t *testing.T) {
	for _, tc := range traceCases {
		t.Run(tc.name, func(t *testing.T) {
			r1 := tofu.NewTraceSpan("test")
			tracePlanBytes(t, tc, 1, r1)
			r1.End()
			for _, par := range []int{1, 2, 4, 8} {
				r2 := tofu.NewTraceSpan("test")
				tracePlanBytes(t, tc, par, r2)
				r2.End()
				if s1, s2 := r1.Structure(), r2.Structure(); s1 != s2 {
					t.Fatalf("span structure at parallelism %d differs from the serial run's:\n%s\nvs\n%s", par, s1, s2)
				}
			}
			// The op coarsens its graph once, whichever engine searches it
			// (pipeline segments coarsen their own subgraphs further down).
			coarsens := 0
			for _, c := range r1.Children() {
				if c.Name() == "coarsen" {
					coarsens++
				}
			}
			if coarsens != 1 {
				t.Fatalf("%d top-level coarsen spans, want exactly 1:\n%s", coarsens, r1.Structure())
			}
		})
	}
}

// TestTimelineExportRoundTrip simulates with a timeline, exports Chrome
// trace JSON, and re-reads it with the strict reader: the export must be
// byte-deterministic (virtual clocks only) and structurally valid.
func TestTimelineExportRoundTrip(t *testing.T) {
	m, err := tofu.MLP(4, 512, 64)
	if err != nil {
		t.Fatal(err)
	}
	opts := tofu.DefaultPipelineOptions()
	root := tofu.NewTraceSpan("test")
	opts.Trace = root
	s, err := tofu.PartitionWithOptions(m.G, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	tl := tofu.NewTimeline()
	res := tofu.Simulate(s, m.Batch, opts, tl)
	plain := tofu.Simulate(s, m.Batch, opts, nil)
	if res != plain {
		t.Fatalf("timeline recording changed the priced result: %+v vs %+v", res, plain)
	}
	root.End()

	var b1, b2 bytes.Buffer
	if err := tofu.WriteChromeTrace(&b1, root, tl); err != nil {
		t.Fatal(err)
	}
	if err := tofu.WriteChromeTrace(&b2, root, tl); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("chrome trace export is not byte-deterministic")
	}

	tr, err := obs.ReadChromeTrace(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatalf("strict reader rejected our own export: %v", err)
	}
	if n := tr.SimEventCount(); n == 0 {
		t.Fatal("export carries no simulated-timeline events")
	}
	foundCompute := false
	for _, l := range tr.SimLanes() {
		if l == "w0/compute" {
			foundCompute = true
		}
	}
	if !foundCompute {
		t.Fatalf("timeline lanes %v missing w0/compute", tr.SimLanes())
	}
	names := strings.Join(tr.SpanNames(), " ")
	for _, want := range []string{"coarsen", "dp.solve", "dp.pricing"} {
		if !strings.Contains(names, want) {
			t.Fatalf("span names %q missing %q", names, want)
		}
	}
}
