package dp_test

import (
	"maps"
	"math"
	"testing"

	"tofu/internal/dp"
	"tofu/internal/hybrid"
	"tofu/internal/models"
	"tofu/internal/recursive"
	"tofu/internal/topo"
)

// TestStepMemoAudit sweeps every step the step memo replays again, on the
// step's own preparation, and compares the sweep with the replay bit for bit:
// VarCut, CommBytes, States and Configs. It runs the twelve cold benchmark
// cases (bench/workloads/cold-*.json), a grid of small models on five
// machines, and searches where the memo must miss: a batch that turns odd
// mid-chain, factor-3 against factor-2 steps, and a beam bound. Every replay a
// search reports is audited.
func TestStepMemoAudit(t *testing.T) {
	type auditCase struct {
		cfg       models.Config
		hw        string // "" = 8 flat workers
		pipeline  bool
		maxStates int
	}
	cases := []auditCase{
		{cfg: models.Config{Family: "wresnet", Depth: 50, Width: 4, Batch: 32}},
		{cfg: models.Config{Family: "wresnet", Depth: 152, Width: 10, Batch: 8}},
		{cfg: models.Config{Family: "rnn", Depth: 10, Width: 8192, Batch: 128}},
		{cfg: models.Config{Family: "transformer", Depth: 4, Width: 1024, Batch: 16}},
		{cfg: models.Config{Family: "rnn", Depth: 2, Width: 8192, Batch: 256}, hw: "cluster-8x2x8"},
		{cfg: models.Config{Family: "transformer", Depth: 2, Width: 1536, Batch: 24}, hw: "cluster-2x4x2x12"},
		{cfg: models.Config{Family: "transformer", Depth: 2, Width: 1024, Batch: 64}, hw: "cluster-4x2x8"},
		{cfg: models.Config{Family: "mlp", Depth: 3, Width: 3072, Batch: 48}, hw: "cluster-2x8x2x8"},
		{cfg: models.Config{Family: "mlp", Depth: 4, Width: 384, Batch: 48}, hw: "cluster-2x4x2x12", pipeline: true},
		{cfg: models.Config{Family: "mlp", Depth: 8, Width: 256, Batch: 64}, hw: "cluster-4x2x8", pipeline: true},
		{cfg: models.Config{Family: "rnn", Depth: 2, Width: 1024, Batch: 64}, hw: "cluster-4x2x8", pipeline: true},
		{cfg: models.Config{Family: "transformer", Depth: 2, Width: 1024, Batch: 64}, hw: "cluster-2x8", pipeline: true},
	}
	for _, hw := range []string{"dgx1", "cluster-2x8", "cluster-4x2x8", "cluster-2x4x2x12", "cluster-8x2x8"} {
		for _, cfg := range []models.Config{
			{Family: "mlp", Depth: 6, Width: 384, Batch: 96},
			{Family: "rnn", Depth: 3, Width: 384, Batch: 96},
			{Family: "transformer", Depth: 2, Width: 384, Batch: 96},
		} {
			cases = append(cases, auditCase{cfg: cfg, hw: hw})
		}
	}

	var audited int64
	var fail func(format string, args ...any)
	dp.SetReplayAudit(func(pr *dp.Prepared, replay *dp.Result) {
		audited++
		res, err := pr.Solve()
		switch {
		case err != nil:
			fail("a replayed step's own sweep fails: %v", err)
		case math.Float64bits(res.CommBytes) != math.Float64bits(replay.CommBytes):
			fail("sweep costs %v, replay %v", res.CommBytes, replay.CommBytes)
		case res.States != replay.States || res.Configs != replay.Configs:
			fail("sweep (states, configs) = (%d, %d), replay (%d, %d)", res.States, res.Configs, replay.States, replay.Configs)
		case !maps.Equal(res.VarCut, replay.VarCut):
			fail("sweep and replay cut differently")
		}
	})
	defer dp.SetReplayAudit(nil)

	// run searches one case and returns the sweeps it ran and replayed.
	run := func(c auditCase) (sweeps, replays int64) {
		t.Helper()
		m, err := models.Build(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if c.hw == "" {
			var st recursive.SearchStats
			if _, err := recursive.Partition(m.G, 8, recursive.Options{MaxStates: c.maxStates, Parallelism: 1, Stats: &st}); err != nil {
				t.Fatalf("%s: %v", c.cfg, err)
			}
			return int64(st.DPSolves), int64(st.Replays)
		}
		tp, err := topo.Profile(c.hw)
		if err != nil {
			t.Fatal(err)
		}
		k := int64(tp.NumGPUs())
		if c.pipeline {
			var st hybrid.Stats
			if _, err := hybrid.Partition(m.G, k, hybrid.Options{Topology: &tp, MaxStates: c.maxStates, Parallelism: 1, Stats: &st}); err != nil {
				t.Fatalf("%s on %s: %v", c.cfg, c.hw, err)
			}
			return st.DPSolves, st.Replays
		}
		var st recursive.SearchStats
		if _, err := recursive.Partition(m.G, k, recursive.Options{Topology: &tp, MaxStates: c.maxStates, Parallelism: 1, Stats: &st}); err != nil {
			t.Fatalf("%s on %s: %v", c.cfg, c.hw, err)
		}
		return int64(st.DPSolves), int64(st.Replays)
	}
	audit := func(c auditCase) (sweeps, replays int64) {
		t.Helper()
		fail = func(format string, args ...any) {
			t.Errorf("%s on %q (pipeline %v, max states %d): "+format,
				append([]any{c.cfg, c.hw, c.pipeline, c.maxStates}, args...)...)
		}
		before := audited
		sweeps, replays = run(c)
		if audited-before != replays {
			t.Errorf("%s on %q: %d replays reported, %d audited", c.cfg, c.hw, replays, audited-before)
		}
		t.Logf("%s on %q (pipeline %v, max states %d): %d sweeps, %d replays audited",
			c.cfg, c.hw, c.pipeline, c.maxStates, sweeps, replays)
		return sweeps, replays
	}
	for _, c := range cases {
		audit(c)
	}
	if audited == 0 {
		t.Fatal("no replay audited")
	}

	// Where the memo must miss. Batch 96 halves three times and every step
	// after the first replays it; batch 90 turns odd after the first step
	// cuts it, so the second step's alphabet changes and it sweeps.
	if sweeps, _ := audit(auditCase{cfg: models.Config{Family: "mlp", Depth: 2, Width: 16, Batch: 96}}); sweeps != 1 {
		t.Errorf("mlp-2-16@96: %d sweeps, want 1", sweeps)
	}
	if sweeps, _ := audit(auditCase{cfg: models.Config{Family: "mlp", Depth: 2, Width: 16, Batch: 90}}); sweeps < 2 {
		t.Errorf("mlp-2-16@90: %d sweeps; the step after the batch turned odd replayed", sweeps)
	}
	// A factor-3 step never replays a factor-2 sweep.
	if sweeps, _ := audit(auditCase{cfg: models.Config{Family: "mlp", Depth: 3, Width: 384, Batch: 96}, hw: "cluster-2x4x2x12"}); sweeps < 2 {
		t.Errorf("mlp-3-384@96 on cluster-2x4x2x12: %d sweeps for factors 3 and 2", sweeps)
	}
	for _, beam := range []int{4, 64} {
		audit(auditCase{cfg: models.Config{Family: "transformer", Depth: 2, Width: 384, Batch: 96}, hw: "cluster-4x2x8", maxStates: beam})
	}
}
