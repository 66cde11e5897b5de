package hybrid_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"tofu/internal/cancel"
	"tofu/internal/coarsen"
	"tofu/internal/graph"
	"tofu/internal/hybrid"
	"tofu/internal/models"
	"tofu/internal/obs"
	"tofu/internal/plan"
	"tofu/internal/recursive"
	"tofu/internal/shape"
	"tofu/internal/topo"
)

// diffCases are the differential-test profiles: every hierarchical shape the
// repo ships (2-, 3- and 4-level), with the model sized so the exhaustive
// oracle stays tractable (boundary sets = C(L-1, S-1)).
var diffCases = []struct {
	prof  string
	cfg   models.Config
	level int // 0 = auto
}{
	{"dgx1", models.Config{Family: "mlp", Depth: 4, Width: 256, Batch: 64}, 0},
	{"cluster-2x8", models.Config{Family: "mlp", Depth: 4, Width: 256, Batch: 64}, 0},
	{"cluster-4x2x8", models.Config{Family: "mlp", Depth: 4, Width: 256, Batch: 64}, 0},
	{"cluster-2x4x2x12", models.Config{Family: "mlp", Depth: 4, Width: 384, Batch: 48}, 2},
}

func planBytes(t *testing.T, p *plan.Plan) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatalf("serializing plan: %v", err)
	}
	return buf.Bytes()
}

// TestHybridMatchesOracle is the tentpole differential test: on every
// profile the branch-and-bound joint search must return the level, cost bits,
// stage groups and stage plans of pipelineReference — every boundary set,
// each segment searched directly, no memo and no bound — at Parallelism 1, 2
// and 8, with byte-identical plans at each. At level 0 the reference's pick
// is the innermost cheapest level.
func TestHybridMatchesOracle(t *testing.T) {
	for _, c := range diffCases {
		tp, err := topo.Profile(c.prof)
		if err != nil {
			t.Fatal(err)
		}
		m, err := models.Build(c.cfg)
		if err != nil {
			t.Fatalf("building %s: %v", c.cfg, err)
		}
		root, err := recursive.Coarsen(m.G, nil)
		if err != nil {
			t.Fatal(err)
		}
		xb := handoffs(root)
		refs, _, _ := pipelineReference(t, root, tp, xb)
		var want *pipelineRef
		for i, r := range refs {
			if (c.level == 0 || r.level == c.level) && (want == nil || r.cost < want.cost) {
				want = &refs[i]
			}
		}
		if want == nil || math.IsInf(want.cost, 1) {
			t.Fatalf("%s: the reference finds no feasible pipeline", c.prof)
		}
		var first []byte
		for _, par := range []int{1, 2, 8} {
			res, err := hybrid.PartitionCoarse(root, int64(tp.NumGPUs()), hybrid.Options{
				Topology: &tp, Level: c.level, Parallelism: par,
			})
			comparePipeline(t, fmt.Sprintf("%s par %d", c.prof, par), root, res, err, want, xb)
			if got := planBytes(t, res.Plan); first == nil {
				first = got
			} else if !bytes.Equal(got, first) {
				t.Errorf("%s par %d: plan bytes differ from parallelism 1's", c.prof, par)
			}
		}
	}
}

// infeasibleRef is the error a search that finds nothing feasible on tp
// reports, built from pipelineReference's reasons.
func infeasibleRef(t *testing.T, g *graph.Graph, tp topo.Topology) string {
	t.Helper()
	root, err := recursive.Coarsen(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	refs, _, reasons := pipelineReference(t, root, tp, handoffs(root))
	for _, r := range refs {
		if !math.IsInf(r.cost, 1) {
			t.Fatalf("the reference finds a feasible pipeline at level %d", r.level)
		}
	}
	return fmt.Sprintf("hybrid: no feasible stage assignment on topology %q:\n  %s", tp.Name, strings.Join(reasons, "\n  "))
}

// levelAttrs runs fn under a trace and returns each "hybrid.level" span's
// attributes, in level order.
func levelAttrs(fn func(trace *obs.Span)) []map[string]string {
	root := obs.NewSpan("test")
	fn(root)
	var out []map[string]string
	for _, sp := range root.Children() {
		if sp.Name() != "hybrid.level" {
			continue
		}
		attrs := make(map[string]string)
		for _, a := range sp.Attrs() {
			attrs[a.Key] = a.Val
		}
		out = append(out, attrs)
	}
	return out
}

// TestHybridPruningFloor enforces the search-effort gates in-tree. The PR 8
// floor: the segment memo plus branch-and-bound must run >= 10x fewer DP
// steps (swept or replayed) than exhaustive boundary enumeration would. The
// lazy shortest-path ceilings: on the four cold-hybrid benchmark cases the
// search fills no more segments, runs no more segment searches, DP steps and
// DP sweeps and expands no more tree nodes than it did when the ceilings
// were recorded (effort is
// deterministic, so any rise is a change of policy, not noise), and a level
// an earlier level's best cuts fills nothing. The level spans' segments and
// segment_hits add up to the slots filled: the structural memo changes how a
// slot is filled, never which.
func TestHybridPruningFloor(t *testing.T) {
	cases := []struct {
		prof     string
		cfg      models.Config
		level    int
		filled   int64 // ceilings; 0 = not pinned
		segments int64
		steps    int64 // DP steps, swept or replayed
		dpSolves int64 // the sweeps among them
		expanded int64
	}{
		{"cluster-4x2x8", models.Config{Family: "mlp", Depth: 4, Width: 256, Batch: 64}, 0, 0, 0, 0, 0, 0},
		{"cluster-2x4x2x12", models.Config{Family: "mlp", Depth: 4, Width: 384, Batch: 48}, 2, 0, 0, 0, 0, 0},
		// bench/workloads/cold-hybrid.json; the balanced seed and static
		// floors before the lazy search solved 114/493/245/10 segments and
		// expanded 2087/95725/376/1 nodes. Before the structural memo every
		// filled slot was a search: 78/312/28/8 segments, 1014/936/90/24
		// dp.Solve calls. Before the step memo every step swept.
		{"cluster-2x4x2x12", models.Config{Family: "mlp", Depth: 4, Width: 384, Batch: 48}, 0, 78, 34, 442, 68, 43},
		{"cluster-4x2x8", models.Config{Family: "mlp", Depth: 8, Width: 256, Batch: 64}, 0, 312, 82, 246, 82, 151},
		{"cluster-4x2x8", models.Config{Family: "rnn", Depth: 2, Width: 1024, Batch: 64}, 0, 28, 27, 87, 27, 10},
		{"cluster-2x8", models.Config{Family: "transformer", Depth: 2, Width: 1024, Batch: 64}, 0, 8, 8, 24, 8, 1},
	}
	skipped := 0
	for _, c := range cases {
		tp, err := topo.Profile(c.prof)
		if err != nil {
			t.Fatal(err)
		}
		m, err := models.Build(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var st hybrid.Stats
		levels := levelAttrs(func(trace *obs.Span) {
			_, err = hybrid.Partition(m.G, int64(tp.NumGPUs()), hybrid.Options{
				Topology: &tp, Level: c.level, Parallelism: 1, Stats: &st, Trace: trace,
			})
		})
		if err != nil {
			t.Fatalf("%s: %v", c.prof, err)
		}
		steps := st.DPSolves + st.Replays
		if steps*10 > st.FlatDPSolves {
			t.Errorf("%s %s: %d dp steps vs %d flat — below the 10x floor",
				c.prof, c.cfg, steps, st.FlatDPSolves)
		}
		if st.Pruned == 0 {
			t.Errorf("%s %s: branch-and-bound pruned nothing", c.prof, c.cfg)
		}
		var segments, hits int64
		for _, attrs := range levels {
			if attrs["seed_rounds"] == "" {
				continue // a level with more stages than groups never runs
			}
			n, errN := strconv.ParseInt(attrs["segments"], 10, 64)
			h, errH := strconv.ParseInt(attrs["segment_hits"], 10, 64)
			if errN != nil || errH != nil {
				t.Fatalf("%s %s: level span without segments/segment_hits: %v", c.prof, c.cfg, attrs)
			}
			segments, hits = segments+n, hits+h
			if attrs["skipped"] == "" {
				continue
			}
			skipped++
			if n != 0 || h != 0 || attrs["seed_rounds"] != "0" {
				t.Errorf("%s %s: level %s was cut by an earlier level's best yet ran %s seed rounds, solved %d segments and hit %d",
					c.prof, c.cfg, attrs["level"], attrs["seed_rounds"], n, h)
			}
		}
		if segments != st.Segments {
			t.Errorf("%s %s: level spans count %d segments, Stats %d", c.prof, c.cfg, segments, st.Segments)
		}
		t.Logf("%s %s: %d slots filled, %d searched, %d memo hits, %d dp solves (%d more replayed), %d nodes expanded",
			c.prof, c.cfg, segments+hits, st.Segments, hits, st.DPSolves, st.Replays, st.Expanded)
		if c.filled > 0 && (segments+hits > c.filled || st.Segments > c.segments ||
			steps > c.steps || st.DPSolves > c.dpSolves || st.Expanded > c.expanded) {
			t.Errorf("%s %s: %d slots filled, %d segments searched, %d dp steps, %d swept, %d nodes expanded; ceilings %d, %d, %d, %d and %d",
				c.prof, c.cfg, segments+hits, st.Segments, steps, st.DPSolves, st.Expanded,
				c.filled, c.segments, c.steps, c.dpSolves, c.expanded)
		}
	}
	if skipped == 0 {
		t.Error("no case had a level cut by an earlier level's best")
	}
}

// TestHybridPlanRoundTrip checks the stage-annotated export survives the
// validating reader and re-serializes byte-identically.
func TestHybridPlanRoundTrip(t *testing.T) {
	tp, err := topo.Profile("cluster-2x8")
	if err != nil {
		t.Fatal(err)
	}
	m, err := models.Build(models.Config{Family: "mlp", Depth: 4, Width: 256, Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	res, err := hybrid.Partition(m.G, int64(tp.NumGPUs()), hybrid.Options{Topology: &tp, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := planBytes(t, res.Plan)
	ex, err := plan.ReadJSON(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("stage-annotated plan rejected by reader: %v", err)
	}
	if ex.Pipeline == nil || len(ex.Pipeline.Stages) != len(res.Stages) {
		t.Fatalf("pipeline descriptor lost in round trip: %+v", ex.Pipeline)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(ex); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Error("stage-annotated plan changed across a read/write round trip")
	}
}

// TestHybridStageInvariants checks the combined plan's structure: steps
// grouped by nondecreasing stage with per-stage multiplier chains, a
// contiguous stage cover, equal stage sub-machines, and a zero hand-off on
// the last stage.
func TestHybridStageInvariants(t *testing.T) {
	tp, err := topo.Profile("cluster-4x2x8")
	if err != nil {
		t.Fatal(err)
	}
	m, err := models.Build(models.Config{Family: "mlp", Depth: 4, Width: 256, Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	res, err := hybrid.Partition(m.G, int64(tp.NumGPUs()), hybrid.Options{Topology: &tp, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Plan
	if p.K != int64(tp.NumGPUs()) {
		t.Errorf("combined plan K = %d, want %d", p.K, tp.NumGPUs())
	}
	if p.Pipeline == nil {
		t.Fatal("combined plan has no pipeline descriptor")
	}
	if p.Pipeline.Level != res.Level {
		t.Errorf("descriptor level %d, result level %d", p.Pipeline.Level, res.Level)
	}
	prevHi := 0
	for si, st := range p.Pipeline.Stages {
		if st.Groups[0] != prevHi {
			t.Errorf("stage %d groups start at %d, want %d", si, st.Groups[0], prevHi)
		}
		prevHi = st.Groups[1]
		if st.Workers != res.Stages[si].Workers {
			t.Errorf("stage %d: descriptor workers %d, stage workers %d", si, st.Workers, res.Stages[si].Workers)
		}
		if got := res.Stages[si]; got.Sharded == nil || got.Plan == nil || got.G == nil {
			t.Fatalf("stage %d missing execution structures", si)
		}
	}
	if last := p.Pipeline.Stages[len(p.Pipeline.Stages)-1]; last.HandoffBytes != 0 {
		t.Errorf("last stage hands off %g bytes", last.HandoffBytes)
	}
	stage, prod := 0, int64(1)
	for i, s := range p.Steps {
		if s.Stage < stage {
			t.Fatalf("step %d: stage %d after stage %d", i, s.Stage, stage)
		}
		if s.Stage > stage {
			stage, prod = s.Stage, 1
		}
		if s.Multiplier != prod {
			t.Errorf("step %d: multiplier %d, want %d (stage %d restart)", i, s.Multiplier, prod, stage)
		}
		prod *= s.K
	}
	if len(p.FinalShapes) == 0 {
		t.Error("combined plan has no final shapes")
	}
}

// TestHybridInfeasible covers the error paths: more stages than pipeline
// groups, flat machines, worker mismatches and out-of-range levels.
func TestHybridInfeasible(t *testing.T) {
	m, err := models.Build(models.Config{Family: "mlp", Depth: 4, Width: 384, Batch: 48})
	if err != nil {
		t.Fatal(err)
	}
	deep, err := topo.Profile("cluster-2x4x2x12")
	if err != nil {
		t.Fatal(err)
	}
	// Level 1 wants 16 stages; mlp-4 coarsens to 15 groups.
	if _, err := hybrid.Partition(m.G, int64(deep.NumGPUs()), hybrid.Options{
		Topology: &deep, Level: 1, Parallelism: 1,
	}); err == nil || !strings.Contains(err.Error(), "stages exceed") {
		t.Errorf("oversubscribed level: got %v", err)
	}
	if _, err := hybrid.Partition(m.G, int64(deep.NumGPUs()), hybrid.Options{
		Topology: &deep, Level: len(deep.Levels), Parallelism: 1,
	}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range level: got %v", err)
	}
	if _, err := hybrid.Partition(m.G, int64(deep.NumGPUs())*2, hybrid.Options{
		Topology: &deep, Parallelism: 1,
	}); err == nil || !strings.Contains(err.Error(), "want") {
		t.Errorf("worker mismatch: got %v", err)
	}
	flat, err := topo.Profile("p2.8xlarge")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hybrid.Partition(m.G, int64(flat.NumGPUs()), hybrid.Options{
		Topology: &flat, Parallelism: 1,
	}); err == nil || !strings.Contains(err.Error(), "flat") {
		t.Errorf("flat machine: got %v", err)
	}
	if _, err := hybrid.Partition(m.G, int64(deep.NumGPUs()), hybrid.Options{Parallelism: 1}); err == nil {
		t.Error("nil topology accepted")
	}
	// Nothing splits: every candidate level fails, and the pruned search must
	// still report every distinct reason the exhaustive walk of
	// pipelineReference finds — one per failing segment and sub-machine, not
	// just the first it met.
	odd, err := models.Build(models.Config{Family: "mlp", Depth: 4, Width: 63, Batch: 63})
	if err != nil {
		t.Fatal(err)
	}
	mid, err := topo.Profile("cluster-4x2x8")
	if err != nil {
		t.Fatal(err)
	}
	_, got := hybrid.Partition(odd.G, int64(mid.NumGPUs()), hybrid.Options{Topology: &mid, Parallelism: 1})
	want := infeasibleRef(t, odd.G, mid)
	if got == nil || got.Error() != want {
		t.Errorf("indivisible model: search reports\n%v\nexhaustive walk reports\n%v", got, want)
	} else if n := strings.Count(want, "\n"); n < 10 ||
		!strings.Contains(want, "on 8 GPUs") || !strings.Contains(want, "on 16 GPUs") {
		t.Errorf("indivisible model: %d reasons, want at least 10 across both stage sub-machines:\n%v", n, want)
	}
}

// TestHybridStagePlansMatchExtraction: a stage plan is materialized on its
// segment view, in the whole graph's IDs. Gathered into an extraction of the
// stage (extractStage), it must be exactly what materializing the stage's
// decisions on the extracted graph's own coarsening gives: the same JSON
// bytes (every step's tensor cuts, strategies and itemized communication)
// and the same final shapes.
func TestHybridStagePlansMatchExtraction(t *testing.T) {
	for _, c := range diffCases {
		tp, err := topo.Profile(c.prof)
		if err != nil {
			t.Fatal(err)
		}
		m, err := models.Build(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		root, err := recursive.Coarsen(m.G, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := hybrid.PartitionCoarse(root, int64(tp.NumGPUs()), hybrid.Options{Topology: &tp, Level: c.level, Parallelism: 1})
		if err != nil {
			t.Fatalf("%s: %v", c.prof, err)
		}
		for si, stg := range res.Stages {
			sub, got := extractStage(t, root, stg)
			co, err := coarsen.Coarsen(sub.G)
			if err != nil {
				t.Fatal(err)
			}
			want := *got
			want.FinalShapes, want.Steps = nil, make([]*plan.Step, len(got.Steps))
			for i, st := range got.Steps {
				want.Steps[i] = &plan.Step{K: st.K, Multiplier: st.Multiplier, VarCut: st.VarCut, CommBytes: st.CommBytes,
					Level: st.Level, States: st.States, Configs: st.Configs}
			}
			if err := recursive.Materialize(co, &want, recursive.Options{Parallelism: 1}); err != nil {
				t.Fatalf("%s stage %d: %v", c.prof, si, err)
			}
			if !bytes.Equal(planBytes(t, got), planBytes(t, &want)) {
				t.Errorf("%s stage %d: the stage plan differs from its extraction's materialization", c.prof, si)
			}
			if len(got.FinalShapes) != len(want.FinalShapes) || len(stg.Plan.FinalShapes) != len(want.FinalShapes) {
				t.Fatalf("%s stage %d: %d final shapes (%d gathered), want %d", c.prof, si,
					len(stg.Plan.FinalShapes), len(got.FinalShapes), len(want.FinalShapes))
			}
			for tid, s := range want.FinalShapes {
				if !got.FinalShapes[tid].Equal(s) {
					t.Errorf("%s stage %d: tensor %d ends at %v, want %v", c.prof, si, sub.TensorID[tid], got.FinalShapes[tid], s)
				}
			}
		}
	}
}

// TestHybridInfeasibleNamesRootTensors: pipeline segments are coarsened as
// views of the whole graph, so an infeasibility reason cites the whole
// graph's tensors. In a six-layer chain whose fourth weight is 63×63, every
// two-stage pipeline on 2×8 GPUs has a stage that cannot halve it. Every
// tensor the reasons cite is the graph's tensor of that ID — same name, same
// shape as reported — and splits along none of its dimensions the reported
// number of ways, also in segments that do not start at group 0, where an
// extracted subgraph would have numbered its tensors differently. The pruned
// search reports the reasons of pipelineReference's exhaustive walk.
func TestHybridInfeasibleNamesRootTensors(t *testing.T) {
	g := graph.New()
	h := g.Input("x", shape.Of(64, 64))
	for l, w := range []shape.Shape{shape.Of(64, 64), shape.Of(64, 64), shape.Of(64, 63), shape.Of(63, 63),
		shape.Of(63, 64), shape.Of(64, 64)} {
		h = g.Apply("relu", nil, g.Apply("matmul", nil, h, g.Weight(fmt.Sprintf("w%d", l), w)))
	}
	tp, err := topo.Profile("cluster-2x8")
	if err != nil {
		t.Fatal(err)
	}
	k := int64(tp.NumGPUs())
	_, got := hybrid.Partition(g, k, hybrid.Options{Topology: &tp, Parallelism: 1})
	want := infeasibleRef(t, g, tp)
	if got == nil || got.Error() != want {
		t.Fatalf("search reports\n%v\nexhaustive walk reports\n%v", got, want)
	}
	segment := regexp.MustCompile(`^  groups \[(\d+),\d+\) on \d+ GPUs: `)
	cite := regexp.MustCompile(`\(tensor (\S+#(\d+))\) shape (\S+) has no dimension divisible by (\d+)`)
	lo, cited, inner := -1, 0, 0
	// A segment's reason starts a line; an ordering search's joined reasons
	// continue it on the lines below.
	for _, line := range strings.Split(want, "\n")[1:] {
		if m := segment.FindStringSubmatch(line); m != nil {
			lo, _ = strconv.Atoi(m[1])
		}
		for _, m := range cite.FindAllStringSubmatch(line, -1) {
			id, _ := strconv.Atoi(m[2])
			ways, _ := strconv.ParseInt(m[4], 10, 64)
			if id >= len(g.Tensors) {
				t.Fatalf("reason cites tensor %d of a %d-tensor graph: %s", id, len(g.Tensors), line)
			}
			ten := g.Tensors[id]
			if ten.String() != m[1] || ten.Shape.String() != m[3] {
				t.Fatalf("reason cites %s at shape %s, the graph's tensor %d is %v: %s", m[1], m[3], id, ten, line)
			}
			for d := 0; d < ten.Shape.Rank(); d++ {
				if ten.Shape.CanSplit(d, ways) {
					t.Fatalf("reason says %v splits along no dimension %d ways, dimension %d does: %s", ten, ways, d, line)
				}
			}
			cited++
			if lo > 0 {
				inner++
			}
		}
	}
	if cited == 0 || inner == 0 {
		t.Fatalf("%d reasons cite a tensor, %d of them in a segment past group 0:\n%v", cited, inner, want)
	}
}

// TestHybridCancelledIncumbentIsComplete: a boundary walk stopped after its
// first incumbent ships that incumbent as a complete plan. The segment memo
// holds cost-only plans, so everything a consumer reads — every stage step's
// dense tables, the stages' final shapes, the execution structures — is
// filled by assemble after the token has tripped, and must not depend on it.
func TestHybridCancelledIncumbentIsComplete(t *testing.T) {
	for _, prof := range []string{"cluster-2x8", "cluster-4x2x8"} {
		tp, err := topo.Profile(prof)
		if err != nil {
			t.Fatal(err)
		}
		m, err := models.Build(models.Config{Family: "mlp", Depth: 4, Width: 256, Batch: 64})
		if err != nil {
			t.Fatal(err)
		}
		k := int64(tp.NumGPUs())
		// Walk the poll budget up to the first run that neither fails for
		// want of an incumbent nor finishes: the walk died right after its
		// first incumbent.
		var res *hybrid.Result
		for polls := int64(1); res == nil; polls += 1 + polls/8 {
			got, err := hybrid.Partition(m.G, k, hybrid.Options{
				Topology: &tp, Parallelism: 1, Cancel: cancel.AfterPolls(polls),
			})
			switch {
			case err != nil && !cancel.IsCancellation(err):
				t.Fatalf("%s polls=%d: %v", prof, polls, err)
			case err != nil:
			case !got.Plan.Degraded:
				t.Fatalf("%s: no poll budget below %d left a degraded incumbent", prof, polls)
			default:
				res = got
			}
		}
		checkCompletePlan(t, prof, m.G, res)
	}
}

// checkCompletePlan asserts a degraded result of partitioning g is a whole
// plan: every stage has an execution structure, and its plan, gathered into
// an extraction of the stage, final shapes and dense per-step tables for
// every tensor and node of the extraction; the combined plan verifies and
// reads back.
func checkCompletePlan(t *testing.T, prof string, g *graph.Graph, res *hybrid.Result) {
	t.Helper()
	if len(res.Stages) < 2 {
		t.Fatalf("%s: degraded plan has %d stages", prof, len(res.Stages))
	}
	root, err := recursive.Coarsen(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	for si, stg := range res.Stages {
		sub, p := extractStage(t, root, stg)
		if stg.Sharded == nil || len(p.FinalShapes) != len(sub.G.Tensors) {
			t.Fatalf("%s stage %d: no execution structure or %d final shapes for %d tensors",
				prof, si, len(p.FinalShapes), len(sub.G.Tensors))
		}
		prod := int64(1)
		for i, st := range stg.Plan.Steps {
			if len(st.TensorCut) != len(g.Tensors) || len(st.OpStrategy) != len(g.Nodes) || len(st.OpComm) != len(g.Nodes) {
				t.Fatalf("%s stage %d step %d: dense tables (%d, %d, %d) for %d tensors and %d nodes", prof, si, i+1,
					len(st.TensorCut), len(st.OpStrategy), len(st.OpComm), len(g.Tensors), len(g.Nodes))
			}
			for _, n := range sub.G.Nodes {
				if p.Steps[i].OpStrategy[n.ID].Axis == "" {
					t.Fatalf("%s stage %d step %d: node %v has no strategy", prof, si, i+1, n)
				}
			}
			prod *= st.K
		}
		if prod != stg.Workers {
			t.Fatalf("%s stage %d: steps divide %d ways, stage has %d workers", prof, si, prod, stg.Workers)
		}
	}
	raw := planBytes(t, res.Plan)
	if _, err := plan.Verify(raw, ""); err != nil {
		t.Fatalf("%s: degraded plan does not verify: %v", prof, err)
	}
	back, err := plan.ReadJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("%s: degraded plan does not read back: %v", prof, err)
	}
	if !back.Degraded || len(back.Steps) != len(res.Plan.Steps) {
		t.Fatalf("%s: read back degraded=%v with %d steps, wrote %d", prof, back.Degraded, len(back.Steps), len(res.Plan.Steps))
	}
}

// TestHybridCancelledInsideSeed trips the token inside the seed loop — in its
// first round, a middle one and its last — on a model whose innermost level
// needs four. Once a round has finished the answer is the best finished
// round's boundary set as a complete degraded plan, the same bytes on a second
// run with the same budget; before that it is the token's reason.
func TestHybridCancelledInsideSeed(t *testing.T) {
	tp, err := topo.Profile("cluster-4x2x8")
	if err != nil {
		t.Fatal(err)
	}
	m, err := models.Build(models.Config{Family: "rnn", Depth: 2, Width: 1024, Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	k := int64(tp.NumGPUs())
	run := func(polls int64) (res *hybrid.Result, levels []map[string]string, err error) {
		levels = levelAttrs(func(trace *obs.Span) {
			res, err = hybrid.Partition(m.G, k, hybrid.Options{
				Topology: &tp, Parallelism: 1, Cancel: cancel.AfterPolls(polls), Trace: trace,
			})
		})
		return res, levels, err
	}
	// rounds[r] counts budgets that died in the innermost level's seed loop
	// (no tree node expanded yet) during round r: seed_rounds counts rounds
	// started. Dying in round 1 leaves no incumbent and is refused.
	rounds := make(map[string]int)
	refused := 0
	for polls := int64(1); ; polls += 1 + polls/16 {
		res, levels, err := run(polls)
		if err != nil {
			if !cancel.IsCancellation(err) {
				t.Fatalf("polls=%d: %v", polls, err)
			}
			if len(levels) > 1 || (len(levels) == 1 && levels[0]["best_cost"] != "") {
				t.Fatalf("polls=%d: the token's reason came back although a seed round had finished: %v", polls, levels)
			}
			refused++
			continue
		}
		if !res.Plan.Degraded {
			break
		}
		if res.Stats.Expanded > 0 || len(levels) != 1 {
			continue // died in the walk or a later level: the older test's ground
		}
		rounds[levels[0]["seed_rounds"]]++
		checkCompletePlan(t, "cluster-4x2x8", m.G, res)
		again, _, err := run(polls)
		if err != nil || !bytes.Equal(planBytes(t, again.Plan), planBytes(t, res.Plan)) {
			t.Fatalf("polls=%d: a second run with the same budget gave a different answer (err %v)", polls, err)
		}
	}
	if refused == 0 || rounds["2"] == 0 || rounds["3"] == 0 || rounds["4"] == 0 {
		t.Errorf("sweep missed a cancellation point: %d budgets refused in round 1, seed-loop deaths by later round %v (want 2, 3 and 4)",
			refused, rounds)
	}
}

// BenchmarkPartitionCoarse times the joint search alone — PartitionCoarse on
// a coarsening made once, a fresh price cache per op — on the four
// cold-hybrid benchmark cases (bench/workloads/cold-hybrid.json) at
// Parallelism 1, so a change below core can be timed without the repository
// benchmark: go test -run '^$' -bench PartitionCoarse -cpu 1 ./internal/hybrid
func BenchmarkPartitionCoarse(b *testing.B) {
	for _, c := range []struct {
		prof string
		cfg  models.Config
	}{
		{"cluster-2x4x2x12", models.Config{Family: "mlp", Depth: 4, Width: 384, Batch: 48}},
		{"cluster-4x2x8", models.Config{Family: "mlp", Depth: 8, Width: 256, Batch: 64}},
		{"cluster-4x2x8", models.Config{Family: "rnn", Depth: 2, Width: 1024, Batch: 64}},
		{"cluster-2x8", models.Config{Family: "transformer", Depth: 2, Width: 1024, Batch: 64}},
	} {
		tp, err := topo.Profile(c.prof)
		if err != nil {
			b.Fatal(err)
		}
		m, err := models.Build(c.cfg)
		if err != nil {
			b.Fatal(err)
		}
		co, err := recursive.Coarsen(m.G, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.cfg.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := hybrid.PartitionCoarse(co, int64(tp.NumGPUs()), hybrid.Options{Topology: &tp, Parallelism: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
