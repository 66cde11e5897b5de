package topo

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"tofu/internal/plan"
)

func TestProfilesValidate(t *testing.T) {
	for _, name := range ProfileNames() {
		tp, err := Profile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := tp.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", name, err)
		}
	}
	if _, err := Profile("nope"); err == nil {
		t.Error("unknown profile must error")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for _, name := range ProfileNames() {
		tp, err := Profile(name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tp.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTopology(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(tp, back) {
			t.Errorf("%s: round trip diverged:\n%+v\n%+v", name, tp, back)
		}
	}
}

func TestReadTopologyRejectsInvalid(t *testing.T) {
	bad := Topology{Name: "bad", HW: DefaultHW()} // no levels
	var buf bytes.Buffer
	if err := bad.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTopology(&buf); err == nil {
		t.Error("no-level topology must fail validation")
	}

	wrong := DefaultTopology()
	wrong.HW.NumGPUs = 7 // != product of group sizes
	buf.Reset()
	if err := wrong.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTopology(&buf); err == nil {
		t.Error("NumGPUs mismatch must fail validation")
	}

	// Group sizes whose product wraps int64 to NumGPUs.
	wrap := DefaultTopology()
	wrap.Levels = []Level{
		{Name: "a", GroupSize: 2305843009213693953, Bandwidth: wrap.HW.P2PBandwidth},
		{Name: "b", GroupSize: 8, Bandwidth: 1e9, Network: true},
	}
	if err := wrap.Validate(); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Errorf("wrapping group-size product: err = %v, want an overflow error", err)
	}
}

func TestFlatViewMatchesDefaultHW(t *testing.T) {
	tp := DefaultTopology()
	if got, want := tp.Flat(), DefaultHW(); got != want {
		t.Fatalf("default topology flat view diverged:\n%+v\n%+v", got, want)
	}
	if tp.Hierarchical() {
		t.Fatal("default profile must be flat")
	}
	if tp.NumGPUs() != 8 || tp.GPUsPerHost() != 8 {
		t.Fatalf("default counts wrong: %d GPUs, %d per host", tp.NumGPUs(), tp.GPUsPerHost())
	}
}

func TestHierarchicalAccessors(t *testing.T) {
	dgx := DGX1Topology()
	if !dgx.Hierarchical() || dgx.NumGPUs() != 8 {
		t.Fatalf("dgx1: hierarchical=%v gpus=%d", dgx.Hierarchical(), dgx.NumGPUs())
	}
	// GPUs 0-3 share an NVLink island; 0 and 4 only meet at PCIe.
	if bw := dgx.LinkBandwidth(0, 3); bw != 80e9 {
		t.Errorf("intra-island bandwidth %g", bw)
	}
	if bw := dgx.LinkBandwidth(0, 4); bw != 21e9 {
		t.Errorf("cross-island bandwidth %g", bw)
	}
	if dgx.GPUsPerHost() != 8 {
		t.Errorf("dgx1 is one host, got %d", dgx.GPUsPerHost())
	}

	cl := Cluster2x8Topology()
	if cl.NumGPUs() != 16 || cl.GPUsPerHost() != 8 {
		t.Fatalf("cluster: gpus=%d perHost=%d", cl.NumGPUs(), cl.GPUsPerHost())
	}
	if bw := cl.LinkBandwidth(0, 8); bw != 3.125e9 {
		t.Errorf("cross-node bandwidth %g", bw)
	}
	if bw := cl.LevelBandwidth(5); bw != 3.125e9 {
		t.Errorf("out-of-range level must clamp to outermost, got %g", bw)
	}
}

func TestAssignLevelsBlindLayout(t *testing.T) {
	// Blind layout follows the hierarchy innermost first: the last (heaviest)
	// step lands on the slowest level.
	dgx := DGX1Topology()
	p := &plan.Plan{K: 8, Steps: []*plan.Step{{K: 2}, {K: 2}, {K: 2}}}
	dgx.AssignLevels(p)
	if got := []int{p.Steps[0].Level, p.Steps[1].Level, p.Steps[2].Level}; !reflect.DeepEqual(got, []int{0, 0, 1}) {
		t.Errorf("dgx1 blind layout = %v, want [0 0 1]", got)
	}

	// A single K-way chop spans every level and prices at the outermost.
	chop := &plan.Plan{K: 8, Steps: []*plan.Step{{K: 8}}}
	dgx.AssignLevels(chop)
	if chop.Steps[0].Level != 1 {
		t.Errorf("equal chop level = %d, want outermost", chop.Steps[0].Level)
	}

	// Already-annotated plans are left alone.
	marked := &plan.Plan{K: 8, Steps: []*plan.Step{{K: 2, Level: 1}, {K: 2}, {K: 2}}}
	dgx.AssignLevels(marked)
	if marked.Steps[1].Level != 0 || marked.Steps[0].Level != 1 {
		t.Error("annotated plan must not be rewritten")
	}

	// Flat topologies never annotate.
	flat := DefaultTopology()
	fp := &plan.Plan{K: 8, Steps: []*plan.Step{{K: 2}, {K: 2}, {K: 2}}}
	flat.AssignLevels(fp)
	for _, s := range fp.Steps {
		if s.Level != 0 {
			t.Error("flat topology assigned a non-zero level")
		}
	}
}

func TestResolveTopology(t *testing.T) {
	if _, err := ResolveTopology("dgx1"); err != nil {
		t.Fatal(err)
	}
	if _, err := ResolveTopology("not-a-profile"); err == nil {
		t.Error("junk argument must error")
	}
}

// TestReadTopologyRejectsUnknownFields locks the parse audit: a misspelled
// field must be an error, not a silently-zero value.
func TestReadTopologyRejectsUnknownFields(t *testing.T) {
	bad := `{"name": "x", "hw": {"num_gpus": 2, "p2p_bandwidth": 1}, "levels": [{"name": "l", "group_size": 2, "bandwidth": 1, "netwrok": true}]}`
	if _, err := ReadTopology(strings.NewReader(bad)); err == nil {
		t.Fatal("expected unknown-field error")
	}
}

// TestDeepProfiles pins the 3-level library entries the ordering search
// scales onto: level structure, GPU counts, and the consistency invariants
// Validate enforces. (JSON round-trips are covered for every profile by
// TestJSONRoundTrip.)
func TestDeepProfiles(t *testing.T) {
	cases := []struct {
		name   string
		gpus   int
		levels int
	}{
		{"dgx2", 16, 3},
		{"cluster-4x2x8", 64, 3},
		{"cluster-4x2x12", 96, 3},
		{"cluster-8x2x8", 128, 3},
	}
	for _, c := range cases {
		tp, err := Profile(c.name)
		if err != nil {
			t.Fatal(err)
		}
		if got := tp.NumGPUs(); got != c.gpus {
			t.Errorf("%s: NumGPUs = %d, want %d", c.name, got, c.gpus)
		}
		if got := len(tp.Levels); got != c.levels {
			t.Errorf("%s: levels = %d, want %d", c.name, got, c.levels)
		}
		if !tp.Hierarchical() {
			t.Errorf("%s: must be hierarchical", c.name)
		}
		// Resolvable through the -hw flag path too.
		got, err := ResolveTopology(c.name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tp) {
			t.Errorf("%s: ResolveTopology diverges from Profile", c.name)
		}
	}
}
