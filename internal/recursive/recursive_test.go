package recursive

import (
	"strings"
	"testing"

	"tofu/internal/models"
	"tofu/internal/partition"
	"tofu/internal/shape"
	"tofu/internal/topo"
)

func TestFactorize(t *testing.T) {
	cases := []struct {
		k    int64
		want []int64
	}{
		{8, []int64{2, 2, 2}},
		{2, []int64{2}},
		{6, []int64{3, 2}},
		{12, []int64{3, 2, 2}},
		{7, []int64{7}},
	}
	for _, c := range cases {
		got := Factorize(c.k)
		if len(got) != len(c.want) {
			t.Errorf("Factorize(%d) = %v", c.k, got)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Factorize(%d) = %v, want %v", c.k, got, c.want)
			}
		}
		// Non-increasing per the paper.
		for i := 0; i+1 < len(got); i++ {
			if got[i] < got[i+1] {
				t.Errorf("Factorize(%d) = %v not non-increasing", c.k, got)
			}
		}
	}
}

func TestPartitionMLP8(t *testing.T) {
	m, err := models.MLP(3, 512, 64)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Partition(m.G, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 3 {
		t.Fatalf("steps = %d, want 3", len(p.Steps))
	}
	// Multipliers 1, 2, 4.
	for i, want := range []int64{1, 2, 4} {
		if p.Steps[i].Multiplier != want {
			t.Errorf("step %d multiplier = %d, want %d", i, p.Steps[i].Multiplier, want)
		}
	}
	// Theorem 2: per-step total cost non-decreasing.
	if !p.Monotone() {
		for i, s := range p.Steps {
			t.Logf("step %d: delta=%g", i, s.Delta())
		}
		t.Fatal("plan violates Theorem 2 monotonicity")
	}
	// Every weight ends up sharded to 1/8 of its elements.
	for _, w := range m.G.Weights() {
		fs := p.FinalShapes[w.ID]
		if fs.Elems()*8 != w.Shape.Elems() {
			t.Errorf("weight %v final shard %v is not 1/8", w, fs)
		}
	}
}

func TestPartitionMatmulChoosesAlignedPlan(t *testing.T) {
	// A single wide matmul partitioned 2 ways: the best basic plan costs at
	// most min(S_A, S_B, S_C) — achievable by cutting the largest tensor's
	// "free" dimension or via output reduction.
	m, err := models.MLP(1, 1024, 32)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Partition(m.G, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalComm() < 0 {
		t.Fatal("negative communication")
	}
	if len(p.Steps) != 1 {
		t.Fatalf("steps = %d", len(p.Steps))
	}
}

func TestPartitionRNN(t *testing.T) {
	m, err := models.RNN(2, 256, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Partition(m.G, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(p.Steps))
	}
	if !p.Monotone() {
		t.Error("RNN plan violates Theorem 2")
	}
	// Weight shards are 1/4.
	for _, w := range m.G.Weights() {
		fs := p.FinalShapes[w.ID]
		if fs.Elems()*4 != w.Shape.Elems() {
			t.Errorf("weight %v final shard %v is not 1/4", w, fs)
		}
	}
}

func TestOutputReductionFilterRaisesCost(t *testing.T) {
	// Dropping output-reduction strategies (ICML18) can only hurt: cost must
	// be >= the unrestricted plan's. Use an RNN whose backward weight
	// gradients (matmul_tn over the batch axis) favor output reduction.
	m, err := models.RNN(1, 256, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Partition(m.G, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	restricted, err := Partition(m.G, 2, Options{
		StrategyFilter: func(s partition.Strategy) bool { return s.Kind != partition.SplitReduce },
	})
	if err != nil {
		t.Fatal(err)
	}
	if restricted.TotalComm() < full.TotalComm()-1 {
		t.Fatalf("restricted search beat full search: %g < %g",
			restricted.TotalComm(), full.TotalComm())
	}
}

func TestEqualChopSingleStep(t *testing.T) {
	m, err := models.MLP(2, 512, 64)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Partition(m.G, 8, Options{Factors: []int64{8}})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 1 || p.Steps[0].K != 8 {
		t.Fatalf("EqualChop steps = %v", p.Steps)
	}
	// Single-dimension chopping is never better than recursion.
	rec, err := Partition(m.G, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalComm() < rec.TotalComm()-1 {
		t.Fatalf("single-step chop %g beat recursion %g", p.TotalComm(), rec.TotalComm())
	}
}

func TestPartitionErrors(t *testing.T) {
	m, err := models.MLP(1, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Partition(m.G, 0, Options{}); err == nil {
		t.Error("expected invalid-k error")
	}
	if _, err := Partition(m.G, 8, Options{Factors: []int64{2, 2}}); err == nil {
		t.Error("expected factor-product error")
	}
	if _, err := Partition(m.G, 4, Options{Factors: []int64{4, 1}}); err == nil {
		t.Error("expected invalid-factor error")
	}
	// 2305843009213693953 × 8 wraps int64 to 8: the product must be checked,
	// not formed.
	_, err = Partition(m.G, 8, Options{Factors: []int64{2305843009213693953, 8}})
	if err == nil || !strings.Contains(err.Error(), "do not multiply to 8") {
		t.Errorf("wrapping factor product: err = %v, want a factor-product error", err)
	}
	// Worker counts beyond topo.MaxGPUs never reach the trial division that
	// factors them: this one is prime.
	_, err = Partition(m.G, 9223372036854775783, Options{})
	if err == nil || !strings.Contains(err.Error(), "outside [1, 1048576]") {
		t.Errorf("prime k beyond MaxGPUs: err = %v, want a worker-count error", err)
	}
	// Neither do group sizes whose product wraps int64 to k.
	wrap := topo.DGX1Topology()
	wrap.Levels = []topo.Level{
		{Name: "a", GroupSize: 2305843009213693953, Bandwidth: wrap.HW.P2PBandwidth},
		{Name: "b", GroupSize: 8, Bandwidth: 1e9, Network: true},
	}
	_, err = Partition(m.G, 8, Options{Topology: &wrap})
	if err == nil || !strings.Contains(err.Error(), "group size 2305843009213693953 outside") {
		t.Errorf("wrapping machine: err = %v, want a group-size error", err)
	}
}

func TestFactorsMultiplyTo(t *testing.T) {
	for _, c := range []struct {
		factors []int64
		k       int64
		want    bool
	}{
		{nil, 1, true},
		{[]int64{2, 2, 2}, 8, true},
		{[]int64{3, 2, 2}, 12, true},
		{[]int64{2, 2}, 8, false},
		{[]int64{2, 2, 2, 2}, 8, false},
		{[]int64{2305843009213693953, 8}, 8, false},                  // wraps to 8
		{[]int64{8, 2305843009213693953}, 8, false},                  // either order
		{[]int64{4611686018427387904, 2, 2}, 0, false},               // wraps to 0
		{[]int64{3037000499, 3037000499}, 9223372030926249001, true}, // near MaxInt64
		{[]int64{2, 2}, -4, false},
	} {
		if got := FactorsMultiplyTo(c.factors, c.k); got != c.want {
			t.Errorf("FactorsMultiplyTo(%v, %d) = %v, want %v", c.factors, c.k, got, c.want)
		}
	}
}

func TestCutSummaryAndShardDims(t *testing.T) {
	m, err := models.MLP(1, 512, 64)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Partition(m.G, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := m.G.Weights()[0]
	cuts := p.TensorCuts(w.ID)
	if len(cuts) != 2 {
		t.Fatalf("weight cut steps = %d", len(cuts))
	}
	dims := p.ShardDims(w.ID, w.Shape.Rank())
	prod := int64(1)
	for _, d := range dims {
		prod *= d
	}
	if prod != 4 {
		t.Fatalf("shard dims %v do not multiply to 4", dims)
	}
	if s := p.CutSummary(w.ID); s == "" || s == "unpartitioned" {
		t.Fatalf("CutSummary = %q", s)
	}
}

func TestShapesHalveEachStep(t *testing.T) {
	m, err := models.MLP(2, 256, 32)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Partition(m.G, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ten := range m.G.Tensors {
		fs, ok := p.FinalShapes[ten.ID]
		if !ok {
			continue
		}
		if len(p.TensorCuts(ten.ID)) == 0 {
			continue
		}
		if fs.Elems()*8 != ten.Shape.Elems() {
			t.Errorf("tensor %v shard %v not 1/8 of %v", ten, fs, ten.Shape)
		}
	}
	_ = shape.Of()
}
