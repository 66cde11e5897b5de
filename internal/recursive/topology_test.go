package recursive

import (
	"testing"

	"tofu/internal/graphgen"
	"tofu/internal/memplan"
	"tofu/internal/models"
	"tofu/internal/sim"
	"tofu/internal/topo"
)

func simulate(t *testing.T, m *models.Model, tp topo.Topology, opts Options) (float64, float64) {
	t.Helper()
	p, err := Partition(m.G, int64(tp.NumGPUs()), opts)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := graphgen.Generate(m.G, p, graphgen.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run(sh, tp, m.Batch, memplan.Plan(sh, memplan.DefaultOptions()), sim.RunOptions{})
	return res.IterSeconds, res.CommSeconds
}

// TestTopologyAwareBeatsBlind is the acceptance demonstration: on the
// NVLink (dgx1) and 2x8-node cluster profiles, the topology-aware ordering
// search produces a plan with strictly lower modeled iteration time than the
// topology-blind search (whose plan gets the naive cyclic-placement layout)
// on at least one benchmark model. RNN-2-1500 is the regime where the win
// exists: its hidden dimension (1500 = 4x375) supports only two halvings, so
// one recursive step must fall back to a costlier cut, and the aware search
// keeps that heavy step off the slow link.
func TestTopologyAwareBeatsBlind(t *testing.T) {
	m, err := models.RNN(2, 1500, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range []topo.Topology{topo.DGX1Topology(), topo.Cluster2x8Topology()} {
		aware, awareComm := simulate(t, m, tp, Options{Topology: &tp})
		naive, naiveComm := simulate(t, m, tp, Options{Topology: &tp, TopologyNaive: true})
		if aware >= naive {
			t.Errorf("%s: topology-aware iteration %.9fs must beat blind %.9fs", tp.Name, aware, naive)
		}
		if awareComm >= naiveComm {
			t.Errorf("%s: topology-aware comm %.9fs must beat blind %.9fs", tp.Name, awareComm, naiveComm)
		}
	}
}

// TestTopologyAwareNeverWorse: the ordering search always explores the naive
// layout too, so it can only tie or beat it in weighted communication time.
func TestTopologyAwareNeverWorse(t *testing.T) {
	m, err := models.RNN(2, 1024, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range []topo.Topology{topo.DGX1Topology(), topo.Cluster2x8Topology()} {
		awarePlan, err := Partition(m.G, int64(tp.NumGPUs()), Options{Topology: &tp})
		if err != nil {
			t.Fatal(err)
		}
		naivePlan, err := Partition(m.G, int64(tp.NumGPUs()), Options{Topology: &tp, TopologyNaive: true})
		if err != nil {
			t.Fatal(err)
		}
		if CommTime(awarePlan, tp) > CommTime(naivePlan, tp) {
			t.Errorf("%s: aware weighted comm exceeds naive", tp.Name)
		}
	}
}

// TestTopologyStepLevelsConsistent: a topology-searched plan's step levels
// consume exactly each level's capacity.
func TestTopologyStepLevelsConsistent(t *testing.T) {
	tp := topo.Cluster2x8Topology()
	m, err := models.RNN(2, 1024, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Partition(m.G, 16, Options{Topology: &tp})
	if err != nil {
		t.Fatal(err)
	}
	per := map[int]int64{}
	for _, s := range p.Steps {
		if s.Level < 0 || s.Level >= len(tp.Levels) {
			t.Fatalf("step level %d out of range", s.Level)
		}
		if per[s.Level] == 0 {
			per[s.Level] = 1
		}
		per[s.Level] *= s.K
	}
	for li, l := range tp.Levels {
		if per[li] != l.GroupSize {
			t.Errorf("level %d (%s): steps multiply to %d, want %d", li, l.Name, per[li], l.GroupSize)
		}
	}
}

// TestTopologyWorkerMismatch: an explicit topology must agree with k.
func TestTopologyWorkerMismatch(t *testing.T) {
	tp := topo.DGX1Topology()
	m, err := models.MLP(2, 256, 32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Partition(m.G, 4, Options{Topology: &tp}); err == nil {
		t.Fatal("8-GPU topology with k=4 must error")
	}
}

// TestEqualChopOnTopologyPricesAtOutermost: explicit factors skip the
// ordering search but still get the blind layout annotation — a single
// K-way chop crosses every level and prices at the outermost.
func TestEqualChopOnTopologyPricesAtOutermost(t *testing.T) {
	tp := topo.DGX1Topology()
	m, err := models.RNN(2, 1024, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Partition(m.G, 8, Options{Topology: &tp, Factors: []int64{8}})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 1 || p.Steps[0].Level != len(tp.Levels)-1 {
		t.Fatalf("equal chop layout wrong: %d steps, level %d", len(p.Steps), p.Steps[0].Level)
	}
}
