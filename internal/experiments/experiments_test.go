package experiments

import (
	"strings"
	"testing"
	"time"

	"tofu/internal/topo"
)

func quick() Opts { return Opts{Quick: true, FlatBudget: 2 * time.Second} }

func TestTable1Quick(t *testing.T) {
	out, err := Table1(quick(), topo.DefaultTopology())
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Original DP", "coarsening", "recursion"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Table 1 missing %q:\n%s", frag, out)
		}
	}
}

func TestTable2Quick(t *testing.T) {
	out, err := Table2(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "RNN-6-4K") || !strings.Contains(out, "WResNet-50-4") {
		t.Fatalf("Table 2 missing rows:\n%s", out)
	}
	// Paper column present for comparison.
	if !strings.Contains(out, "8.4") || !strings.Contains(out, "4.2") {
		t.Errorf("Table 2 missing paper reference values:\n%s", out)
	}
}

func TestTable3Quick(t *testing.T) {
	out, err := Table3(quick(), topo.DefaultTopology())
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"Tofu", "MX-OpPlacement", "TF-OpPlacement"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Table 3 missing %q:\n%s", frag, out)
		}
	}
}

func TestFigure8Quick(t *testing.T) {
	out, err := Figure8(quick(), topo.DefaultTopology())
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"ideal", "smallbatch", "swap", "tofu"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Figure 8 missing %q:\n%s", frag, out)
		}
	}
}

func TestFigure9Quick(t *testing.T) {
	out, err := Figure9(quick(), topo.DefaultTopology())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "opplacement") {
		t.Errorf("Figure 9 missing op-placement:\n%s", out)
	}
}

func TestFigure10Quick(t *testing.T) {
	out, err := Figure10(quick(), topo.DefaultTopology())
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"allrow-greedy", "spartan", "equalchop", "icml18", "tofu"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Figure 10 missing %q:\n%s", frag, out)
		}
	}
}

func TestFigure11Quick(t *testing.T) {
	out, err := Figure11(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "W[") || !strings.Contains(out, "A[") {
		t.Errorf("Figure 11 missing tile notation:\n%s", out)
	}
}

func TestCrossTopologyQuick(t *testing.T) {
	out, err := CrossTopology(quick(), topo.DefaultTopology())
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"p2.8xlarge", "dgx1", "cluster-2x8", "tofu", "equalchop", "hier-naive", "@pcie"} {
		if !strings.Contains(out, frag) {
			t.Errorf("cross-topology sweep missing %q:\n%s", frag, out)
		}
	}
}

func TestAblationsQuick(t *testing.T) {
	out, err := Ablations(quick(), topo.DefaultTopology())
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"MultiFetch", "control deps", "output reduction", "in-place"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Ablations missing %q:\n%s", frag, out)
		}
	}
}

func TestHybridQuick(t *testing.T) {
	out, err := Hybrid(quick(), topo.DefaultTopology())
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"cluster-2x8", "cluster-4x2x8", "dp steps", "hybrid s/iter", "stages"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Hybrid missing %q:\n%s", frag, out)
		}
	}
}
