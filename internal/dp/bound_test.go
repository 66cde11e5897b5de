package dp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tofu/internal/models"
	"tofu/internal/obs"
)

// boundModes names the settings of the incumbent-bound seam for messages.
var boundModes = map[boundMode]string{boundGated: "gated", boundOff: "off", boundForced: "forced"}

// solveBounded solves pr under one bound setting and materializes the
// result; err is Solve's.
func solveBounded(t *testing.T, pr *Prepared, mode boundMode, par int) (*Result, error) {
	t.Helper()
	pr.p.bound, pr.p.Parallelism = mode, par
	res, err := pr.Solve()
	if err != nil {
		return nil, err
	}
	if err := res.Materialize(); err != nil {
		t.Fatal(err)
	}
	return res, nil
}

// checkBounded holds pr's bounded sweeps — gated and forced on, at pool
// sizes 1, 2 and 8 — to its exhaustive one: the same error, or bit-identical
// CommBytes, the same VarCut and materialized tables, and no more States or
// Configs. Under a beam the bound never engages, so there the counters must
// be equal too. It returns the exhaustive result (nil on error) and whether
// the forced bound swept fewer pairs.
func checkBounded(t *testing.T, name string, pr *Prepared) (want *Result, cut bool) {
	t.Helper()
	want, wantErr := solveBounded(t, pr, boundOff, 1)
	for _, mode := range []boundMode{boundGated, boundForced} {
		for _, par := range []int{1, 2, 8} {
			at := fmt.Sprintf("%s beam %d bound %s parallelism %d", name, pr.p.MaxStates, boundModes[mode], par)
			got, err := solveBounded(t, pr, mode, par)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("%s: error %v, exhaustive sweep %v", at, err, wantErr)
			}
			if err != nil {
				continue
			}
			sameOptimum(t, at, got, want)
			sameTables(t, at, got, want)
			if pr.p.MaxStates > 0 {
				sameSearch(t, at, got, want)
			} else {
				noMoreEffort(t, at, got, want)
			}
			cut = cut || got.Configs < want.Configs
		}
	}
	return want, cut
}

// tieHeavy overwrites every dense slot table of pr with costs drawn from a
// palette of few values: many ties, zeros that let whole assignments cost
// nothing, decimals whose float sums round both ways, and some infeasible
// entries. Entries without a strategy stay infeasible.
func tieHeavy(pr *Prepared, rng *rand.Rand) {
	palette := []float64{0, 0, 0.1, 0.2, 0.3, 0.7, 1.1, math.Inf(1)}
	for _, ev := range pr.sl.ordered {
		if ev.t == nil {
			continue
		}
		t := *ev.t
		t.costT = append([]float64(nil), t.costT...)
		t.minCost = math.Inf(1)
		for i := range t.costT {
			if t.bestT[i] >= 0 {
				t.costT[i] = palette[rng.Intn(len(palette))]
			}
			t.minCost = min(t.minCost, t.costT[i])
		}
		ev.t = &t
	}
}

// TestBoundedSweepMatchesExhaustive is the incumbent bound's oracle: the
// bound, forced on even where its gate declines and as Solve gates it,
// changes no optimum, assignment or materialized table and only lowers the
// effort counters, against the exhaustive sweep — on every sweepCases graph
// under every beam (where it must not engage at all) and on seeded
// tie-heavy tables over random and fan graphs, where ties, zero-cost optima
// and rounding put optimal-path states right at the cut. Dropping the slack,
// cutting with the floor of the group just swept (F[g] for F[g+1]) or
// cutting states that reach the limit exactly each fail it (the log is in
// EXPERIMENTS.md as of commit 2cd84ab, "Bound-pruned sweep").
func TestBoundedSweepMatchesExhaustive(t *testing.T) {
	for _, c := range sweepCases(t) {
		for _, beam := range c.beams {
			p := *c.p
			p.MaxStates = beam
			pr, err := Prepare(&p)
			if err != nil {
				t.Fatal(err)
			}
			checkBounded(t, fmt.Sprintf("%s k=%d", c.name, p.K), pr)
		}
	}

	// The counts below keep the synthetic half from going vacuous: the
	// bound must cut, and some optima must cost nothing (where cutting at
	// the limit itself is wrong).
	rng := rand.New(rand.NewSource(37))
	cuts, zeros := 0, 0
	for i := 0; i < 400; i++ {
		g := randomGraph(rng)
		if i%40 == 0 {
			g = fanGraph(3 + i/40%5)
		}
		for _, k := range []int64{2, 3} {
			pr, err := Prepare(graphProblem(t, g, k))
			if err != nil {
				t.Fatal(err)
			}
			tieHeavy(pr, rng)
			want, cut := checkBounded(t, fmt.Sprintf("tie-heavy-%d k=%d", i, k), pr)
			if cut {
				cuts++
			}
			if want != nil && want.CommBytes == 0 {
				zeros++
			}
		}
	}
	if cuts == 0 || zeros == 0 {
		t.Fatalf("tie-heavy problems: the bound cut %d, %d have a zero-cost optimum; want both > 0", cuts, zeros)
	}
	t.Logf("tie-heavy problems: the bound cut %d of 800, %d have a zero-cost optimum", cuts, zeros)
}

// TestBoundedSweepGate pins where the gate engages: every exact
// transformer step sweeps at least 100× fewer pairs with the bound, the
// chain and residual families never engage it, and a beam keeps it off. The
// dp.solve span carries the incumbent and the states cut exactly when the
// bound engaged.
func TestBoundedSweepGate(t *testing.T) {
	for _, c := range []struct {
		cfg     models.Config
		engages bool
	}{
		{models.Config{Family: "transformer", Depth: 4, Width: 1024, Batch: 16}, true},
		{models.Config{Family: "transformer", Depth: 2, Width: 1024, Batch: 64}, true},
		{models.Config{Family: "mlp", Depth: 4, Width: 384, Batch: 48}, false},
		{models.Config{Family: "rnn", Depth: 2, Width: 1024, Batch: 64}, false},
		{models.Config{Family: "wresnet", Depth: 50, Width: 4, Batch: 32}, false},
	} {
		m, err := models.Build(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, beam := range []int{0, 64} {
			p := problemFor(t, m, 2)
			p.MaxStates = beam
			pr, err := Prepare(p)
			if err != nil {
				t.Fatal(err)
			}
			engages := beam == 0 && c.engages
			if sw := newSweeper(p, pr.sl); sw.bound != engages {
				t.Fatalf("%s beam %d: bound engages %v, want %v", c.cfg, beam, sw.bound, engages)
			}
			off, err := solveBounded(t, pr, boundOff, 1)
			if err != nil {
				t.Fatal(err)
			}
			root := obs.NewSpan("test")
			p.Trace = root
			on, err := solveBounded(t, pr, boundGated, 1)
			if err != nil {
				t.Fatal(err)
			}
			attrs := map[string]string{}
			for _, a := range root.Children()[0].Attrs() {
				attrs[a.Key] = a.Val
			}
			_, inc := attrs["incumbent"]
			_, cut := attrs["bound_pruned"]
			if inc != engages || cut != engages {
				t.Errorf("%s beam %d: dp.solve span attributes %v, want incumbent and bound_pruned iff the bound engages (%v)", c.cfg, beam, attrs, engages)
			}
			if engages && 100*on.Configs > off.Configs {
				t.Errorf("%s: the bound sweeps %d of %d pairs, want at most 1 %%", c.cfg, on.Configs, off.Configs)
			}
			if !engages && (on.Configs != off.Configs || on.States != off.States) {
				t.Errorf("%s beam %d: the gate declines, yet the counters moved: %d/%d pairs", c.cfg, beam, on.Configs, off.Configs)
			}
			t.Logf("%s beam %d: %d → %d pairs, %d → %d states", c.cfg, beam, off.Configs, on.Configs, off.States, on.States)
		}
	}
}
