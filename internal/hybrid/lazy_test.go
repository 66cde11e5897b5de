package hybrid

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tofu/internal/plan"
)

// synthLevel is one candidate level of a synthetic boundary problem: S stages
// over the instance's L groups, hand-off bandwidths, per-group floors and a
// segment cost function standing in for the partition search.
type synthLevel struct {
	S    int
	bw   []float64
	lb1  []float64
	cost func(lo, hi int) (float64, error)
}

// synthOutcome is everything the two searches must agree on.
type synthOutcome struct {
	level int // index of the winning level, -1 when nothing is feasible
	set   []int
	bits  uint64
	errs  []string // distinct failure reasons, sorted (read only when level < 0)
	stats Stats
}

// runSynth drives the production level search — initTables, contend, run, seed,
// dfs, offer — over synthetic levels through the levelState.solve seam; only
// the segment solver and the topology-derived inputs are stand-ins.
func runSynth(xb []float64, levels []synthLevel, exhaustive bool) synthOutcome {
	s := &search{xb: xb, opts: Options{Exhaustive: exhaustive}}
	var best *levelState
	for i, lv := range levels {
		ls := &levelState{s: s, level: i, S: lv.S, bw: lv.bw, lb1: lv.lb1}
		ls.solve = func(lo, hi int) (*plan.Plan, float64, error) {
			c, err := lv.cost(lo, hi)
			return nil, c, err
		}
		ls.initTables()
		best = ls.contend(best)
	}
	out := synthOutcome{level: -1, stats: s.stats}
	for _, e := range s.errs {
		out.errs = append(out.errs, e.Error())
	}
	slices.Sort(out.errs)
	if best != nil {
		out.level, out.set, out.bits = best.level, best.best, math.Float64bits(best.bestCost)
	}
	return out
}

// bruteSynth is the oracle's oracle, sharing no code with the search: every
// boundary set of every level in lexicographic order, costed left to right,
// first strict minimum wins within a level and across levels.
func bruteSynth(xb []float64, levels []synthLevel) (level int, set []int, bits uint64) {
	level, best := -1, math.Inf(1)
	for li, lv := range levels {
		L := len(xb)
		var walk func(j, prev int, g float64, chosen []int)
		walk = func(j, prev int, g float64, chosen []int) {
			if j == lv.S {
				if c, err := lv.cost(prev, L); err == nil && g+c < best {
					level, set, best = li, slices.Clone(chosen), g+c
				}
				return
			}
			for b := prev + 1; b <= L-(lv.S-j); b++ {
				if c, err := lv.cost(prev, b); err == nil {
					walk(j+1, b, g+c+xb[b]/lv.bw[j], append(chosen, b))
				}
			}
		}
		walk(1, 0, 0, nil)
	}
	return level, set, math.Float64bits(best)
}

// synthInstance draws one instance. The mode picks what it stresses:
//
//	0  small-integer costs depending only on segment length — identical MLP
//	   layers: whole blocks of segments cost the same and boundary sets tie
//	   exactly, so only the lexicographic rule separates them
//	1  integer per-group weights plus a per-segment integer surcharge — exact
//	   arithmetic, ties common, floors at a random fraction of the truth
//	2  irrational-ish float costs — every sum rounds, ties are rare
//	3  mode 1 with failing segments and infeasible groups
//
// Floors are admissible by construction: cost(lo,hi) ≥ Σ w[lo:hi) ≥ Σ lb1.
func synthInstance(rng *rand.Rand) (xb []float64, levels []synthLevel, twin bool) {
	L := 3 + rng.Intn(10) // 3..12
	mode := rng.Intn(4)
	xb = make([]float64, L)
	for b := 1; b < L; b++ {
		switch {
		case mode == 2:
			xb[b] = rng.Float64() * 8
		case rng.Intn(3) > 0:
			xb[b] = float64(rng.Intn(4))
		}
	}
	w := make([]float64, L)
	for g := range w {
		switch mode {
		case 0:
			w[g] = 2
		case 2:
			w[g] = 0.5 + rng.Float64()*3
		default:
			w[g] = float64(1 + rng.Intn(4))
		}
	}
	extra := make([]float64, (L+1)*(L+1))
	fail := make([]bool, (L+1)*(L+1))
	badGroup := -1
	if mode == 3 && rng.Intn(3) == 0 {
		badGroup = rng.Intn(L)
	}
	perLen := make([]float64, L+1)
	for n := range perLen {
		perLen[n] = float64(rng.Intn(3) * n / 2)
	}
	for lo := 0; lo < L; lo++ {
		for hi := lo + 1; hi <= L; hi++ {
			at := lo*(L+1) + hi
			switch mode {
			case 0:
				extra[at] = perLen[hi-lo]
			case 2:
				extra[at] = rng.Float64() * float64(hi-lo) * math.Pi / 3
			default:
				extra[at] = float64(rng.Intn(3) * rng.Intn(hi-lo+1))
			}
			if mode == 3 {
				fail[at] = rng.Intn(6) == 0 || (lo <= badGroup && badGroup < hi)
			}
		}
	}
	cost := func(scale float64) func(lo, hi int) (float64, error) {
		return func(lo, hi int) (float64, error) {
			at := lo*(L+1) + hi
			if fail[at] {
				// A handful of distinct reasons, so several segments share one.
				return 0, fmt.Errorf("synthetic: segment class %d cannot split", at%5)
			}
			sum := 0.0
			for g := lo; g < hi; g++ {
				sum += w[g]
			}
			return (sum + extra[at]) * scale, nil
		}
	}
	floors := func(scale float64) []float64 {
		frac := []float64{0, 0.5, 1}[rng.Intn(3)]
		lb1 := make([]float64, L)
		for g := range lb1 {
			lb1[g] = w[g] * frac * scale
			if g == badGroup && rng.Intn(2) == 0 {
				lb1[g] = math.Inf(1) // the floor may or may not have noticed
			}
		}
		return lb1
	}
	level := func(scale float64) synthLevel {
		S := 2 + rng.Intn(min(4, L-1)) // 2..5, at most L
		bw := make([]float64, S)
		for j := 1; j < S; j++ {
			bw[j] = []float64{1, 2, 4, 3}[rng.Intn(4)] // heterogeneous links
		}
		return synthLevel{S: S, bw: bw, lb1: floors(scale), cost: cost(scale)}
	}
	levels = []synthLevel{level(1)}
	switch rng.Intn(4) {
	case 0: // a second level with the very same optimum: the innermost must win
		again := levels[0]
		again.lb1 = floors(1)
		levels, twin = append(levels, again), true
	case 1: // an unrelated, usually dearer or cheaper second level
		levels = append(levels, level([]float64{0.5, 1, 2}[rng.Intn(3)]))
	case 2: // three levels, the last a twin of the first
		levels, twin = append(levels, level(1), levels[0]), true
	}
	return xb, levels, twin
}

// TestLazySearchMatchesExhaustive is the synthetic differential: on seeded
// random boundary problems (L ≤ 12, S ≤ 5, up to three candidate levels) the
// lazy shortest-path search must return the exhaustive oracle's level,
// boundary set and cost bits — and, when nothing is feasible, its reasons —
// and both must match a brute force that shares no code with either.
//
// Mutation log — each applied alone to search.go with this test re-run:
//
//	bound      dfs's `> ls.bar()` → `>=`: killed. With nothing to beat the bar
//	           is +Inf, and `>=` cuts the failed (+Inf) segments whose reasons
//	           an infeasible search must still report. Restricted to finite
//	           bars the mutant is equivalent (a bound exactly on the float
//	           guard cannot belong to a winner); with the guard dropped as well
//	           (ties pruned) it is killed on the exact-tie modes.
//	seed       seed's `h > ls.bar()` → `>=`, with or without the guard: killed.
//	           Installing a round's set unconditionally instead of offering it
//	           survives: whatever the seed installs, the walk's offers restore
//	           the lex-first minimum — the seed is only ever a bound.
//	level      contend's `ls.bestCost < best.bestCost` → `<=`: killed by the
//	           brute force (Exhaustive shares contend, so it agrees with the
//	           mutant): a twin level steals the tie.
//	dominance  seen keyed on prev alone, or the comparison reversed: killed.
//	           Recording seen on entry instead of on completion survives: the
//	           two differ only if a visit is cut short, which only cancellation
//	           does, and a cancelled walk visits nothing afterwards.
func TestLazySearchMatchesExhaustive(t *testing.T) {
	const n = 6000
	rng := rand.New(rand.NewSource(17))
	var ties, infeasible, twins, cheaper int64
	for i := 0; i < n; i++ {
		xb, levels, twin := synthInstance(rng)
		want := runSynth(xb, levels, true)
		got := runSynth(xb, levels, false)
		if bl, bs, bb := bruteSynth(xb, levels); bl != want.level || (bl >= 0 && (!slices.Equal(bs, want.set) || bb != want.bits)) {
			t.Fatalf("instance %d: Exhaustive chose level %d set %v cost %x, brute force level %d set %v cost %x",
				i, want.level, want.set, want.bits, bl, bs, bb)
		}
		if got.level != want.level || !slices.Equal(got.set, want.set) || got.bits != want.bits {
			t.Fatalf("instance %d (L=%d, %d levels): lazy search chose level %d set %v cost %x, oracle level %d set %v cost %x",
				i, len(xb), len(levels), got.level, got.set, got.bits, want.level, want.set, want.bits)
		}
		if want.level < 0 {
			infeasible++
			if !slices.Equal(got.errs, want.errs) {
				t.Fatalf("instance %d: infeasible reasons differ:\n lazy   %v\n oracle %v", i, got.errs, want.errs)
			}
			continue
		}
		if got.stats.Segments > want.stats.Segments {
			t.Fatalf("instance %d: lazy search solved %d segments, the oracle %d", i, got.stats.Segments, want.stats.Segments)
		}
		if got.stats.Segments < want.stats.Segments {
			cheaper++
		}
		if twin && want.level == 0 {
			twins++
		}
		if got.stats.Leaves > 1 {
			ties++
		}
	}
	t.Logf("%d instances: %d infeasible, %d with several leaves costed, %d level ties kept by the innermost, %d solved fewer segments than the oracle",
		n, infeasible, ties, twins, cheaper)
	if infeasible == 0 || ties == 0 || twins == 0 || cheaper < int64(n)/2 {
		t.Errorf("generator lost coverage: infeasible=%d ties=%d twins=%d cheaper=%d", infeasible, ties, twins, cheaper)
	}
}

// TestLazySearchSkipsBeatenLevel: a level whose cost-to-go table already
// exceeds an earlier level's best solves nothing at all.
func TestLazySearchSkipsBeatenLevel(t *testing.T) {
	xb := []float64{0, 1, 1, 1, 1, 1}
	unit := func(scale float64) synthLevel {
		lb1 := make([]float64, len(xb))
		for g := range lb1 {
			lb1[g] = scale
		}
		return synthLevel{S: 3, bw: []float64{0, 1, 1}, lb1: lb1,
			cost: func(lo, hi int) (float64, error) { return scale * float64(hi-lo), nil }}
	}
	out := runSynth(xb, []synthLevel{unit(1)}, false)
	alone := out.stats.Segments
	out = runSynth(xb, []synthLevel{unit(1), unit(10)}, false)
	if out.level != 0 || out.stats.Segments != alone {
		t.Errorf("dearer second level: winner %d, %d segments solved, want level 0 and %d (the first level's alone)",
			out.level, out.stats.Segments, alone)
	}
}
