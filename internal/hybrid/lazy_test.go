package hybrid

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tofu/internal/dp"
	"tofu/internal/models"
	"tofu/internal/plan"
	"tofu/internal/recursive"
	"tofu/internal/topo"
)

// synthLevel is one candidate level of a synthetic boundary problem: S stages
// over the instance's L groups, hand-off bandwidths, per-group floors, a
// segment cost function standing in for the partition search and a class
// function standing in for the structural key (nil: every segment its own
// class). Segments of one class cost the same and fail alike, as equal keys
// guarantee.
type synthLevel struct {
	S     int
	bw    []float64
	lb1   []float64
	cost  func(lo, hi int) (float64, error)
	class func(lo, hi int) int
}

// synthOutcome is everything the search must agree with the brute force on.
type synthOutcome struct {
	level int // index of the winning level, -1 when nothing is feasible
	set   []int
	bits  uint64
	errs  []string // distinct failure reasons, sorted (read only when level < 0)
	stats Stats
	// searches is what the structural memo must cost: per level, one search
	// per distinct class touched whose segments solve, plus one per failing
	// segment touched (failures are never shared).
	searches int64
	hits     int64 // segments the memo served
}

// runSynth drives the production level search — initTables, contend, run, seed,
// dfs, offer, and the structural memo in segment/fill — over synthetic levels
// through the levelState.prepare/solve seam; only the segment solver, its key
// and the topology-derived inputs are stand-ins.
func runSynth(xb []float64, levels []synthLevel) synthOutcome {
	return runSynthWith(xb, levels, nil)
}

// runSynthWith is runSynth with a hook that sees each level state before its
// search runs (nil: none).
func runSynthWith(xb []float64, levels []synthLevel, hook func(*levelState)) synthOutcome {
	s := &search{xb: xb}
	out := synthOutcome{level: -1}
	var best *levelState
	for i, lv := range levels {
		ls := synthLevelState(s, i, lv, &out.searches)
		if hook != nil {
			hook(ls)
		}
		best = ls.contend(best)
		out.hits += ls.hits
	}
	out.stats = s.stats
	for _, e := range s.errs {
		out.errs = append(out.errs, e.Error())
	}
	slices.Sort(out.errs)
	if best != nil {
		out.level, out.set, out.bits = best.level, best.best, math.Float64bits(best.bestCost)
	}
	return out
}

// synthLevelState lays out level i of a synthetic instance for s, its segment
// key the level's class and its solve the level's cost, and adds to searches
// the segment searches the memo must run: one per class touched, one per
// failing segment touched.
func synthLevelState(s *search, i int, lv synthLevel, searches *int64) *levelState {
	ls := &levelState{s: s, level: i, S: lv.S, bw: lv.bw, lb1: lv.lb1}
	class := func(lo, hi int) int { return lo*(len(s.xb)+1) + hi }
	if lv.class != nil {
		class = lv.class
	}
	touched := make(map[int]bool)
	ls.prepare = func(key []byte, lo, hi int) ([]byte, stageProblem, error) {
		c := class(lo, hi)
		if _, err := lv.cost(lo, hi); err != nil || !touched[c] {
			*searches++
		}
		touched[c] = true
		return binary.AppendUvarint(key, uint64(c)), stageProblem{lo: lo, hi: hi}, nil
	}
	ls.solve = func(pr stageProblem) (*plan.Plan, float64, error) {
		c, err := lv.cost(pr.lo, pr.hi)
		return &plan.Plan{}, c, err
	}
	ls.initTables()
	return ls
}

// seedSettled runs a level's seed phase alone and reports whether it ended
// the way seed promises: cut by the bar, facing only infeasible sets, or with
// the estimate-optimal boundary set filled throughout — not after a round
// that merely searched nothing new (memo hits fill slots too).
func seedSettled(xb []float64, lv synthLevel) bool {
	var searches int64
	ls := synthLevelState(&search{xb: xb}, 0, lv, &searches)
	if _, open := ls.seed(); !open || math.IsInf(ls.h(0, 0), 1) {
		return true
	}
	b := 0
	for j := 0; j < ls.S-1; j++ {
		nb := ls.next[j*ls.W+b]
		if ls.segs[b*ls.W+nb] == nil {
			return false
		}
		b = nb
	}
	return ls.segs[b*ls.W+ls.W-1] != nil
}

// bruteSynth is the oracle, sharing no code with the search: every boundary
// set of every level in lexicographic order, costed left to right, first
// strict minimum wins within a level and across levels. A set stops at its
// first failing segment, as the search's walk does, so the segments it
// touches are the ones an exhaustive walk would: it returns their distinct
// failure reasons, sorted, and the segment searches a structural memo over
// them must run — per level, one per class touched whose segments solve, one
// per failing segment touched.
func bruteSynth(xb []float64, levels []synthLevel) (level int, set []int, bits uint64, errs []string, searches int64) {
	level, best := -1, math.Inf(1)
	seen := map[string]bool{}
	for li, lv := range levels {
		L := len(xb)
		class := func(lo, hi int) int { return lo*(L+1) + hi }
		if lv.class != nil {
			class = lv.class
		}
		touched, classes := map[[2]int]bool{}, map[int]bool{}
		cost := func(lo, hi int) (float64, bool) {
			c, err := lv.cost(lo, hi)
			if !touched[[2]int{lo, hi}] {
				touched[[2]int{lo, hi}] = true
				if err != nil || !classes[class(lo, hi)] {
					searches++
				}
				if err != nil && !seen[err.Error()] {
					seen[err.Error()] = true
					errs = append(errs, err.Error())
				}
			}
			if err == nil {
				classes[class(lo, hi)] = true
			}
			return c, err == nil
		}
		var walk func(j, prev int, g float64, chosen []int)
		walk = func(j, prev int, g float64, chosen []int) {
			if j == lv.S {
				if c, ok := cost(prev, L); ok && g+c < best {
					level, set, best = li, slices.Clone(chosen), g+c
				}
				return
			}
			for b := prev + 1; b <= L-(lv.S-j); b++ {
				if c, ok := cost(prev, b); ok {
					walk(j+1, b, g+c+xb[b]/lv.bw[j], append(chosen, b))
				}
			}
		}
		walk(1, 0, 0, nil)
	}
	slices.Sort(errs)
	return level, set, math.Float64bits(best), errs, searches
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
// Structural classes come from crng, a stream of their own, so an instance
// whose draw shares nothing costs exactly what it did before classes existed.
func synthInstance(rng, crng *rand.Rand) (xb []float64, levels []synthLevel, twin bool) {
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
	// With chance share a segment joins the class of a random earlier one and
	// takes its cost — where that keeps its failure status and does not lower
	// its cost, so the floors stay admissible.
	base := make([]float64, (L+1)*(L+1))
	class := make([]int, (L+1)*(L+1))
	share := []float64{0, 0.3, 0.8}[crng.Intn(3)]
	var earlier []int
	for lo := 0; lo < L; lo++ {
		for hi := lo + 1; hi <= L; hi++ {
			at := lo*(L+1) + hi
			sum := 0.0
			for g := lo; g < hi; g++ {
				sum += w[g]
			}
			base[at], class[at] = sum+extra[at], at
			if len(earlier) > 0 && crng.Float64() < share {
				if a := earlier[crng.Intn(len(earlier))]; fail[a] == fail[at] && base[a] >= base[at] {
					base[at], class[at] = base[a], class[a]
				}
			}
			earlier = append(earlier, at)
		}
	}
	classOf := func(lo, hi int) int { return class[lo*(L+1)+hi] }
	cost := func(scale float64) func(lo, hi int) (float64, error) {
		return func(lo, hi int) (float64, error) {
			at := lo*(L+1) + hi
			if fail[at] {
				// A handful of distinct reasons, so several segments share one.
				return 0, fmt.Errorf("synthetic: reason %d: segment cannot split", at%5)
			}
			return base[at] * scale, nil
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
		return synthLevel{S: S, bw: bw, lb1: floors(scale), cost: cost(scale), class: classOf}
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
// lazy shortest-path search must return the level, boundary set and cost bits
// of a brute force that shares no code with it (bruteSynth) — and, when
// nothing is feasible, its reasons. Segments fall into random structural
// classes (equal cost, equal failure status), so the structural memo serves
// part of every walk: the search must run exactly one segment search per
// complete class it touches plus one per failing segment it touches, and no
// more than a memo over the brute force's exhaustive walk would.
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
//	level      contend's `ls.bestCost < best.bestCost` → `<=`: killed: a
//	           twin level steals the tie.
//	dominance  seen keyed on prev alone, or the comparison reversed: killed.
//	           Recording seen on entry instead of on completion survives: the
//	           two differ only if a visit is cut short, which only cancellation
//	           does, and a cancelled walk visits nothing afterwards.
//	memo       seed's progress read off Stats.Segments instead of filled
//	           slots: killed by seedSettled (a round of hits alone ends the
//	           seed early; the walk still finds the optimum, so only the
//	           seed's own promise shows it). Failures entered in the classes,
//	           no class ever entered, or hits counted as searches: killed by
//	           the search count.
func TestLazySearchMatchesExhaustive(t *testing.T) {
	const n = 6000
	rng, crng := rand.New(rand.NewSource(17)), rand.New(rand.NewSource(18))
	var ties, infeasible, twins, cheaper, shared int64
	for i := 0; i < n; i++ {
		xb, levels, twin := synthInstance(rng, crng)
		got := runSynth(xb, levels)
		if got.stats.Segments != got.searches {
			t.Fatalf("instance %d: the search ran %d segment searches, want %d (one per complete class touched, one per failing segment)",
				i, got.stats.Segments, got.searches)
		}
		if got.hits > 0 {
			shared++
		}
		if !seedSettled(xb, levels[0]) {
			t.Fatalf("instance %d: the seed phase stopped before the estimate-optimal set was filled", i)
		}
		level, set, bits, errs, searches := bruteSynth(xb, levels)
		if got.level != level || level >= 0 && (!slices.Equal(got.set, set) || got.bits != bits) {
			t.Fatalf("instance %d (L=%d, %d levels): lazy search chose level %d set %v cost %x, brute force level %d set %v cost %x",
				i, len(xb), len(levels), got.level, got.set, got.bits, level, set, bits)
		}
		if level < 0 {
			infeasible++
			if !slices.Equal(got.errs, errs) {
				t.Fatalf("instance %d: infeasible reasons differ:\n lazy        %v\n brute force %v", i, got.errs, errs)
			}
			continue
		}
		if got.stats.Segments > searches {
			t.Fatalf("instance %d: lazy search solved %d segments, the exhaustive walk %d", i, got.stats.Segments, searches)
		}
		if got.stats.Segments < searches {
			cheaper++
		}
		if twin && level == 0 {
			twins++
		}
		if got.stats.Leaves > 1 {
			ties++
		}
	}
	t.Logf("%d instances: %d infeasible, %d with several leaves costed, %d level ties kept by the innermost, %d solved fewer segments than the exhaustive walk, %d served segments from the memo",
		n, infeasible, ties, twins, cheaper, shared)
	if infeasible == 0 || ties == 0 || twins == 0 || cheaper < int64(n)/2 || shared < int64(n)/4 {
		t.Errorf("generator lost coverage: infeasible=%d ties=%d twins=%d cheaper=%d shared=%d", infeasible, ties, twins, cheaper, shared)
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
	out := runSynth(xb, []synthLevel{unit(1)})
	alone := out.stats.Segments
	out = runSynth(xb, []synthLevel{unit(1), unit(10)})
	if out.level != 0 || out.stats.Segments != alone {
		t.Errorf("dearer second level: winner %d, %d segments solved, want level 0 and %d (the first level's alone)",
			out.level, out.stats.Segments, alone)
	}
}

// refreshAudit checks a level's cost-to-go table against a from-scratch
// recomputation before every segment fill and once when the level's search
// ends: the entries at boundaries above dirty must equal it bit for bit, and
// — dirty being -1 right after a refresh — every entry once the table was
// refreshed. est only changes when a fill completes, so every refresh's
// table is compared before anything it read can move again.
type refreshAudit struct {
	fail func(format string, args ...any)
	// full counts comparisons of a refreshed table, partial those of a table
	// with solves pending, rows the entries compared.
	full, partial, rows int64
}

// watch wraps ls's prepare seam so that the audit runs before every fill.
func (a *refreshAudit) watch(ls *levelState) {
	prepare := ls.prepare
	ls.prepare = func(key []byte, lo, hi int) ([]byte, stageProblem, error) {
		a.check(ls)
		return prepare(key, lo, hi)
	}
}

// check compares ls.togo and ls.next with togoFromScratch.
func (a *refreshAudit) check(ls *levelState) {
	togo, next := togoFromScratch(ls)
	L, W, S := ls.W-1, ls.W, ls.S
	if ls.dirty < 0 {
		a.full++
	} else {
		a.partial++
	}
	for j := 0; j < S; j++ {
		// Boundary j sits in [j, L-(S-j)]; boundary 0 only at 0.
		for b := max(j, ls.dirty+1); b <= min(L-(S-j), j*L); b++ {
			a.rows++
			at := j*W + b
			if math.Float64bits(ls.togo[at]) != math.Float64bits(togo[at]) || (j < S-1 && ls.next[at] != next[at]) {
				a.fail("level %d, state (%d, %d), dirty %d: togo %v next %d, from scratch %v next %d",
					ls.level, j, b, ls.dirty, ls.togo[at], ls.next[at], togo[at], next[at])
				return
			}
		}
	}
}

// togoFromScratch is the cost-to-go table and its argmin recomputed whole
// from the level's current estimates, dividing every hand-off inline.
func togoFromScratch(ls *levelState) ([]float64, []int) {
	L, W, S := ls.W-1, ls.W, ls.S
	togo, next := make([]float64, S*W), make([]int, S*W)
	for b := S - 1; b < L; b++ {
		togo[(S-1)*W+b] = ls.est[b*W+L]
	}
	for j := S - 2; j >= 0; j-- {
		for b := j; b <= min(L-(S-j), j*L); b++ {
			best, arg := math.Inf(1), b+1
			for nb := b + 1; nb <= L-(S-j-1); nb++ {
				if v := ls.est[b*W+nb] + ls.s.xb[nb]/ls.bw[j+1] + togo[(j+1)*W+nb]; v < best {
					best, arg = v, nb
				}
			}
			togo[j*W+b], next[j*W+b] = best, arg
		}
	}
	return togo, next
}

// TestLazySearchRefreshExact holds the incremental refresh — only the
// boundaries at or below the largest lo solved since the last refresh are
// recomputed, and hand-offs come from the level's divided-once table — to the
// whole-table recomputation, bit for bit in togo and in its argmin next, after
// every refresh: on every synthetic instance of
// TestLazySearchMatchesExhaustive and on the four cold-hybrid benchmark cases
// (every candidate level, driven as PartitionCoarse drives them, with effort
// counters equal to Partition's).
//
// Mutation log — applied alone to search.go with the hybrid tests re-run:
//
//	smallest lo  refresh only b ≤ the smallest lo solved since the last
//	             refresh (dirty = min instead of max): killed here on the
//	             synthetic instances and on the cold-hybrid cases.
func TestLazySearchRefreshExact(t *testing.T) {
	const n = 6000
	rng, crng := rand.New(rand.NewSource(17)), rand.New(rand.NewSource(18))
	var synth refreshAudit
	for i := 0; i < n; i++ {
		xb, levels, _ := synthInstance(rng, crng)
		synth.fail = func(format string, args ...any) {
			t.Fatalf("instance %d: "+format, append([]any{i}, args...)...)
		}
		var states []*levelState
		runSynthWith(xb, levels, func(ls *levelState) {
			synth.watch(ls)
			states = append(states, ls)
		})
		for _, ls := range states {
			synth.check(ls)
		}
	}
	t.Logf("synthetic: %d refreshed tables and %d with solves pending compared, %d entries", synth.full, synth.partial, synth.rows)
	if synth.full == 0 || synth.partial == 0 {
		t.Errorf("synthetic instances compared %d refreshed tables and %d pending ones", synth.full, synth.partial)
	}

	for _, c := range []struct {
		prof string
		cfg  models.Config
	}{ // bench/workloads/cold-hybrid.json
		{"cluster-2x4x2x12", models.Config{Family: "mlp", Depth: 4, Width: 384, Batch: 48}},
		{"cluster-4x2x8", models.Config{Family: "mlp", Depth: 8, Width: 256, Batch: 64}},
		{"cluster-4x2x8", models.Config{Family: "rnn", Depth: 2, Width: 1024, Batch: 64}},
		{"cluster-2x8", models.Config{Family: "transformer", Depth: 2, Width: 1024, Batch: 64}},
	} {
		tp, err := topo.Profile(c.prof)
		if err != nil {
			t.Fatal(err)
		}
		m, err := models.Build(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		co, err := recursive.Coarsen(m.G, nil)
		if err != nil {
			t.Fatal(err)
		}
		var want Stats
		opts := Options{Topology: &tp, Parallelism: 1, Stats: &want}
		if _, err := PartitionCoarse(co, int64(tp.NumGPUs()), opts); err != nil {
			t.Fatalf("%s %s: %v", c.prof, c.cfg, err)
		}
		a := refreshAudit{fail: func(format string, args ...any) {
			t.Fatalf("%s %s: "+format, append([]any{c.prof, c.cfg}, args...)...)
		}}
		s := &search{g: co.G, c: co, tp: tp, opts: opts, cache: dp.NewPriceCache(), floors: make([]groupBounds, len(co.Groups))}
		s.buildGroupOf()
		s.buildHandoffs()
		var best *levelState
		for level := 1; level < len(tp.Levels); level++ {
			ls, err := s.newLevelState(level)
			if err != nil {
				continue // more stages than groups
			}
			a.watch(ls)
			best = ls.contend(best)
			a.check(ls)
		}
		got := s.stats
		got.Level, got.Stages, got.BestCost = want.Level, want.Stages, want.BestCost
		if got != want {
			t.Errorf("%s %s: the audited search's effort %+v, PartitionCoarse's %+v", c.prof, c.cfg, got, want)
		}
		t.Logf("%s %s: %d refreshed tables and %d with solves pending compared, %d entries", c.prof, c.cfg, a.full, a.partial, a.rows)
		if a.full == 0 {
			t.Errorf("%s %s: no refreshed table compared", c.prof, c.cfg)
		}
	}
}
