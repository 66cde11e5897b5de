package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"tofu/internal/coarsen"
	"tofu/internal/core"
	"tofu/internal/dp"
	"tofu/internal/graphgen"
	"tofu/internal/hybrid"
	"tofu/internal/memplan"
	"tofu/internal/models"
	"tofu/internal/obs"
	"tofu/internal/plan"
	"tofu/internal/recursive"
	"tofu/internal/shape"
	"tofu/internal/sim"
)

// Internal sample keys of one layered op; they feed the two share rows and
// are not reported themselves.
const (
	keyOp         = "_op_ms"         // the whole cold op, untraced
	keyTraced     = "_traced_ms"     // the same op with a span tree attached
	keyAttributed = "_attributed_ms" // the disjoint layer calls that make up an op
)

// tracedSpans are the span names whose self time the ledger reports.
var tracedSpans = []string{"coarsen", "recursive.step", "dp.solve", "dp.pricing",
	"order.search", "order.expand", "hybrid.level", "hybrid.segment"}

func timeMs(fn func()) float64 {
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds() * 1e3
}

// allocMB runs fn and returns the megabytes it allocated.
func allocMB(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1e6
}

// layeredOp takes one case apart: it calls each layer's public entry point
// the way core.Partition would, timing each call from out here, then runs
// the whole op untraced and traced. Nothing under internal/ is instrumented.
func layeredOp(r request) (map[string]float64, error) {
	s := map[string]float64{"raw.calib_ms": calibrate()}
	nr := r.req
	k := nr.Workers
	opts := nr.PipelineOptions()
	opts.Search.Parallelism = 1
	var err error

	var m *models.Model
	s["models.build_ms"] = timeMs(func() { m, err = models.Build(nr.Model) })
	if err != nil {
		return nil, err
	}
	g := m.G

	var co *coarsen.Coarse
	s["coarsen.coarsen_ms"] = timeMs(func() { co, err = coarsen.Coarsen(g) })
	if err != nil {
		return nil, err
	}
	s["coarsen.groups"] = float64(len(co.Groups))
	s["coarsen.vars"] = float64(len(co.Vars))
	s["coarsen.max_frontier"] = float64(co.MaxFrontier())

	// dp: the first factor step of the recursion, once against a fresh
	// price cache (pricing + table + sweep) and once more with the cache
	// and the slot evaluators warm (table + sweep only).
	shapes := make(map[int]shape.Shape, len(g.Tensors))
	for _, t := range g.Tensors {
		shapes[t.ID] = t.Shape
	}
	prob := &dp.Problem{Coarse: co, K: recursive.Factorize(k)[0], Shapes: shapes,
		MaxStates: nr.MaxStates, Parallelism: 1, Cache: dp.NewPriceCache(), Reuse: &dp.EvalReuse{}}
	var res *dp.Result
	s["dp.alloc_mb"] = allocMB(func() {
		s["dp.solve_cold_ms"] = timeMs(func() { res, err = dp.Solve(prob) })
	})
	if err != nil {
		return nil, fmt.Errorf("dp probe: %w", err)
	}
	s["dp.solve_warm_ms"] = timeMs(func() { _, err = dp.Solve(prob) })
	if err != nil {
		return nil, fmt.Errorf("dp probe (warm): %w", err)
	}
	hits, misses := prob.Cache.Stats()
	s["dp.price_hits"], s["dp.price_misses"] = float64(hits), float64(misses)
	s["dp.states"], s["dp.configs"] = float64(res.States), float64(res.Configs)

	// The search, then graph generation and memory planning, wired as
	// core.Partition wires them.
	var p *plan.Plan
	attributed := s["models.build_ms"] + s["coarsen.coarsen_ms"]
	if opts.Pipeline != nil {
		var st hybrid.Stats
		var hr *hybrid.Result
		s["hybrid.alloc_mb"] = allocMB(func() {
			s["hybrid.partition_ms"] = timeMs(func() {
				hr, err = hybrid.Partition(g, k, hybrid.Options{
					Topology: opts.Topology, Level: opts.Pipeline.Level, MaxStates: nr.MaxStates,
					Parallelism: 1, Gen: opts.Gen, Stats: &st,
				})
			})
		})
		if err != nil {
			return nil, err
		}
		s["hybrid.boundary_sets"], s["hybrid.expanded"] = float64(st.BoundarySets), float64(st.Expanded)
		s["hybrid.pruned"], s["hybrid.leaves"] = float64(st.Pruned), float64(st.Leaves)
		s["hybrid.segments"], s["hybrid.dp_solves"] = float64(st.Segments), float64(st.DPSolves)
		s["hybrid.lb_queries"] = float64(st.LBQueries)
		p = hr.Plan
		// hybrid.Partition generates each stage's execution itself, so the
		// graphgen row is a re-run for the ledger and is not attributed twice.
		for _, stg := range hr.Stages {
			s["graphgen.generate_ms"] += timeMs(func() { _, err = graphgen.Generate(stg.G, stg.Plan, opts.Gen) })
			if err != nil {
				return nil, err
			}
			s["memplan.plan_ms"] += timeMs(func() { memplan.Plan(stg.Sharded, opts.Mem) })
		}
		attributed += s["hybrid.partition_ms"] + s["memplan.plan_ms"]
	} else {
		search := opts.Search
		if opts.Topology != nil && int64(opts.Topology.NumGPUs()) == k {
			search.Topology = opts.Topology
		}
		var st recursive.SearchStats
		search.Stats = &st
		s["recursive.alloc_mb"] = allocMB(func() {
			s["recursive.partition_ms"] = timeMs(func() { p, err = recursive.Partition(g, k, search) })
		})
		if err != nil {
			return nil, err
		}
		s["recursive.orderings"], s["recursive.expanded"] = float64(st.Orderings), float64(st.Expanded)
		s["recursive.pruned"], s["recursive.dp_solves"] = float64(st.Pruned), float64(st.DPSolves)
		s["recursive.flat_dp_solves"] = float64(st.FlatDPSolves)
		if opts.Topology != nil {
			opts.Topology.AssignLevels(p)
		}
		var sh *graphgen.Sharded
		s["graphgen.generate_ms"] = timeMs(func() { sh, err = graphgen.Generate(g, p, opts.Gen) })
		if err != nil {
			return nil, err
		}
		s["memplan.plan_ms"] = timeMs(func() { memplan.Plan(sh, opts.Mem) })
		attributed += s["recursive.partition_ms"] + s["graphgen.generate_ms"] + s["memplan.plan_ms"]
	}

	p.Digest = r.digest
	var buf bytes.Buffer
	s["plan.encode_ms"] = timeMs(func() { err = p.WriteJSON(&buf) })
	if err != nil {
		return nil, err
	}
	s["plan.bytes"] = float64(buf.Len())
	s["plan.decode_ms"] = timeMs(func() { _, err = plan.ReadJSONExpect(bytes.NewReader(buf.Bytes()), r.digest) })
	if err != nil {
		return nil, err
	}

	var sum *core.Summary
	s["core.partition_ms"] = timeMs(func() { sum, err = core.Partition(g, k, opts) })
	if err != nil {
		return nil, err
	}
	s["sim.run_ms"] = timeMs(func() { core.Simulate(sum, nr.Model.Batch, opts, sim.RunOptions{}) })
	s[keyAttributed] = attributed + s["plan.encode_ms"] + s["sim.run_ms"]

	s[keyOp] = timeMs(func() { _, err = planCold(r.body, 1, nil) })
	if err != nil {
		return nil, err
	}
	root := obs.NewSpan("bench.op")
	s[keyTraced] = timeMs(func() { _, err = planCold(r.body, 1, root) })
	if err != nil {
		return nil, err
	}
	root.End()
	self := map[string]float64{}
	selfTimes(root, self)
	for _, name := range tracedSpans {
		s["span."+name+"_self_ms"] = self[name]
	}
	return s, nil
}

// selfTimes adds each span's duration minus its children's, by span name.
func selfTimes(sp *obs.Span, acc map[string]float64) {
	d := sp.Duration()
	for _, c := range sp.Children() {
		d -= c.Duration()
		selfTimes(c, acc)
	}
	acc[sp.Name()] += d.Seconds() * 1e3
}

// layers is the traced run of a cold workload: layered ops over seeded
// passes for the given time, reduced per case by median and across cases by
// geometric mean (sum for counts and bytes).
func (c *coldRun) layers(seed int64, seconds float64, got map[string]float64) (attempted, failed int) {
	n := len(c.cases)
	samples := make([]map[string][]float64, n)
	for i := range samples {
		samples[i] = map[string][]float64{}
	}
	eachPass(n, seed, seconds, func(_, i int) {
		attempted++
		s, err := layeredOp(c.cases[i])
		if err != nil {
			fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", c.cases[i].name, err)
			failed++
			return
		}
		for k, v := range s {
			samples[i][k] = append(samples[i][k], v) //tofu:allow-mapiter each row appends to its own slice; no order crosses rows
		}
	})

	perCase := make([]map[string]float64, n) // case -> row -> median
	for i := range samples {
		perCase[i] = map[string]float64{}
		for k, xs := range samples[i] {
			perCase[i][k] = median(xs)
		}
	}
	column := func(key string) []float64 {
		xs := make([]float64, n)
		for i := range perCase {
			xs[i] = perCase[i][key]
		}
		return xs
	}
	for _, d := range perLayer {
		switch d.Unit {
		case "count", "B":
			got[d.Name] = sum(column(d.Name))
		case "ms", "MB":
			got[d.Name] = geomean(column(d.Name))
		}
	}
	got["raw.plan_ms"] = geomean(column(keyOp))
	if op := sum(column(keyOp)); op > 0 {
		got["core.unattributed_share"] = 1 - sum(column(keyAttributed))/op
		got["trace.overhead_share"] = sum(column(keyTraced)) / op
	}

	// The per-case ledger, for people: which layer an op's time went to.
	rows := []string{"models.build_ms", "coarsen.coarsen_ms", "dp.solve_cold_ms", "dp.solve_warm_ms",
		"recursive.partition_ms", "hybrid.partition_ms", "graphgen.generate_ms", "memplan.plan_ms",
		"plan.encode_ms", "plan.decode_ms", "sim.run_ms", "core.partition_ms", keyOp, keyTraced}
	for i, r := range c.cases {
		fmt.Fprintf(os.Stderr, "  %s (n=%d)\n", r.name, len(samples[i][keyOp]))
		for _, k := range rows {
			if v := perCase[i][k]; v > 0 {
				fmt.Fprintf(os.Stderr, "    %-26s %9.3f ms  %5.1f%%\n", k, v, 100*v/perCase[i][keyOp])
			}
		}
		var spans []string
		for _, name := range tracedSpans {
			if v := perCase[i]["span."+name+"_self_ms"]; v > 0 {
				spans = append(spans, fmt.Sprintf("%s %.2f", name, v))
			}
		}
		fmt.Fprintf(os.Stderr, "    span self ms: %v\n", spans)
	}
	return attempted, failed
}
