package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"tofu/internal/baselines"
	"tofu/internal/core"
	"tofu/internal/models"
	"tofu/internal/obs"
	"tofu/internal/plan"
	"tofu/internal/service"
	"tofu/internal/sim"
)

// planned is what one cold op hands its caller: the plan bytes a job
// launcher would ship, and the simulated cost of running under that plan.
type planned struct {
	bytes []byte
	sum   *core.Summary
	sim   sim.Result
}

// quality is the deterministic part of a planned: any move is a plan change.
type quality struct{ simIterMs, gpuPeakGB, commGB float64 }

func (p *planned) quality() quality {
	return quality{
		simIterMs: p.sim.IterSeconds * 1e3,
		gpuPeakGB: float64(p.sum.Memory.PeakBytes) / 1e9,
		commGB:    p.sum.Plan.TotalComm() / 1e9,
	}
}

// planCold is one cold op, from the wire request to a simulated plan:
// Normalize -> Digest -> models.Build -> core.Partition -> Plan.WriteJSON ->
// core.Simulate. It is the sequence service.ComputePlan runs, spelled out
// over the public functions so a trace can be attached and the summary kept.
func planCold(body []byte, parallelism int, trace *obs.Span) (*planned, error) {
	nr, err := service.ParseRequest(body)
	if err != nil {
		return nil, err
	}
	digest, err := nr.Digest()
	if err != nil {
		return nil, err
	}
	m, err := models.Build(nr.Model)
	if err != nil {
		return nil, err
	}
	opts := nr.PipelineOptions()
	opts.Search.Parallelism = parallelism
	opts.Trace = trace
	s, err := core.Partition(m.G, nr.Workers, opts)
	if err != nil {
		return nil, err
	}
	s.Plan.Digest = digest
	var buf bytes.Buffer
	if err := s.Plan.WriteJSON(&buf); err != nil {
		return nil, err
	}
	res := core.Simulate(s, nr.Model.Batch, opts, sim.RunOptions{})
	return &planned{bytes: buf.Bytes(), sum: s, sim: res}, nil
}

// coldRun is a cold workload after set-up: its cases in file order and one
// reference plan per case, which every timed op must reproduce exactly.
type coldRun struct {
	w     *workload
	cases []request
	refs  []*planned
}

// coldSetup is everything a fresh process does before it can time cold ops:
// parse the grid and plan every case once, which also pays the process's
// lazy initialisation (operator registry, strategy descriptions).
func coldSetup(w *workload, quick bool) (*coldRun, error) {
	cases, err := w.coldCases(quick)
	if err != nil {
		return nil, err
	}
	c := &coldRun{w: w, cases: cases}
	for _, r := range cases {
		p, err := planCold(r.body, 1, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", w.Name, r.name, err)
		}
		c.refs = append(c.refs, p)
	}
	return c, nil
}

// qualityMetrics combines per-plan quality by geometric mean, in the given
// (canonical) order so the floating-point sum never depends on the seed.
func qualityMetrics(refs []*planned, got map[string]float64) {
	var it, peak, comm []float64
	for _, p := range refs {
		q := p.quality()
		it, peak, comm = append(it, q.simIterMs), append(peak, q.gpuPeakGB), append(comm, q.commGB)
	}
	got["sim_iter_ms"] = geomean(it)
	got["gpu_peak_gb"] = geomean(peak)
	got["comm_gb"] = geomean(comm)
}

// opSample is one cold op of a timed run.
type opSample struct {
	c, pass         int     // case index, pass number
	rawMs, normMs   float64 // wall time, and the same over the flanking calibrations
	allocB, mallocs float64
	calBefore       float64 // the calibration run just before the op
}

// coldSamples is a timed run.
type coldSamples struct {
	ops               []opSample
	passes            int // complete passes
	attempted, failed int
}

// timed runs cold ops in a closed loop for the given time: seeded passes
// over the cases, every op between two runs of the calibration loop, and
// MemStats read around the op only. A collection precedes each timed region
// so every op starts from the heap a fresh process would have; without it an
// op's time depends on what the ops before it left behind. The first pass
// always completes. A case without a reference (the serve workloads'
// reference pass) adopts the plan it produces.
func (c *coldRun) timed(seed int64, seconds float64) coldSamples {
	var s coldSamples
	var before, after runtime.MemStats
	quiet := func() float64 {
		runtime.GC()
		cal := calibrate()
		runtime.GC()
		return cal
	}
	cal := quiet()
	s.passes = eachPass(len(c.cases), seed, seconds, func(pass, i int) {
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		p, err := planCold(c.cases[i].body, 1, nil)
		ms := time.Since(t0).Seconds() * 1e3
		runtime.ReadMemStats(&after)
		next := quiet()
		s.attempted++
		if err == nil && c.refs[i] == nil {
			c.refs[i] = p
		}
		if err != nil || !bytes.Equal(p.bytes, c.refs[i].bytes) || p.quality() != c.refs[i].quality() {
			fmt.Fprintf(os.Stderr, "FAIL %s: op did not reproduce the reference plan (err=%v)\n", c.cases[i].name, err)
			s.failed++
		} else {
			s.ops = append(s.ops, opSample{c: i, pass: pass, rawMs: ms, normMs: normalize(ms, (cal+next)/2),
				allocB:  float64(after.TotalAlloc - before.TotalAlloc),
				mallocs: float64(after.Mallocs - before.Mallocs), calBefore: cal})
		}
		cal = next
	})
	return s
}

// eachPass calls fn(pass, i) for every case index i in seeded passes until
// the time is up, and returns the number of complete passes. The first pass
// always completes, so every case is visited at least once.
func eachPass(n int, seed int64, seconds float64, fn func(pass, i int)) int {
	rng := rand.New(rand.NewSource(seed))
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for pass := 0; ; pass++ {
		for _, i := range rng.Perm(n) {
			if pass > 0 && !time.Now().Before(deadline) {
				return pass
			}
			fn(pass, i)
		}
	}
}

// perCase collects one field of the samples by case, in case order.
func (c *coldRun) perCase(s coldSamples, field func(opSample) float64) [][]float64 {
	out := make([][]float64, len(c.cases))
	for _, o := range s.ops {
		out[o.c] = append(out[o.c], field(o))
	}
	return out
}

func medians(per [][]float64) []float64 {
	out := make([]float64, len(per))
	for i, xs := range per {
		out[i] = median(xs)
	}
	return out
}

// planMetrics reduces a timed run to the rows about planning cold. Latency
// is the geometric mean of per-case medians (every case counts equally);
// allocation is what one pass over the cases allocates.
func (c *coldRun) planMetrics(s coldSamples, got map[string]float64) {
	norm := medians(c.perCase(s, func(o opSample) float64 { return o.normMs }))
	raw := medians(c.perCase(s, func(o opSample) float64 { return o.rawMs }))
	alloc := medians(c.perCase(s, func(o opSample) float64 { return o.allocB }))
	mallocs := medians(c.perCase(s, func(o opSample) float64 { return o.mallocs }))
	got["plan_norm_ms"] = geomean(norm)
	got["plan_alloc_mb"] = sum(alloc) / 1e6
	got["plan_allocs_k"] = sum(mallocs) / 1e3
	got["raw.plan_ms"] = geomean(raw)
	qualityMetrics(c.refs, got)
	if len(c.cases) > 8 {
		return // a serve workload's reference pass: one sample per request, not worth a table
	}
	for i, r := range c.cases {
		fmt.Fprintf(os.Stderr, "  %-44s norm %8.2f ms  raw %8.2f ms  %7.1f MB %8.0f allocs\n",
			r.name, norm[i], raw[i], alloc[i]/1e6, mallocs[i])
	}
}

// requestMetrics reduces a timed run to the rows about one caller-visible
// request, which on a cold workload is one op: the median over complete
// passes of a pass's mean normalized op time, and its reciprocal.
func (c *coldRun) requestMetrics(s coldSamples, got map[string]float64) {
	passMs := make([]float64, s.passes)
	var cal []float64
	for _, o := range s.ops {
		if o.pass < s.passes {
			passMs[o.pass] += o.normMs / float64(len(c.cases))
		}
		cal = append(cal, o.calBefore)
	}
	got["req_p50_norm_us"] = median(passMs) * 1e3
	got["req_per_s_norm"] = 1e3 / median(passMs)
	got["raw.calib_ms"] = median(cal)
	fmt.Fprintf(os.Stderr, "  %d ops in %d complete passes\n", len(s.ops), s.passes)
}

// verify checks each reference plan against everything independent of the
// op that made it, and returns one line per violation. It runs after the
// timed run and after peak memory is read: the baselines it searches are
// not part of the measured system.
func (c *coldRun) verify() []string {
	var bad []string
	flat := c.w.Name == "cold-flat"
	for i, r := range c.cases {
		p := c.refs[i]
		fail := func(format string, a ...any) {
			bad = append(bad, r.name+": "+fmt.Sprintf(format, a...))
		}
		ex, err := plan.ReadJSONExpect(bytes.NewReader(p.bytes), r.digest)
		if err != nil {
			fail("plan does not read back under its digest: %v", err)
			continue
		}
		if err := checkWays(ex); err != nil {
			fail("%v", err)
		}
		ref, err := service.ComputePlan(r.req, 2)
		if err != nil || !bytes.Equal(ref, p.bytes) {
			fail("bytes differ from service.ComputePlan(req, 2) (err=%v)", err)
		}
		if !flat {
			continue
		}
		if !p.sum.Plan.Monotone() {
			fail("step costs are not monotone (Theorem 2)")
		}
		if p.sim.OOM {
			fail("plan does not fit device memory (peak %d B)", p.sim.Mem.PeakBytes)
		}
		m, err := models.Build(r.req.Model)
		if err != nil {
			fail("%v", err)
			continue
		}
		for _, sys := range []baselines.System{baselines.AllRowGreedy, baselines.EqualChop} {
			bp, err := baselines.PlanFor(m, sys, r.req.Workers)
			if err != nil {
				fail("%s baseline: %v", sys, err)
			} else if got, base := p.sum.Plan.TotalComm(), bp.TotalComm(); got > base {
				fail("communication %.0f B exceeds the %s baseline's %.0f B", got, sys, base)
			}
		}
	}
	return bad
}

// checkWays requires the step factors to multiply to the worker count: over
// the whole plan when flat, within every stage when pipelined.
func checkWays(ex plan.Export) error {
	stages := int64(1)
	if ex.Pipeline != nil {
		stages = int64(len(ex.Pipeline.Stages))
	}
	ways := make([]int64, stages)
	for i := range ways {
		ways[i] = 1
	}
	for _, st := range ex.Steps {
		if st.Stage < 0 || int64(st.Stage) >= stages {
			return fmt.Errorf("step names stage %d of %d", st.Stage, stages)
		}
		ways[st.Stage] *= st.Ways
	}
	for s, w := range ways {
		if w*stages != ex.Workers {
			return fmt.Errorf("stage %d: step factors multiply to %d x %d stages, want %d workers", s, w, stages, ex.Workers)
		}
	}
	return nil
}

// peakRSSMB reads a process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
