package sim

import (
	"strconv"

	"tofu/internal/graphgen"
	"tofu/internal/memplan"
	"tofu/internal/obs"
	"tofu/internal/topo"
)

// Result is one simulated training iteration.
type Result struct {
	// IterSeconds is the end-to-end time of one iteration on the slowest
	// engine.
	IterSeconds float64
	// ComputeSeconds is the pure-kernel time (communication removed) — the
	// light-colored portion of Figure 10's bars.
	ComputeSeconds float64
	// CommSeconds is the total busy time of the communication engine.
	CommSeconds float64
	// Throughput is samples/second for the whole machine.
	Throughput float64
	// Mem is the per-worker memory planner report; OOM mirrors Fits.
	Mem memplan.Report
	OOM bool
}

// RunOptions tweak a simulation run.
type RunOptions struct {
	// DisableComm zeroes all communication (Figure 10's compute-only
	// measurement mode: "we modify the backend to skip memory copy among
	// GPUs").
	DisableComm bool
	// Replicas scales throughput for data-parallel-style baselines that run
	// one graph per GPU (Ideal/SmallBatch/Swap multiply by 8 — Sec 7.1
	// scales single-GPU throughput without modeling communication, as the
	// paper's upper-bound baselines do).
	Replicas int
	// Timeline, if non-nil, receives the run's virtual-clock execution
	// events for the representative worker: one compute lane plus one
	// transfer lane per interconnect level crossed, in virtual seconds.
	// nil (the default) records nothing; the priced times are identical
	// either way.
	Timeline *obs.Timeline
}

// eachTransferLevel walks a per-level byte breakdown: each bucket crosses
// its own interconnect tier, so each is priced at that tier's bandwidth. On
// a single-level topology the whole payload goes to level 0. Both the
// pricing (transferTime) and the timeline emission share this walk, so the
// exported lanes decompose exactly the seconds the simulator charges.
func eachTransferLevel(tp topo.Topology, byLevel []float64, total float64, fn func(level int, seconds, bytes float64)) {
	if len(byLevel) == 0 {
		fn(0, total/tp.LevelBandwidth(0), total)
		return
	}
	for l, b := range byLevel {
		if b > 0 {
			fn(l, b/tp.LevelBandwidth(l), b)
		}
	}
}

// transferTime prices a per-level byte breakdown.
func transferTime(tp topo.Topology, byLevel []float64, total float64) float64 {
	t := 0.0
	eachTransferLevel(tp, byLevel, total, func(_ int, seconds, _ float64) { t += seconds })
	return t
}

// emitTransfer records one comm-engine transfer as per-level events on the
// representative worker's "w0/xfer-L<level>" lanes, back to back from
// start — the comm engine serializes the level crossings the same way
// transferTime sums them.
func emitTransfer(tl *obs.Timeline, kind, op string, start float64, tp topo.Topology, byLevel []float64, total float64) {
	cursor := start
	eachTransferLevel(tp, byLevel, total, func(level int, seconds, bytes float64) {
		tl.Add(obs.Event{
			Lane:  "w0/xfer-L" + strconv.Itoa(level),
			Name:  kind + " " + op,
			Kind:  kind,
			Start: cursor,
			Dur:   seconds,
			Bytes: int64(bytes),
			Level: level,
		})
		cursor += seconds
	})
}

// Run simulates one training iteration of a sharded execution on one
// (representative, symmetric) worker: a compute engine executes kernels in
// topological order while a communication engine overlaps MultiFetch and
// reduction transfers; producers gate consumers. Each transfer is priced at
// the bandwidth of the interconnect level it crosses (its plan step's level
// annotation) — on a flat topology that is the single peer bandwidth. mem is
// the execution's memory plan (memplan.Plan), which the result reports and
// checks against the GPU's capacity.
func Run(sh *graphgen.Sharded, tp topo.Topology, batch int64, mem memplan.Report, ro RunOptions) Result {
	res := Result{Mem: mem, OOM: !mem.Fits(tp.HW.GPUMemBytes)}
	res.IterSeconds = schedule(sh, tp, ro, make([]float64, len(sh.G.Tensors)), &res)
	if res.IterSeconds > 0 {
		replicas := 1
		if ro.Replicas > 1 {
			replicas = ro.Replicas
		}
		res.Throughput = float64(batch) / res.IterSeconds * float64(replicas)
	}
	return res
}

// schedule runs the two engines over the ops in order, accumulating compute
// and communication seconds into res, and returns when the later engine
// finishes. ready holds each tensor's available time, dense by tensor ID.
//
//tofu:hotpath one pass over the ops of every simulation; enforced by tofu-vet/hotalloc
func schedule(sh *graphgen.Sharded, tp topo.Topology, ro RunOptions, ready []float64, res *Result) float64 {
	hw := tp.HW
	var computeFree, commFree float64
	for i := range sh.Ops {
		os := &sh.Ops[i]
		depReady := 0.0
		for _, in := range os.Node.Inputs {
			if t := ready[in.ID]; t > depReady {
				depReady = t
			}
		}
		// MultiFetch of remote input regions on the comm engine. Peers run
		// the same schedule, so remote producers finish when local ones do.
		startReady := depReady
		if !ro.DisableComm && os.FetchBytes > 0 {
			fs := maxf(commFree, depReady)
			fe := fs + transferTime(tp, os.FetchByLevel, os.FetchBytes)
			if ro.Timeline.Enabled() {
				emitTransfer(ro.Timeline, "fetch", os.Node.Op, fs, tp, os.FetchByLevel, os.FetchBytes)
			}
			commFree = fe
			res.CommSeconds += fe - fs
			startReady = fe
		}
		kt := KernelTime(hw, *os)
		cs := maxf(computeFree, startReady)
		ce := cs + kt
		if ro.Timeline.Enabled() {
			ro.Timeline.Add(obs.Event{
				Lane: "w0/compute", Name: os.Node.Op, Kind: "compute",
				Start: cs, Dur: kt, Level: -1,
			})
		}
		computeFree = ce
		res.ComputeSeconds += kt

		avail := ce
		if !ro.DisableComm && os.OutCommBytes > 0 {
			rs := maxf(commFree, ce)
			re := rs + transferTime(tp, os.OutByLevel, os.OutCommBytes)
			if ro.Timeline.Enabled() {
				emitTransfer(ro.Timeline, "reduce", os.Node.Op, rs, tp, os.OutByLevel, os.OutCommBytes)
			}
			commFree = re
			res.CommSeconds += re - rs
			avail = re
		}
		ready[os.Node.Output.ID] = avail
	}
	return maxf(computeFree, commFree)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
