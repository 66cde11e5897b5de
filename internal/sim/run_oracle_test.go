package sim

import (
	"tofu/internal/graphgen"
	"tofu/internal/memplan"
	"tofu/internal/obs"
	"tofu/internal/topo"
)

// RunReference lets the differential test, which needs the searches and so
// lives in package sim_test, reach the oracle.
var RunReference = runReference

// runReference is the Run that PR 25 replaced — its ready times in a map
// keyed by tensor ID — kept verbatim as the differential oracle.
func runReference(sh *graphgen.Sharded, tp topo.Topology, batch int64, memOpts memplan.Options, ro RunOptions) Result {
	hw := tp.HW
	var res Result
	res.Mem = memplan.Plan(sh, memOpts)
	res.OOM = !res.Mem.Fits(hw.GPUMemBytes)

	ready := make(map[int]float64, len(sh.Ops)) // tensor ID -> available time
	var computeFree, commFree float64
	for _, os := range sh.Ops {
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
		kt := KernelTime(hw, os)
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

	res.IterSeconds = maxf(computeFree, commFree)
	if res.IterSeconds > 0 {
		replicas := 1
		if ro.Replicas > 1 {
			replicas = ro.Replicas
		}
		res.Throughput = float64(batch) / res.IterSeconds * float64(replicas)
	}
	return res
}
