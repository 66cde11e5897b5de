package sim

import (
	"fmt"
	"strconv"

	"tofu/internal/graphgen"
	"tofu/internal/memplan"
	"tofu/internal/obs"
	"tofu/internal/topo"
)

// PipelineStage is one stage of a partitioned pipeline: a sharded
// sub-execution on its own sub-machine with its memory plan, plus the
// hand-off it sends to the next stage each iteration (zero on the last
// stage).
type PipelineStage struct {
	Sharded *graphgen.Sharded
	Topo    topo.Topology
	// Mem is Sharded's memory plan (memplan.Plan).
	Mem memplan.Report
	// HandoffBytes is the full-batch activation/gradient traffic into the
	// next stage; HandoffBandwidth is the per-GPU bandwidth of the link it
	// crosses. Both are 0 on the last stage.
	HandoffBytes     float64
	HandoffBandwidth float64
}

// RunPipelineStages simulates micro-batched pipeline execution of
// partitioned stages — the hybrid plan's runtime model, unlike RunPipeline's
// layer-per-GPU placement. The batch splits into microBatches equal
// micro-batches; each stage is an internally-partitioned sub-machine whose
// full-batch iteration is simulated by Run, scaled to a micro-batch by
// 1/microBatches (the kernels and transfers all scale with the batch
// dimension). Steady state is bottleneck-paced: the pipeline period is the
// slowest stage's micro-batch time plus its hand-off, and one iteration
// drains microBatches + stages - 1 periods (the GPipe fill/drain makespan).
// Memory is conservative: each stage's full-batch footprint, as if no
// activation were released between micro-batches.
func RunPipelineStages(stages []PipelineStage, batch int64, microBatches int, ro RunOptions) (Result, error) {
	var res Result
	S := len(stages)
	if S == 0 {
		return res, fmt.Errorf("sim: pipeline has no stages")
	}
	if microBatches < 1 {
		return res, fmt.Errorf("sim: micro-batch count %d invalid", microBatches)
	}
	if int64(microBatches) > batch {
		return res, fmt.Errorf("sim: %d micro-batches exceed the batch of %d samples", microBatches, batch)
	}
	if batch%int64(microBatches) != 0 {
		return res, fmt.Errorf("sim: batch %d does not divide into %d equal micro-batches", batch, microBatches)
	}
	m := float64(microBatches)
	period := 0.0
	var bottleneckRes Result
	var bottleneckHandoff float64
	micros := make([]float64, S)
	handoffs := make([]float64, S)
	for si, st := range stages {
		if st.Sharded == nil {
			return res, fmt.Errorf("sim: stage %d has no sharded execution", si)
		}
		// Each stage's full-batch profile lands on its own prefixed lanes
		// ("stage<si>/w0/..."), alongside the micro-batch schedule below.
		ro2 := ro
		ro2.Timeline = ro.Timeline.WithPrefix("stage" + strconv.Itoa(si) + "/")
		r := Run(st.Sharded, st.Topo, batch, st.Mem, ro2)
		handoff := 0.0
		if si < S-1 && !ro.DisableComm {
			if st.HandoffBytes > 0 && st.HandoffBandwidth <= 0 {
				return res, fmt.Errorf("sim: stage %d hands off %g bytes over invalid bandwidth %g",
					si, st.HandoffBytes, st.HandoffBandwidth)
			}
			if st.HandoffBytes > 0 {
				handoff = (st.HandoffBytes / m) / st.HandoffBandwidth
			}
			handoff += st.Topo.HW.PipelineSyncOverhead
		}
		p := r.IterSeconds/m + handoff
		micros[si] = r.IterSeconds / m
		handoffs[si] = handoff
		if p > period {
			period = p
			bottleneckRes = r
			bottleneckHandoff = handoff
		}
		if r.OOM {
			res.OOM = true
		}
		if r.Mem.PeakBytes > res.Mem.PeakBytes {
			res.Mem = r.Mem
		}
	}
	res.IterSeconds = (m + float64(S-1)) * period
	if ro.Timeline.Enabled() {
		emitPipelineSchedule(ro.Timeline, micros, handoffs, microBatches, period)
	}
	res.ComputeSeconds = bottleneckRes.ComputeSeconds
	res.CommSeconds = bottleneckRes.CommSeconds + m*bottleneckHandoff
	if res.IterSeconds > 0 {
		res.Throughput = float64(batch) / res.IterSeconds
	}
	return res, nil
}

// emitPipelineSchedule records the GPipe-style bottleneck-paced schedule:
// stage s processes micro-batch b in period slot s+b ("pipeline/stage<s>"
// lanes), hands it downstream for the tail of the slot, and the whole
// iteration splits into fill / steady / drain phases on the "pipeline"
// marker lane. Stages idle inside a slot when they are faster than the
// bottleneck — visible as lane gaps.
func emitPipelineSchedule(tl *obs.Timeline, micros, handoffs []float64, microBatches int, period float64) {
	S := len(micros)
	m := float64(microBatches)
	fill := float64(S-1) * period
	if fill > 0 {
		tl.Add(obs.Event{Lane: "pipeline", Name: "fill", Kind: "fill",
			Start: 0, Dur: fill, Level: -1})
	}
	if steady := m*period - fill; steady > 0 {
		tl.Add(obs.Event{Lane: "pipeline", Name: "steady", Kind: "steady",
			Start: fill, Dur: steady, Level: -1})
	}
	if fill > 0 {
		tl.Add(obs.Event{Lane: "pipeline", Name: "drain", Kind: "drain",
			Start: m * period, Dur: fill, Level: -1})
	}
	for s := 0; s < S; s++ {
		lane := "pipeline/stage" + strconv.Itoa(s)
		for b := 0; b < microBatches; b++ {
			slot := float64(s+b) * period
			tl.Add(obs.Event{Lane: lane, Name: "micro" + strconv.Itoa(b),
				Kind: "compute", Start: slot, Dur: micros[s], Level: -1})
			if handoffs[s] > 0 {
				tl.Add(obs.Event{Lane: lane, Name: "handoff" + strconv.Itoa(b),
					Kind: "handoff", Start: slot + micros[s], Dur: handoffs[s], Level: -1})
			}
		}
	}
}
