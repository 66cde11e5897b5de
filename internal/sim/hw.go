// Package sim is the discrete-event multi-GPU simulator that stands in for
// the paper's testbed (an EC2 p2.8xlarge: 8 NVIDIA K80 GPUs with 12 GB each,
// 21 GB/s PCIe peer-to-peer, a 10 GB/s shared CPU link — Sec 7.1). The
// simulator executes the sharded per-worker structure from graphgen on a
// calibrated kernel cost model: compute-bound kernels run at an efficiency
// that grows with per-GPU work size (matmul starves at small batches, conv
// stays efficient — the Sec 7.2 effects), element-wise kernels are
// memory-bandwidth bound, and communication engines overlap with compute.
package sim

import (
	"tofu/internal/graphgen"
	"tofu/internal/topo"
)

// Eff returns the fraction of peak FLOPS a kernel achieves given its class
// and leading output extent (rows for matmul, batch for conv).
func Eff(hw topo.HW, class KernelClass, rows float64) float64 {
	switch class {
	case ClassMatmul:
		return hw.MatmulMaxEff * rows / (rows + hw.MatmulHalfRows)
	case ClassConv:
		return hw.ConvMaxEff * rows / (rows + hw.ConvHalfBatch)
	default:
		return 1
	}
}

// KernelTime prices one operator shard on a GPU: the max of its
// compute-bound and memory-bound times plus launch overhead.
func KernelTime(hw topo.HW, os graphgen.OpShard) float64 {
	class := Classify(os.Node.Op)
	rows := os.KernelRows
	if rows <= 0 {
		rows = 1
		if os.OutShard.Rank() > 0 {
			rows = float64(os.OutShard.Dim(0))
		}
	}
	var compute float64
	if class == ClassMemBound {
		compute = 0 // bandwidth term dominates below
	} else {
		compute = os.FLOPs / (hw.PeakFLOPS * Eff(hw, class, rows))
	}
	mem := os.MemBytes / hw.MemBW
	t := compute
	if mem > t {
		t = mem
	}
	return t + hw.KernelOverhead
}
