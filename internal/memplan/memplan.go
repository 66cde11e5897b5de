// Package memplan models the static memory planner of MXNet/TensorFlow that
// Tofu's graph generation must keep effective (EuroSys'19 Sec 6). It sweeps
// a worker's operators in execution order, allocating each output buffer at
// its producer and releasing it after its last consumer, and reports the
// peak resident footprint. The generator's control dependencies (Fig 7) are
// what make the release points visible to the real planner; the Reuse
// option models their absence. In-place operators (gradient aggregation,
// optimizer updates) alias their first input's buffer, the MXNet behaviour
// whose absence in TensorFlow drives the Table 3 gap.
package memplan

import (
	"tofu/internal/graph"
	"tofu/internal/graphgen"
)

// Options control planner behaviour for the ablations.
type Options struct {
	// Reuse frees transient buffers after their last consumer. Off models
	// naive graph generation without Fig 7's control dependencies: the
	// planner cannot prove reuse is safe and every transient buffer stays
	// allocated for the iteration.
	Reuse bool
	// InPlaceAggregation honours in-place gradient aggregation; off (the
	// TensorFlow model of Table 3) every aggregation allocates a fresh
	// buffer.
	InPlaceAggregation bool
	// WorkspacePerOp adds a fixed per-operator scratch allocation for the
	// convolution workspaces cuDNN-style kernels need.
	WorkspacePerOp int64
}

// DefaultOptions matches the real system.
func DefaultOptions() Options {
	return Options{Reuse: true, InPlaceAggregation: true}
}

// Report is the planner's accounting for one worker.
type Report struct {
	// PersistentBytes holds weights, optimizer state and input shards —
	// resident for the whole iteration.
	PersistentBytes int64
	// TransientPeak is the high-water mark of activation/gradient buffers.
	TransientPeak int64
	// CommBufferPeak is the largest communication staging demand.
	CommBufferPeak int64
	// PeakBytes is the total footprint the device must accommodate.
	PeakBytes int64
}

// Fits reports whether the footprint fits a device of the given capacity.
func (r Report) Fits(capacity int64) bool { return r.PeakBytes <= capacity }

// inPlace reports whether a node writes its output into its first input's
// buffer: optimizer updates always (frameworks update parameters in place),
// gradient aggregations when inPlaceAgg honours them.
func inPlace(n *graph.Node, inPlaceAgg bool) bool {
	switch {
	case n.Op == "sgd_update", n.Op == "adam_update":
		return true
	case n.InPlace:
		return inPlaceAgg
	default:
		return false
	}
}

// AliasRoots maps every tensor, dense by ID, to the ID of the root buffer of
// its in-place alias chain: an in-place op's output shares its first input's
// buffer, and the root is the original allocation. The memory planner
// accounts buffers by root, and the swap engine uses the same map so alias
// chains do not masquerade as distinct memory blocks.
func AliasRoots(g *graph.Graph, inPlaceAgg bool) []int {
	roots := make([]int, len(g.Tensors))
	for i := range roots {
		roots[i] = -1
	}
	for _, t := range g.Tensors {
		rootOf(roots, t, inPlaceAgg)
	}
	return roots
}

// rootOf resolves t's root into roots (-1 = not yet resolved).
func rootOf(roots []int, t *graph.Tensor, inPlaceAgg bool) int {
	if r := roots[t.ID]; r >= 0 {
		return r
	}
	r := t.ID
	if t.Producer != nil && inPlace(t.Producer, inPlaceAgg) {
		r = rootOf(roots, t.Producer.Inputs[0], inPlaceAgg)
	}
	roots[t.ID] = r
	return r
}

func persistentKind(k graph.TensorKind) bool {
	return k == graph.Weight || k == graph.OptState || k == graph.Input
}

// Plan sweeps one (representative) worker of a sharded execution. Its state
// is dense by tensor ID: alias roots, external reference counts per root
// buffer and which root buffers are live.
func Plan(sh *graphgen.Sharded, opt Options) Report {
	var rep Report
	g := sh.G
	for _, t := range g.Tensors {
		if persistentKind(t.Kind) {
			rep.PersistentBytes += sh.TensorShard[t.ID]
		}
	}
	roots := AliasRoots(g, opt.InPlaceAggregation)
	refs := make([]int, len(g.Tensors))
	countRefs(g, roots, refs, opt.InPlaceAggregation)
	sweep(sh, opt, roots, refs, make([]bool, len(g.Tensors)), &rep)
	rep.PeakBytes = rep.PersistentBytes + rep.TransientPeak
	return rep
}

// countRefs counts the external consumptions of every root buffer:
// consumptions that extend the alias chain are internal and don't pin it.
//
//tofu:hotpath one pass over the tensors of every memory plan; enforced by tofu-vet/hotalloc
func countRefs(g *graph.Graph, roots, refs []int, inPlaceAgg bool) {
	for _, t := range g.Tensors {
		r := roots[t.ID]
		for _, c := range t.Consumers {
			if inPlace(c, inPlaceAgg) && c.Inputs[0] == t {
				continue
			}
			refs[r]++
		}
	}
}

// sweep walks the ops in execution order, allocating each output buffer at
// its producer and releasing each root buffer after its last external
// consumer, and records the transient and communication peaks in rep.
//
//tofu:hotpath one pass over the ops of every memory plan; enforced by tofu-vet/hotalloc
func sweep(sh *graphgen.Sharded, opt Options, roots, refs []int, live []bool, rep *Report) {
	var cur int64
	bump := func(delta int64) {
		cur += delta
		if cur > rep.TransientPeak {
			rep.TransientPeak = cur
		}
	}
	release := func(r int) {
		if !opt.Reuse || persistentKind(sh.G.Tensors[r].Kind) || !live[r] {
			return
		}
		live[r] = false
		cur -= sh.TensorShard[r]
	}

	for i := range sh.Ops {
		os := &sh.Ops[i]
		n := os.Node

		// Communication staging for this op's remote regions, live only
		// while the operator runs.
		commBuf := int64(os.FetchBytes + os.OutCommBytes)
		if commBuf > rep.CommBufferPeak {
			rep.CommBufferPeak = commBuf
		}
		bump(commBuf + opt.WorkspacePerOp)

		// Allocate the output buffer unless it aliases an existing one.
		out := n.Output.ID
		outRoot := roots[out]
		if outRoot == out && !persistentKind(n.Output.Kind) {
			bump(sh.TensorShard[out])
			live[out] = true
		}

		// Release roots whose last external consumer just ran.
		nInPlace := inPlace(n, opt.InPlaceAggregation)
		for _, in := range n.Inputs {
			if nInPlace && in == n.Inputs[0] {
				continue // internal alias extension
			}
			r := roots[in.ID]
			refs[r]--
			if refs[r] == 0 {
				release(r)
			}
		}
		// Terminal outputs nobody will read die immediately.
		if refs[outRoot] == 0 {
			release(outRoot)
		}
		cur -= commBuf + opt.WorkspacePerOp
	}
}
