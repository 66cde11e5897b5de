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

// AliasRoots maps every tensor an execution's ops touch, dense by ID, to
// the ID of the root buffer of its in-place alias chain (-1 for a tensor no
// op touches): an in-place op's output shares its first input's buffer, and
// the root is the original allocation. A chain stops at the execution's
// edge: a feed (a tensor no op writes) is a root, whoever produced it
// outside. The memory planner accounts buffers by root, and the swap engine
// uses the same map so alias chains do not masquerade as distinct memory
// blocks.
func AliasRoots(sh *graphgen.Sharded, inPlaceAgg bool) []int {
	roots := make([]int, len(sh.G.Tensors))
	trace(sh, inPlaceAgg, roots, nil)
	return roots
}

func persistentKind(k graph.TensorKind) bool {
	return k == graph.Weight || k == graph.OptState || k == graph.Input
}

// persistentFeed reports whether a feed stays resident for the whole
// iteration: parameters, state and inputs, and every activation or gradient
// produced outside the execution (a pipeline stage receives those as
// inputs). A producer-less activation or gradient (a loss seed) is not.
func persistentFeed(t *graph.Tensor) bool {
	return persistentKind(t.Kind) ||
		(t.Producer != nil && (t.Kind == graph.Activation || t.Kind == graph.Gradient))
}

// Plan sweeps one (representative) worker of a sharded execution — a whole
// graph's, or a pipeline stage's over the whole graph: only the tensors its
// ops touch are accounted, only its own ops consume, and what it reads but
// does not write is a feed. Its state is dense by tensor ID: alias roots,
// external reference counts per root buffer and which root buffers are live.
func Plan(sh *graphgen.Sharded, opt Options) Report {
	var rep Report
	n := len(sh.G.Tensors)
	roots, refs := make([]int, n), make([]int, n)
	rep.PersistentBytes = trace(sh, opt.InPlaceAggregation, roots, refs)
	sweep(sh, opt, roots, refs, make([]bool, n), &rep)
	rep.PeakBytes = rep.PersistentBytes + rep.TransientPeak
	return rep
}

// trace walks the ops in order and resolves every touched tensor's alias
// root into roots (-1 elsewhere): an input still unresolved when read is a
// feed — its producer, if any, is not among the ops, which run producers
// first — and roots itself. With refs non-nil it also counts each root
// buffer's external consumptions (consumptions that extend the alias chain
// are internal and don't pin it) and returns the persistent bytes: the
// persistent feeds and persistent outputs, each once.
//
//tofu:hotpath one pass over the ops of every memory plan; enforced by tofu-vet/hotalloc
func trace(sh *graphgen.Sharded, inPlaceAgg bool, roots, refs []int) int64 {
	for i := range roots {
		roots[i] = -1
	}
	var persistent int64
	for i := range sh.Ops {
		n := sh.Ops[i].Node
		nInPlace := inPlace(n, inPlaceAgg)
		for _, in := range n.Inputs {
			if roots[in.ID] < 0 {
				roots[in.ID] = in.ID
				if persistentFeed(in) {
					persistent += sh.TensorShard[in.ID]
				}
			}
			if refs != nil && !(nInPlace && in == n.Inputs[0]) {
				refs[roots[in.ID]]++
			}
		}
		out := n.Output
		roots[out.ID] = out.ID
		if nInPlace {
			roots[out.ID] = roots[n.Inputs[0].ID]
		}
		if persistentKind(out.Kind) {
			persistent += sh.TensorShard[out.ID]
		}
	}
	return persistent
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
		if !opt.Reuse || !live[r] { // persistent buffers are never live
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
