// Package graphgen turns a partition plan into the per-worker execution
// structure Tofu's runtime would run (EuroSys'19 Sec 6): every operator gets
// a per-worker shard with 1/k of the compute, a fused MultiFetch task for
// the remote input regions, and an output redistribution/reduction task when
// the plan requires one. Tofu's plans are symmetric across workers, so the
// generator emits one representative worker timeline; the simulator and the
// memory planner exploit the symmetry.
//
// The two memory optimizations of Sec 6 are modeled as options: MultiFetch
// (assembling remote regions in place via one fused kernel instead of
// split/copy/concatenate chains) and ControlDeps (the extra control
// dependencies of Fig 7 that keep the memory planner's buffer reuse intact).
package graphgen

import (
	"fmt"

	"tofu/internal/graph"
	"tofu/internal/partition"
	"tofu/internal/plan"
	"tofu/internal/shape"
)

// Options toggle the Sec 6 optimizations (both on in real Tofu; the
// ablation benches switch them off).
type Options struct {
	// MultiFetch fuses remote-region assembly into one kernel reading peer
	// memory over UVA. Off, every fetched region is staged through an extra
	// copy (split + copy + concatenate), doubling communication buffers.
	MultiFetch bool
	// ControlDeps adds the Fig 7 control dependencies so each worker's
	// memory planner sees the original operator ordering and can reuse
	// buffers. Off, reuse across partitioned operators is lost.
	ControlDeps bool
	// SpreadReduction distributes output reductions across all workers
	// (all-reduce); off, a single worker aggregates and its link becomes
	// the bottleneck.
	SpreadReduction bool
}

// DefaultOptions enables everything, matching the real system.
func DefaultOptions() Options {
	return Options{MultiFetch: true, ControlDeps: true, SpreadReduction: true}
}

// OpShard is one operator's per-worker slice of work.
type OpShard struct {
	Node *graph.Node
	// OutShard is the worker's output shard shape (storage layout).
	OutShard shape.Shape
	// KernelRows is the leading extent of the slab the kernel actually
	// computes, which follows the composed *strategies* rather than the
	// output tensor's storage cut: a matmul parallelized along its column
	// axis still runs full-height rows on every worker even when the
	// result is stored row-partitioned. Kernel efficiency depends on this.
	KernelRows float64
	// FLOPs and MemBytes are the per-worker kernel costs.
	FLOPs    float64
	MemBytes float64
	// FetchBytes is the per-worker MultiFetch traffic (remote input regions,
	// summed over all recursive steps).
	FetchBytes float64
	// OutCommBytes is the per-worker output redistribution/reduction
	// traffic.
	OutCommBytes float64
	// FetchByLevel/OutByLevel break the same traffic down by the
	// interconnect level whose links it crosses (indexed by the plan steps'
	// Level annotations; flat plans put everything at level 0). The
	// simulator prices each bucket at its level's bandwidth.
	FetchByLevel []float64
	OutByLevel   []float64
}

// Sharded is the per-worker execution structure for a k-way plan over the
// nodes of G it executes: all of them, or a pipeline stage's.
type Sharded struct {
	K    int64
	G    *graph.Graph
	Plan *plan.Plan
	Opts Options
	// Ops lists per-worker op shards in execution order: the executed nodes
	// in ascending ID, which is topological. A tensor the ops read but no op
	// writes is a feed of the execution.
	Ops []OpShard
	// TensorShard is the per-worker shard bytes of each tensor the ops read
	// or write, dense by G's tensor ID (G's tensor IDs are their positions,
	// which Topo checks); the entries of tensors no op touches are 0.
	TensorShard []int64
	// TotalFetchBytes/TotalOutBytes summarize per-worker communication.
	TotalFetchBytes float64
	TotalOutBytes   float64
}

// Generate builds the per-worker structure of every node of g for a plan
// produced by the recursive search (or by a heuristic baseline via
// dp.Evaluate), after checking g's ID invariant (Graph.Topo).
func Generate(g *graph.Graph, p *plan.Plan, opts Options) (*Sharded, error) {
	if _, err := g.Topo(); err != nil {
		return nil, err
	}
	return GenerateStage(g, p, opts, nil)
}

// GenerateStage builds the per-worker structure of the nodes of g that keep
// selects (nil keeps every node) for a plan in g's IDs: a pipeline stage's
// execution over the whole graph, with no copy of the stage. g must hold the
// ID invariant Generate checks; a caller generating every stage of one graph
// checks it once (coarsen.Coarsen has, for a coarsened graph).
func GenerateStage(g *graph.Graph, p *plan.Plan, opts Options, keep func(*graph.Node) bool) (*Sharded, error) {
	if p == nil || p.K < 1 {
		return nil, fmt.Errorf("graphgen: invalid plan")
	}
	kept := len(g.Nodes)
	if keep != nil {
		kept = 0
		for _, n := range g.Nodes {
			if keep(n) {
				kept++
			}
		}
	}
	sh := &Sharded{
		K: p.K, G: g, Plan: p, Opts: opts,
		Ops:         make([]OpShard, kept),
		TensorShard: make([]int64, len(g.Tensors)),
	}
	levels := 1
	for _, s := range p.Steps {
		if s.Level+1 > levels {
			levels = s.Level + 1
		}
	}
	sh.fillOps(keep, levels)
	return sh, nil
}

// shapeBufLen sizes the input-shape buffer NodeFLOPs fills: wider than any
// operator of the model builders, so the buffer never grows on their graphs
// and Generate allocates a constant number of objects.
const shapeBufLen = 8

// tensorShard sizes t's per-worker shard: its final shape when every step
// cuts it, the whole tensor otherwise. It returns the final shape too, and
// whether the plan has one.
//
//tofu:hotpath part of fillOps
func (sh *Sharded) tensorShard(t *graph.Tensor) (int64, shape.Shape, bool) {
	p := sh.Plan
	fs, ok := p.FinalShapes[t.ID]
	if !ok || !p.CutAtEveryStep(t.ID) {
		// Unreferenced tensors stay whole on every worker.
		return t.Bytes(), fs, ok
	}
	return fs.Bytes(t.DType), fs, ok
}

// fillOps lays out one op shard per kept node, in ID order, with every
// shard's per-level traffic carved from one slab, and sizes the shard of
// every tensor a kept node touches: an output at its producer, a feed at its
// first reader (an entry still 0 is unsized; sizing a zero-byte tensor again
// changes nothing).
//
//tofu:hotpath one pass over the nodes of every cold op; enforced by tofu-vet/hotalloc
func (sh *Sharded) fillOps(keep func(*graph.Node) bool, levels int) {
	p, opts := sh.Plan, sh.Opts
	kf := float64(p.K)
	slab := make([]float64, 2*levels*len(sh.Ops))
	shapes := make([]shape.Shape, 0, shapeBufLen)
	i := 0
	for _, n := range sh.G.Nodes {
		if keep != nil && !keep(n) {
			continue
		}
		for _, in := range n.Inputs {
			if sh.TensorShard[in.ID] == 0 {
				sh.TensorShard[in.ID], _, _ = sh.tensorShard(in)
			}
		}
		b, fs, ok := sh.tensorShard(n.Output)
		sh.TensorShard[n.Output.ID] = b
		os := &sh.Ops[i]
		i++
		os.Node = n
		os.OutShard = n.Output.Shape
		if ok {
			os.OutShard = fs
		}
		os.FLOPs = graph.NodeFLOPs(n, &shapes) / kf
		os.MemBytes = float64(graph.MemBytes(n)) / kf
		os.FetchByLevel, slab = slab[:levels:levels], slab[levels:]
		os.OutByLevel, slab = slab[:levels:levels], slab[levels:]
		// Kernel slab: divide along each step's *strategy* axis.
		rows := 1.0
		if n.Output.Shape.Rank() > 0 {
			rows = float64(n.Output.Shape.Dim(0))
		}
		// Sum the per-step communication; each step's Parts covers all
		// workers, so a single worker moves 1/k of it.
		for _, s := range p.Steps {
			if n.ID >= len(s.OpStrategy) || n.ID >= len(s.OpComm) {
				continue
			}
			if st := s.OpStrategy[n.ID]; st.Axis != "" &&
				st.Kind == partition.SplitOutput && st.OutDim == 0 {
				rows /= float64(s.K)
			}
			parts := s.OpComm[n.ID]
			os.FetchBytes += parts.InBytes / kf
			os.FetchByLevel[s.Level] += parts.InBytes / kf
			if opts.SpreadReduction {
				os.OutCommBytes += parts.OutBytes / kf
				os.OutByLevel[s.Level] += parts.OutBytes / kf
			} else {
				// All partial outputs funnel through one aggregator link.
				os.OutCommBytes += parts.OutBytes
				os.OutByLevel[s.Level] += parts.OutBytes
			}
		}
		os.KernelRows = rows
		if !opts.MultiFetch {
			// Staged split/copy/concatenate moves the fetched region twice.
			os.FetchBytes *= 2
			for l := range os.FetchByLevel {
				os.FetchByLevel[l] *= 2
			}
		}
		sh.TotalFetchBytes += os.FetchBytes
		sh.TotalOutBytes += os.OutCommBytes
	}
}

// Single wraps an unpartitioned graph in the same structure (k = 1, no
// communication) for the single-GPU baselines (Ideal, SmallBatch, Swap).
func Single(g *graph.Graph) (*Sharded, error) {
	nodes, err := g.Topo()
	if err != nil {
		return nil, err
	}
	sh := &Sharded{
		K: 1, G: g,
		Plan:        &plan.Plan{K: 1},
		Opts:        DefaultOptions(),
		Ops:         make([]OpShard, len(nodes)),
		TensorShard: make([]int64, len(g.Tensors)),
	}
	for i, t := range g.Tensors {
		sh.TensorShard[i] = t.Bytes()
	}
	shapes := make([]shape.Shape, 0, shapeBufLen)
	for i, n := range nodes {
		rows := 1.0
		if n.Output.Shape.Rank() > 0 {
			rows = float64(n.Output.Shape.Dim(0))
		}
		sh.Ops[i] = OpShard{
			Node:       n,
			OutShard:   n.Output.Shape,
			KernelRows: rows,
			FLOPs:      graph.NodeFLOPs(n, &shapes),
			MemBytes:   float64(graph.MemBytes(n)),
		}
	}
	return sh, nil
}
