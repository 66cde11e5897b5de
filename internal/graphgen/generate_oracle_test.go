package graphgen

import (
	"fmt"
	"math"
	"reflect"

	"tofu/internal/graph"
	"tofu/internal/partition"
	"tofu/internal/plan"
)

// GenerateReference, SingleReference and DiffReference let the differential
// test, which needs the searches and so lives in package graphgen_test, reach
// the oracle.
var (
	GenerateReference = generateReference
	SingleReference   = singleReference
	DiffReference     = diffReference
)

// referenceSharded is Sharded as it was before PR 25: TensorShard a map
// keyed by tensor ID.
type referenceSharded struct {
	K               int64
	G               *graph.Graph
	Plan            *plan.Plan
	Opts            Options
	Ops             []OpShard
	TensorShard     map[int]int64
	TotalFetchBytes float64
	TotalOutBytes   float64
}

// diffReference names the first field in which a generated structure differs
// from the reference's ("" when there is none). Floats compare by their
// bits, so a change in summation order shows.
func diffReference(sh *Sharded, ref *referenceSharded) string {
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	sameLevels := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if !bits(a[i], b[i]) {
				return false
			}
		}
		return true
	}
	// Single makes a fresh zero-step plan per call.
	if sh.K != ref.K || sh.G != ref.G || !reflect.DeepEqual(sh.Plan, ref.Plan) || sh.Opts != ref.Opts {
		return "K, G, Plan or Opts"
	}
	if !bits(sh.TotalFetchBytes, ref.TotalFetchBytes) || !bits(sh.TotalOutBytes, ref.TotalOutBytes) {
		return fmt.Sprintf("totals %g/%g vs %g/%g", sh.TotalFetchBytes, sh.TotalOutBytes, ref.TotalFetchBytes, ref.TotalOutBytes)
	}
	if len(sh.TensorShard) != len(sh.G.Tensors) || len(ref.TensorShard) != len(sh.G.Tensors) {
		return fmt.Sprintf("%d and %d tensor shards for %d tensors", len(sh.TensorShard), len(ref.TensorShard), len(sh.G.Tensors))
	}
	for _, t := range sh.G.Tensors {
		if sh.TensorShard[t.ID] != ref.TensorShard[t.ID] {
			return fmt.Sprintf("tensor %v: shard %d vs %d", t, sh.TensorShard[t.ID], ref.TensorShard[t.ID])
		}
	}
	if len(sh.Ops) != len(ref.Ops) {
		return fmt.Sprintf("%d ops vs %d", len(sh.Ops), len(ref.Ops))
	}
	for i := range sh.Ops {
		a, b := &sh.Ops[i], &ref.Ops[i]
		if a.Node != b.Node || !a.OutShard.Equal(b.OutShard) || (a.OutShard == nil) != (b.OutShard == nil) {
			return fmt.Sprintf("op %d: node or out shard", i)
		}
		if !bits(a.KernelRows, b.KernelRows) || !bits(a.FLOPs, b.FLOPs) || !bits(a.MemBytes, b.MemBytes) ||
			!bits(a.FetchBytes, b.FetchBytes) || !bits(a.OutCommBytes, b.OutCommBytes) {
			return fmt.Sprintf("op %d (%v): %+v vs %+v", i, a.Node, *a, *b)
		}
		if !sameLevels(a.FetchByLevel, b.FetchByLevel) || !sameLevels(a.OutByLevel, b.OutByLevel) ||
			(a.FetchByLevel == nil) != (b.FetchByLevel == nil) || (a.OutByLevel == nil) != (b.OutByLevel == nil) {
			return fmt.Sprintf("op %d (%v): per-level traffic %v/%v vs %v/%v", i, a.Node, a.FetchByLevel, a.OutByLevel, b.FetchByLevel, b.OutByLevel)
		}
	}
	return ""
}

// generateReference is the map-keyed, append-built Generate that PR 25
// replaced, kept verbatim as the differential oracle (only NodeFLOPs gained
// its buffer argument).
func generateReference(g *graph.Graph, p *plan.Plan, opts Options) (*referenceSharded, error) {
	if p == nil || p.K < 1 {
		return nil, fmt.Errorf("graphgen: invalid plan")
	}
	sh := &referenceSharded{K: p.K, G: g, Plan: p, Opts: opts, TensorShard: make(map[int]int64, len(g.Tensors))}
	kf := float64(p.K)

	for _, t := range g.Tensors {
		fs, ok := p.FinalShapes[t.ID]
		if !ok || len(p.TensorCuts(t.ID)) == 0 {
			// Unreferenced tensors stay whole on every worker.
			sh.TensorShard[t.ID] = t.Bytes()
			continue
		}
		sh.TensorShard[t.ID] = fs.Bytes(t.DType)
	}

	nodes, err := g.Topo()
	if err != nil {
		return nil, err
	}
	levels := 1
	for _, s := range p.Steps {
		if s.Level+1 > levels {
			levels = s.Level + 1
		}
	}
	for _, n := range nodes {
		os := OpShard{
			Node:         n,
			FLOPs:        graph.NodeFLOPs(n, nil) / kf,
			MemBytes:     float64(graph.MemBytes(n)) / kf,
			FetchByLevel: make([]float64, levels),
			OutByLevel:   make([]float64, levels),
		}
		if fs, ok := p.FinalShapes[n.Output.ID]; ok {
			os.OutShard = fs
		} else {
			os.OutShard = n.Output.Shape
		}
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
		sh.Ops = append(sh.Ops, os)
	}
	return sh, nil
}

// singleReference is the Single that PR 25 replaced, verbatim but for the
// NodeFLOPs buffer argument and the per-level traffic: one zero per level of
// the stepless plan, as Generate lays it out.
func singleReference(g *graph.Graph) (*referenceSharded, error) {
	nodes, err := g.Topo()
	if err != nil {
		return nil, err
	}
	sh := &referenceSharded{
		K: 1, G: g,
		Plan:        &plan.Plan{K: 1},
		Opts:        DefaultOptions(),
		TensorShard: make(map[int]int64, len(g.Tensors)),
	}
	for _, t := range g.Tensors {
		sh.TensorShard[t.ID] = t.Bytes()
	}
	for _, n := range nodes {
		rows := 1.0
		if n.Output.Shape.Rank() > 0 {
			rows = float64(n.Output.Shape.Dim(0))
		}
		sh.Ops = append(sh.Ops, OpShard{
			Node:         n,
			OutShard:     n.Output.Shape,
			KernelRows:   rows,
			FLOPs:        graph.NodeFLOPs(n, nil),
			MemBytes:     float64(graph.MemBytes(n)),
			FetchByLevel: []float64{0},
			OutByLevel:   []float64{0},
		})
	}
	return sh, nil
}
