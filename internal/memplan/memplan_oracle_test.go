package memplan

import (
	"tofu/internal/graph"
	"tofu/internal/graphgen"
)

// PlanReference and AliasRootsReference let the differential test, which
// needs the searches and so lives in package memplan_test, reach the oracle.
var (
	PlanReference       = planReference
	AliasRootsReference = aliasRootsReference
)

// aliasRootsReference is the map-keyed AliasRoots that PR 25 replaced, kept
// verbatim as the differential oracle.
func aliasRootsReference(g *graph.Graph, inPlaceAgg bool) map[int]int {
	inPlace := func(n *graph.Node) bool {
		switch {
		case n.Op == "sgd_update", n.Op == "adam_update":
			return true
		case n.InPlace:
			return inPlaceAgg
		default:
			return false
		}
	}
	roots := make(map[int]int, len(g.Tensors))
	var rootOf func(t *graph.Tensor) int
	rootOf = func(t *graph.Tensor) int {
		if r, ok := roots[t.ID]; ok {
			return r
		}
		r := t.ID
		if t.Producer != nil && inPlace(t.Producer) {
			r = rootOf(t.Producer.Inputs[0])
		}
		roots[t.ID] = r
		return r
	}
	for _, t := range g.Tensors {
		rootOf(t)
	}
	return roots
}

// planReference is the map-keyed Plan that PR 25 replaced, kept verbatim as
// the differential oracle (TensorShard reads index the dense slice with the
// same expression).
func planReference(sh *graphgen.Sharded, opt Options) Report {
	var rep Report

	persistentKind := func(k graph.TensorKind) bool {
		return k == graph.Weight || k == graph.OptState || k == graph.Input
	}
	for _, t := range sh.G.Tensors {
		if persistentKind(t.Kind) {
			rep.PersistentBytes += sh.TensorShard[t.ID]
		}
	}

	inPlace := func(n *graph.Node) bool {
		switch {
		case n.Op == "sgd_update", n.Op == "adam_update":
			return true // frameworks update parameters in place
		case n.InPlace:
			return opt.InPlaceAggregation
		default:
			return false
		}
	}

	// Resolve alias chains: an in-place op's output shares its first
	// input's buffer; the buffer's root is the original allocation.
	rootCache := make(map[int]*graph.Tensor, len(sh.G.Tensors))
	var rootOf func(t *graph.Tensor) *graph.Tensor
	rootOf = func(t *graph.Tensor) *graph.Tensor {
		if r, ok := rootCache[t.ID]; ok {
			return r
		}
		r := t
		if t.Producer != nil && inPlace(t.Producer) {
			r = rootOf(t.Producer.Inputs[0])
		}
		rootCache[t.ID] = r
		return r
	}

	// External reference counts per root buffer: consumptions that extend
	// the alias chain are internal and don't pin the buffer.
	refs := make(map[int]int, len(sh.G.Tensors))
	for _, t := range sh.G.Tensors {
		r := rootOf(t)
		for _, c := range t.Consumers {
			if inPlace(c) && c.Inputs[0] == t {
				continue
			}
			refs[r.ID]++
		}
	}

	var cur int64
	live := make(map[int]bool)
	bump := func(delta int64) {
		cur += delta
		if cur > rep.TransientPeak {
			rep.TransientPeak = cur
		}
	}
	release := func(r *graph.Tensor) {
		if !opt.Reuse || persistentKind(r.Kind) || !live[r.ID] {
			return
		}
		live[r.ID] = false
		cur -= sh.TensorShard[r.ID]
	}

	for _, os := range sh.Ops {
		n := os.Node

		// Communication staging for this op's remote regions, live only
		// while the operator runs.
		commBuf := int64(os.FetchBytes + os.OutCommBytes)
		if commBuf > rep.CommBufferPeak {
			rep.CommBufferPeak = commBuf
		}
		bump(commBuf + opt.WorkspacePerOp)

		// Allocate the output buffer unless it aliases an existing one.
		outRoot := rootOf(n.Output)
		if outRoot == n.Output && !persistentKind(n.Output.Kind) {
			bump(sh.TensorShard[n.Output.ID])
			live[n.Output.ID] = true
		}

		// Release roots whose last external consumer just ran.
		for _, in := range n.Inputs {
			if inPlace(n) && in == n.Inputs[0] {
				continue // internal alias extension
			}
			r := rootOf(in)
			refs[r.ID]--
			if refs[r.ID] == 0 {
				release(r)
			}
		}
		// Terminal outputs nobody will read die immediately.
		if refs[outRoot.ID] == 0 {
			release(outRoot)
		}
		cur -= commBuf + opt.WorkspacePerOp
	}

	rep.PeakBytes = rep.PersistentBytes + rep.TransientPeak
	return rep
}
