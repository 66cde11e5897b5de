package graph

import (
	"fmt"
	"slices"
)

// SubgraphReference and DiffSubgraphed let the differential test, which
// needs the model builders and so lives in package graph_test, reach the
// oracle.
var (
	SubgraphReference = subgraphReference
	DiffSubgraphed    = diffSubgraphed
)

// diffSubgraphed names the first field in which two extractions of one graph
// differ ("" when there is none). Links are compared by the ID of what they
// point at, nil as -1; list order matters everywhere.
func diffSubgraphed(a, b *Subgraphed) string {
	if !slices.Equal(a.TensorID, b.TensorID) || !slices.Equal(a.NodeID, b.NodeID) {
		return "TensorID/NodeID maps"
	}
	if len(a.G.Tensors) != len(b.G.Tensors) || len(a.G.Nodes) != len(b.G.Nodes) {
		return fmt.Sprintf("%d tensors and %d nodes vs %d and %d", len(a.G.Tensors), len(a.G.Nodes), len(b.G.Tensors), len(b.G.Nodes))
	}
	if a.G.nextTensorID != b.G.nextTensorID || a.G.nextNodeID != b.G.nextNodeID || a.G.registry != b.G.registry {
		return "next IDs or registry"
	}
	tid := func(t *Tensor) int {
		if t == nil {
			return -1
		}
		return t.ID
	}
	nid := func(n *Node) int {
		if n == nil {
			return -1
		}
		return n.ID
	}
	sameNodes := func(x, y []*Node) bool {
		return slices.EqualFunc(x, y, func(n, m *Node) bool { return n.ID == m.ID })
	}
	for i, t := range a.G.Tensors {
		u := b.G.Tensors[i]
		if t.ID != i || u.ID != i || t.Name != u.Name || t.Kind != u.Kind || t.DType != u.DType || !t.Shape.Equal(u.Shape) {
			return fmt.Sprintf("tensor %d: %v %v vs %v %v", i, t, t.Kind, u, u.Kind)
		}
		if tid(t.GradOf) != tid(u.GradOf) || tid(t.Grad) != tid(u.Grad) || nid(t.Producer) != nid(u.Producer) {
			return fmt.Sprintf("tensor %d (%v): GradOf/Grad/Producer links", i, t)
		}
		if !sameNodes(t.Consumers, u.Consumers) {
			return fmt.Sprintf("tensor %d (%v): consumers %v vs %v", i, t, t.Consumers, u.Consumers)
		}
	}
	for i, n := range a.G.Nodes {
		m := b.G.Nodes[i]
		if n.ID != i || m.ID != i || n.Op != m.Op || n.GradAgg != m.GradAgg || n.InPlace != m.InPlace ||
			n.UnrollTag != m.UnrollTag || n.Timestep != m.Timestep || len(n.Attrs) != len(m.Attrs) {
			return fmt.Sprintf("node %d: %v vs %v", i, n, m)
		}
		for k, v := range n.Attrs {
			if w, ok := m.Attrs[k]; !ok || v != w {
				return fmt.Sprintf("node %d (%v): attribute %q", i, n, k)
			}
		}
		if tid(n.Output) != tid(m.Output) || nid(n.FwdOf) != nid(m.FwdOf) || !sameNodes(n.CtrlDeps, m.CtrlDeps) {
			return fmt.Sprintf("node %d (%v): Output/FwdOf/CtrlDeps links", i, n)
		}
		if !slices.EqualFunc(n.Inputs, m.Inputs, func(t, u *Tensor) bool { return t.ID == u.ID }) {
			return fmt.Sprintf("node %d (%v): inputs %v vs %v", i, n, n.Inputs, m.Inputs)
		}
	}
	// A link must point into its own graph, not merely at an equal ID.
	for _, s := range []*Subgraphed{a, b} {
		for _, t := range s.G.Tensors {
			for _, l := range []*Tensor{t.GradOf, t.Grad} {
				if l != nil && s.G.Tensors[l.ID] != l {
					return fmt.Sprintf("tensor %v links outside its graph", t)
				}
			}
			if t.Producer != nil && s.G.Nodes[t.Producer.ID] != t.Producer {
				return fmt.Sprintf("tensor %v produced outside its graph", t)
			}
			for _, c := range t.Consumers {
				if s.G.Nodes[c.ID] != c {
					return fmt.Sprintf("tensor %v consumed outside its graph", t)
				}
			}
		}
		for _, n := range s.G.Nodes {
			for _, in := range n.Inputs {
				if s.G.Tensors[in.ID] != in {
					return fmt.Sprintf("node %v reads outside its graph", n)
				}
			}
			if s.G.Tensors[n.Output.ID] != n.Output || (n.FwdOf != nil && s.G.Nodes[n.FwdOf.ID] != n.FwdOf) {
				return fmt.Sprintf("node %v links outside its graph", n)
			}
			for _, d := range n.CtrlDeps {
				if s.G.Nodes[d.ID] != d {
					return fmt.Sprintf("node %v control-depends outside its graph", n)
				}
			}
		}
	}
	return ""
}

// subgraphReference is the append-based extraction Subgraph replaced (PR 15),
// kept verbatim as the differential oracle: one tensor and one node object
// per clone, consumer and control-dependency lists grown by append, shapes
// deep-copied by NewTensor.
func subgraphReference(g *Graph, keep func(*Node) bool) (*Subgraphed, error) {
	sub := &Subgraphed{G: NewWithRegistry(g.registry)}
	tmap := make([]*Tensor, len(g.Tensors)) // original tensor ID -> clone
	nmap := make([]*Node, len(g.Nodes))     // original node ID -> clone

	// cloneTensor materializes a tensor into the subgraph. producerKept
	// reports whether the producing node (if any) is part of the keep-set;
	// when it is not, the clone is an external feed: produced values arrive
	// as Input-kind tensors, parameters and state keep their kind.
	cloneTensor := func(t *Tensor, producerKept bool) *Tensor {
		kind := t.Kind
		// Only a severed producer demotes the clone to a feed; tensors that
		// were producer-less to begin with (inputs, seeds) keep their kind.
		if t.Producer != nil && !producerKept && (kind == Activation || kind == Gradient) {
			kind = Input
		}
		ct := sub.G.NewTensor(t.Name, kind, t.Shape, t.DType)
		ct.DType = t.DType
		tmap[t.ID] = ct
		sub.TensorID = append(sub.TensorID, t.ID)
		return ct
	}

	for _, n := range g.Nodes {
		if !keep(n) {
			continue
		}
		inputs := make([]*Tensor, len(n.Inputs))
		for i, in := range n.Inputs {
			ct := tmap[in.ID]
			if ct == nil {
				ct = cloneTensor(in, in.Producer != nil && nmap[in.Producer.ID] != nil)
			}
			inputs[i] = ct
		}
		if tmap[n.Output.ID] != nil {
			// A consumer saw this tensor before its producer ran — the
			// original graph would have failed Topo the same way.
			return nil, fmt.Errorf("graph: subgraph node %v produces already-extracted tensor %v", n, n.Output)
		}
		out := cloneTensor(n.Output, true)
		cn := &Node{
			ID:        sub.G.nextNodeID,
			Op:        n.Op,
			Attrs:     n.Attrs,
			Inputs:    inputs,
			Output:    out,
			GradAgg:   n.GradAgg,
			InPlace:   n.InPlace,
			UnrollTag: n.UnrollTag,
			Timestep:  n.Timestep,
		}
		sub.G.nextNodeID++
		out.Producer = cn
		for _, in := range inputs {
			in.Consumers = append(in.Consumers, cn)
		}
		if n.FwdOf != nil && nmap[n.FwdOf.ID] != nil {
			cn.FwdOf = nmap[n.FwdOf.ID]
		}
		for _, d := range n.CtrlDeps {
			if cd := nmap[d.ID]; cd != nil {
				cn.CtrlDeps = append(cn.CtrlDeps, cd)
			}
		}
		nmap[n.ID] = cn
		sub.NodeID = append(sub.NodeID, n.ID)
		sub.G.Nodes = append(sub.G.Nodes, cn)
	}

	// Gradient pairing survives when both tensors were extracted — the
	// coarsening pass reads it to group forward and backward operators.
	for subID, origID := range sub.TensorID {
		ot := g.Tensors[origID]
		ct := sub.G.Tensors[subID]
		if ot.GradOf != nil && tmap[ot.GradOf.ID] != nil {
			ct.GradOf = tmap[ot.GradOf.ID]
		}
		if ot.Grad != nil && tmap[ot.Grad.ID] != nil {
			ct.Grad = tmap[ot.Grad.ID]
		}
	}
	if err := sub.G.Validate(); err != nil {
		return nil, fmt.Errorf("graph: extracted subgraph invalid: %w", err)
	}
	return sub, nil
}
