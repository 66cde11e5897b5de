package graph

import "fmt"

// Subgraphed is the result of extracting an induced subgraph: the new graph
// plus the identity maps back into the original. Cross-boundary tensors —
// consumed inside but produced outside, or produced inside for outside
// consumers — appear as producer-less clones (activations and gradients
// become Input-kind feeds; weights, inputs and optimizer state keep their
// kind), so the extraction is a closed, valid graph whose shapes and dtypes
// match the original tensor-for-tensor.
type Subgraphed struct {
	G *Graph
	// TensorID maps a subgraph tensor ID to the original tensor's ID.
	TensorID []int
	// NodeID maps a subgraph node ID to the original node's ID.
	NodeID []int
}

// Subgraph extracts the induced subgraph over a node keep-set, preserving
// construction (topological) order: kept nodes are cloned in ascending
// original ID order, so the clone satisfies the same producers-before-
// consumers invariant Topo verifies. GradOf/Grad and FwdOf links survive
// only when both endpoints are kept; control dependencies on dropped nodes
// are dropped with them.
//
// Nothing in production extracts: a pipeline stage is planned on a view of
// the root coarsening and executes over the whole graph
// (graphgen.GenerateStage). An extraction is the reference a stage's
// execution is held to — the stage as a graph of its own, its feeds made
// explicit — and the frame of the coarsening oracles (CoarsenSub in
// coarsen's tests).
//
// The extraction is built count-then-fill: one pass numbers the kept nodes
// and the tensors they touch (inputs at first sight, then the output — clone
// IDs in the order a node-by-node builder would hand them out) and counts
// every list; then the clones are laid out in exactly-sized slabs — one of
// tensors, one of nodes, one each for all input, consumer and
// control-dependency lists — so the number of allocations does not depend on
// the size of the keep-set. Clones alias their original's Name, Attrs and
// Shape, all immutable after construction.
func (g *Graph) Subgraph(keep func(*Node) bool) (*Subgraphed, error) {
	nT, nN := len(g.Tensors), len(g.Nodes)
	scratch := make([]int32, 2*nT+nN)
	x := extraction{g: g, tmap: scratch[:nT], reads: scratch[nT : 2*nT], nmap: scratch[2*nT:]}

	tensors, nodes, nInputs, nCtrl := 0, 0, 0, 0
	for _, n := range g.Nodes {
		if !keep(n) {
			continue
		}
		for _, in := range n.Inputs {
			if x.tmap[in.ID] == 0 {
				tensors++
				x.tmap[in.ID] = int32(tensors)
			}
			x.reads[in.ID]++
		}
		nInputs += len(n.Inputs)
		if x.tmap[n.Output.ID] != 0 {
			// A consumer saw this tensor before its producer ran — the
			// original graph would have failed Topo the same way.
			return nil, fmt.Errorf("graph: subgraph node %v produces already-extracted tensor %v", n, n.Output)
		}
		tensors++
		x.tmap[n.Output.ID] = int32(tensors)
		for _, d := range n.CtrlDeps {
			if x.nmap[d.ID] != 0 {
				nCtrl++
			}
		}
		nodes++
		x.nmap[n.ID] = int32(nodes)
	}

	ids := make([]int, tensors+nodes)
	x.sub = &Subgraphed{
		G: &Graph{
			Nodes:        make([]*Node, nodes),
			Tensors:      make([]*Tensor, tensors),
			nextTensorID: tensors,
			nextNodeID:   nodes,
			registry:     g.registry,
		},
		TensorID: ids[:tensors:tensors],
		NodeID:   ids[tensors:],
	}
	x.tslab = make([]Tensor, tensors)
	x.nslab = make([]Node, nodes)
	x.inputs = make([]*Tensor, nInputs)
	x.consumers = make([]*Node, nInputs) // one entry per kept read
	if nCtrl > 0 {
		x.ctrl = make([]*Node, nCtrl)
	}
	x.fillTensors()
	x.fillNodes()
	if err := x.sub.G.Validate(); err != nil {
		return nil, fmt.Errorf("graph: extracted subgraph invalid: %w", err)
	}
	return x.sub, nil
}

// extraction is the working state of one Subgraph call between its count
// and fill passes.
type extraction struct {
	g   *Graph
	sub *Subgraphed
	// tmap and nmap map an original tensor or node ID to its clone's ID + 1
	// (0 = not extracted); reads counts, per original tensor, the kept
	// nodes' input positions holding it — its clone's consumer-list length.
	tmap, reads, nmap []int32
	// The clones, and the slabs their lists are carved from front to back.
	tslab     []Tensor
	nslab     []Node
	inputs    []*Tensor
	consumers []*Node
	ctrl      []*Node
}

// fillTensors lays out every extracted tensor's clone. A clone whose
// producer was not kept is an external feed: produced values arrive as
// Input-kind tensors, while parameters, state and tensors that were
// producer-less to begin with (inputs, seeds) keep their kind. Gradient
// pairing survives when both tensors were extracted — the coarsening pass
// reads it to group forward and backward operators.
//
//tofu:hotpath fill pass of every extraction; enforced by tofu-vet/hotalloc
func (x *extraction) fillTensors() {
	for _, t := range x.g.Tensors {
		if x.tmap[t.ID] == 0 {
			continue
		}
		id := int(x.tmap[t.ID]) - 1
		ct := &x.tslab[id] // zeroed: set field by field, no struct copy
		ct.ID, ct.Name, ct.Shape, ct.DType, ct.Kind = id, t.Name, t.Shape, t.DType, t.Kind
		if t.Producer != nil && x.nmap[t.Producer.ID] == 0 && (t.Kind == Activation || t.Kind == Gradient) {
			ct.Kind = Input
		}
		if r := int(x.reads[t.ID]); r > 0 {
			ct.Consumers, x.consumers = x.consumers[:0:r], x.consumers[r:]
		}
		if t.GradOf != nil && x.tmap[t.GradOf.ID] != 0 {
			ct.GradOf = &x.tslab[x.tmap[t.GradOf.ID]-1]
		}
		if t.Grad != nil && x.tmap[t.Grad.ID] != 0 {
			ct.Grad = &x.tslab[x.tmap[t.Grad.ID]-1]
		}
		x.sub.G.Tensors[id] = ct
		x.sub.TensorID[id] = t.ID
	}
}

// fillNodes lays out the kept nodes' clones in order, which appends each to
// its inputs' consumer lists in the order Apply would have. Links to nodes
// cloned later (none in a graph that passes Topo) are dropped like links to
// nodes that were not kept.
//
//tofu:hotpath fill pass of every extraction; enforced by tofu-vet/hotalloc
func (x *extraction) fillNodes() {
	for _, n := range x.g.Nodes {
		if x.nmap[n.ID] == 0 {
			continue
		}
		id := int(x.nmap[n.ID]) - 1
		cn := &x.nslab[id] // zeroed: set field by field, no struct copy
		cn.ID, cn.Op, cn.Attrs = id, n.Op, n.Attrs
		cn.GradAgg, cn.InPlace, cn.UnrollTag, cn.Timestep = n.GradAgg, n.InPlace, n.UnrollTag, n.Timestep
		cn.Output = &x.tslab[x.tmap[n.Output.ID]-1]
		cn.Inputs, x.inputs = x.inputs[:len(n.Inputs):len(n.Inputs)], x.inputs[len(n.Inputs):]
		for i, in := range n.Inputs {
			ct := &x.tslab[x.tmap[in.ID]-1]
			cn.Inputs[i] = ct
			ct.Consumers = append(ct.Consumers, cn)
		}
		cn.Output.Producer = cn
		if n.FwdOf != nil && x.cloned(n.FwdOf, id) {
			cn.FwdOf = &x.nslab[x.nmap[n.FwdOf.ID]-1]
		}
		kept := 0
		for _, d := range n.CtrlDeps {
			if x.cloned(d, id) {
				x.ctrl[kept] = &x.nslab[x.nmap[d.ID]-1]
				kept++
			}
		}
		if kept > 0 {
			cn.CtrlDeps, x.ctrl = x.ctrl[:kept:kept], x.ctrl[kept:]
		}
		x.sub.G.Nodes[id] = cn
		x.sub.NodeID[id] = n.ID
	}
}

// cloned reports whether n was kept and cloned before the clone numbered id.
//
//tofu:hotpath part of fillNodes
func (x *extraction) cloned(n *Node, id int) bool {
	c := int(x.nmap[n.ID])
	return c != 0 && c-1 < id
}
