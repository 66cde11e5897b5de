// Package graph implements the fine-grained tensor dataflow graph that Tofu
// partitions — the role MXNet/NNVM plays for the original prototype. A graph
// holds operator nodes and tensor edges with statically inferred shapes;
// reverse-mode autodiff generates the backward nodes the same way MXNet's
// gradient pass does, which is what gives the coarsening pass its
// forward/backward structure to exploit (Sec 5.1).
//
//tofu:searchpath reachable from dp.Solve / recursive.Partition; nodeterm enforces determinism
package graph

import (
	"fmt"
	"strconv"

	"tofu/internal/shape"
	"tofu/internal/tdl"
)

// TensorKind classifies tensors for coarsening, memory planning and the
// baselines (e.g. the swapping engine treats weights as read-only).
type TensorKind int

const (
	// Activation tensors are produced by forward operators.
	Activation TensorKind = iota
	// Input tensors are externally fed (data batches, labels, initial RNN
	// state).
	Input
	// Weight tensors are trainable parameters.
	Weight
	// Gradient tensors are produced by backward operators.
	Gradient
	// OptState tensors are optimizer history (Adam/Adagrad moments); the
	// paper's 3·W memory accounting counts weight + gradient + history.
	OptState
)

func (k TensorKind) String() string {
	switch k {
	case Activation:
		return "activation"
	case Input:
		return "input"
	case Weight:
		return "weight"
	case Gradient:
		return "gradient"
	case OptState:
		return "optstate"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Tensor is one edge of the dataflow graph.
type Tensor struct {
	ID   int
	Name string
	// Shape is immutable after construction: extractions (Subgraph) and
	// coarsened variables alias it, and the searches divide slab copies of
	// their own (shape.SplitInPlace), never a tensor's.
	Shape     shape.Shape
	DType     shape.DType
	Kind      TensorKind
	Producer  *Node   // nil for Input/Weight/OptState
	Consumers []*Node // every node reading this tensor

	// GradOf links a Gradient tensor back to the forward tensor it
	// differentiates; the coarsening pass groups the pair (Sec 5.1).
	GradOf *Tensor
	// Grad links a forward tensor to its gradient once autodiff has run.
	Grad *Tensor
}

// Bytes returns the tensor's storage size.
func (t *Tensor) Bytes() int64 { return t.Shape.Bytes(t.DType) }

func (t *Tensor) String() string {
	return fmt.Sprintf("%s%v#%d", t.Name, t.Shape, t.ID)
}

// Node is one operator instance.
type Node struct {
	ID     int
	Op     string // TDL registry name
	Attrs  tdl.Attrs
	Inputs []*Tensor
	Output *Tensor

	// FwdOf links a backward node to the forward node it differentiates.
	FwdOf *Node
	// GradAgg marks gradient-accumulation adds introduced by autodiff when a
	// tensor has multiple gradient contributions. InPlace reports whether the
	// runtime aggregates in place (MXNet does; TensorFlow's lack of it is
	// why Table 3 shows ~2x: Sec 7.2 "Comparing with TensorFlow").
	GradAgg bool
	InPlace bool
	// UnrollTag identifies repeated RNN cell structure: nodes sharing a tag
	// across timesteps are coalesced by the search (Sec 5.1, "Merging
	// unrolled timesteps"). Empty for non-recurrent nodes.
	UnrollTag string
	// Timestep is the unroll position for UnrollTag'd nodes.
	Timestep int
	// CtrlDeps are extra control dependencies (Fig 7) added by graph
	// generation so the memory planner can reuse buffers.
	CtrlDeps []*Node
}

func (n *Node) String() string {
	return fmt.Sprintf("%s#%d", n.Op, n.ID)
}

// Graph is a dataflow graph under construction or transformation. A node's
// or tensor's ID is its position in Nodes or Tensors; Validate checks it, and
// everything downstream that keeps per-node or per-tensor state in dense
// slices (Subgraph, graphgen, memplan, sim) relies on it.
type Graph struct {
	Nodes   []*Node
	Tensors []*Tensor

	nextTensorID int
	nextNodeID   int
	registry     *tdl.Registry

	// Construction slabs: Apply hands out nodes, tensors, input lists and
	// first consumer lists from chunks the graph owns (newChunk sizes them),
	// and reuses one buffer for the input shapes it passes to InferShape.
	nodeSlab     []Node
	tensorSlab   []Tensor
	inputSlab    []*Tensor
	consumerSlab []*Node
	shapeBuf     []shape.Shape
}

// newChunk sizes the next construction slab chunk: as large as the graph
// already is, so a graph's chunks at most double what it holds and a small
// graph gets small chunks, capped at maxChunk objects.
func newChunk(have, need int) int {
	const maxChunk = 1024
	return max(need, min(have, maxChunk), 1)
}

// newNode hands out a zeroed node from the node slab.
func (g *Graph) newNode() *Node {
	if len(g.nodeSlab) == 0 {
		g.nodeSlab = make([]Node, newChunk(len(g.Nodes), 1))
	}
	n := &g.nodeSlab[0]
	g.nodeSlab = g.nodeSlab[1:]
	return n
}

// addTensor appends a tensor from the tensor slab. It takes ownership of s:
// shapes are immutable after construction.
func (g *Graph) addTensor(name string, kind TensorKind, s shape.Shape, d shape.DType) *Tensor {
	if len(g.tensorSlab) == 0 {
		g.tensorSlab = make([]Tensor, newChunk(len(g.Tensors), 1))
	}
	t := &g.tensorSlab[0]
	g.tensorSlab = g.tensorSlab[1:]
	t.ID, t.Name, t.Shape, t.DType, t.Kind = g.nextTensorID, name, s, d, kind
	g.nextTensorID++
	g.Tensors = append(g.Tensors, t)
	return t
}

// inputList copies a node's inputs into the input slab, capacity-limited so
// an append to one list cannot overwrite the next.
func (g *Graph) inputList(inputs []*Tensor) []*Tensor {
	k := len(inputs)
	if k == 0 {
		return nil
	}
	if len(g.inputSlab) < k {
		g.inputSlab = make([]*Tensor, newChunk(2*len(g.Nodes), k))
	}
	l := g.inputSlab[:k:k]
	g.inputSlab = g.inputSlab[k:]
	copy(l, inputs)
	return l
}

// consumerList carves an empty consumer list of capacity 2 (most tensors
// have one or two readers) from the consumer slab; a longer list outgrows it
// by append as before.
func (g *Graph) consumerList() []*Node {
	if len(g.consumerSlab) < 2 {
		g.consumerSlab = make([]*Node, 2*newChunk(len(g.Tensors), 1))
	}
	l := g.consumerSlab[:0:2]
	g.consumerSlab = g.consumerSlab[2:]
	return l
}

// rankAttrs are the shared, read-only attributes of an element-wise node
// given no attributes of its own, by rank (attributes are never mutated;
// Subgraph aliases them too).
var rankAttrs = func() (a [9]tdl.Attrs) {
	for r := range a {
		a[r] = tdl.Attrs{"rank": int64(r)}
	}
	return a
}()

// New creates an empty graph bound to the standard operator registry.
func New() *Graph { return NewWithRegistry(tdl.Std) }

// NewWithRegistry creates an empty graph bound to a custom registry.
func NewWithRegistry(r *tdl.Registry) *Graph {
	return &Graph{registry: r}
}

// Registry returns the operator registry this graph resolves ops against.
func (g *Graph) Registry() *tdl.Registry { return g.registry }

// NewTensor adds a tensor with no producer, holding a copy of s.
func (g *Graph) NewTensor(name string, kind TensorKind, s shape.Shape, d shape.DType) *Tensor {
	return g.addTensor(name, kind, s.Clone(), d)
}

// Input adds an externally-fed tensor.
func (g *Graph) Input(name string, s shape.Shape) *Tensor {
	return g.NewTensor(name, Input, s, shape.Float32)
}

// Weight adds a trainable parameter tensor.
func (g *Graph) Weight(name string, s shape.Shape) *Tensor {
	return g.NewTensor(name, Weight, s, shape.Float32)
}

// OptState adds an optimizer-history tensor for the given weight.
func (g *Graph) OptState(w *Tensor) *Tensor {
	return g.NewTensor(w.Name+".hist", OptState, w.Shape, w.DType)
}

// Apply adds an operator node, inferring the output shape from the op's
// registered shape function. It panics on malformed graphs — model builders
// are static code, so a panic is a programming error, matching how MXNet's
// symbol API fails fast at graph construction time.
func (g *Graph) Apply(op string, attrs tdl.Attrs, inputs ...*Tensor) *Tensor {
	t, err := g.TryApply(op, attrs, inputs...)
	if err != nil {
		panic(err)
	}
	return t
}

// TryApply is Apply returning an error instead of panicking.
func (g *Graph) TryApply(op string, attrs tdl.Attrs, inputs ...*Tensor) (*Tensor, error) {
	info, err := Info(op)
	if err != nil {
		return nil, err
	}
	shapes := g.shapeBuf[:0]
	for i, in := range inputs {
		if in == nil {
			return nil, fmt.Errorf("graph: %s input %d is nil", op, i)
		}
		shapes = append(shapes, in.Shape)
	}
	g.shapeBuf = shapes
	out, err := info.InferShape(attrs, shapes)
	if err != nil {
		return nil, fmt.Errorf("graph: %s: %w", op, err)
	}
	if info.NeedsRank {
		// The element-wise TDL descriptions are parameterized by rank; stamp
		// it on the node so partition analysis sees matching shapes.
		r := shapes[0].Rank()
		if len(attrs) == 0 && r < len(rankAttrs) {
			attrs = rankAttrs[r]
		} else {
			merged := tdl.Attrs{"rank": int64(r)}
			for k, v := range attrs {
				merged[k] = v
			}
			attrs = merged
		}
	}
	n := g.newNode()
	n.ID, n.Op, n.Attrs, n.Inputs = g.nextNodeID, op, attrs, g.inputList(inputs)
	g.nextNodeID++
	// The output owns the shape InferShape returned.
	n.Output = g.addTensor(nodeName(op, n.ID), Activation, out, shape.Float32)
	n.Output.Producer = n
	for _, in := range inputs {
		if in.Consumers == nil {
			in.Consumers = g.consumerList()
		}
		in.Consumers = append(in.Consumers, n)
	}
	g.Nodes = append(g.Nodes, n)
	return n.Output, nil
}

// nodeName is op + "_" + the node ID, built in one allocation.
func nodeName(op string, id int) string {
	var buf [48]byte
	return string(strconv.AppendInt(append(append(buf[:0], op...), '_'), int64(id), 10))
}

// Describe resolves the TDL description for a node.
func (g *Graph) Describe(n *Node) (*tdl.OpDesc, error) {
	return g.registry.Describe(n.Op, n.Attrs)
}

// Topo returns the nodes in a topological order (inputs first). The graph is
// built append-only with producers before consumers, and transformations
// preserve that invariant, so construction order is already topological; we
// verify rather than re-sort, failing loudly on corruption. The result is
// g.Nodes itself, which callers must not modify.
func (g *Graph) Topo() ([]*Node, error) {
	if err := g.checkOrder(); err != nil {
		return nil, err
	}
	return g.Nodes, nil
}

// checkOrder verifies that construction order is topological and that IDs
// are positions, without allocating. Apply and Subgraph number nodes and
// tensors as they append them, so a node's ID is its position and "already
// executed" is an ID comparison, and per-tensor state can live in a slice
// indexed by tensor ID. A node or tensor that is out of place, a node reading
// or writing a tensor that is not this graph's tensor of that ID, or a
// producer or control dependency that is not this graph's node of that ID,
// is a violation.
func (g *Graph) checkOrder() error {
	for i, t := range g.Tensors {
		if t.ID != i {
			return fmt.Errorf("graph: tensor %v sits at position %d", t, i)
		}
	}
	for i, n := range g.Nodes {
		if n.ID != i {
			return fmt.Errorf("graph: node %v sits at position %d", n, i)
		}
		if n.Output != nil && !g.owns(n.Output) { // nil fails Validate's link check
			return fmt.Errorf("graph: node %v writes %v, not a tensor of this graph", n, n.Output)
		}
		for _, in := range n.Inputs {
			if !g.owns(in) {
				return fmt.Errorf("graph: node %v reads %v, not a tensor of this graph", n, in)
			}
			if p := in.Producer; p != nil && (p.ID < 0 || p.ID >= i || g.Nodes[p.ID] != p) {
				return fmt.Errorf("graph: node %v consumes %v before production", n, in)
			}
		}
		for _, d := range n.CtrlDeps {
			if d.ID < 0 || d.ID >= i || g.Nodes[d.ID] != d {
				return fmt.Errorf("graph: node %v control-depends on later node %v", n, d)
			}
		}
	}
	return nil
}

// owns reports whether t is this graph's tensor of its ID.
func (g *Graph) owns(t *Tensor) bool {
	return t != nil && t.ID >= 0 && t.ID < len(g.Tensors) && g.Tensors[t.ID] == t
}

// Validate checks structural invariants: shape validity, consumer/producer
// symmetry and topological construction order.
func (g *Graph) Validate() error {
	if err := g.checkOrder(); err != nil {
		return err
	}
	for _, t := range g.Tensors {
		if !t.Shape.Valid() {
			return fmt.Errorf("graph: tensor %v has invalid shape", t)
		}
		for _, c := range t.Consumers {
			found := false
			for _, in := range c.Inputs {
				if in == t {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("graph: consumer list of %v includes non-consumer %v", t, c)
			}
		}
	}
	for _, n := range g.Nodes {
		if n.Output == nil || n.Output.Producer != n {
			return fmt.Errorf("graph: node %v has broken output link", n)
		}
	}
	return nil
}

// Stats summarizes a graph the way the paper reports model properties.
type Stats struct {
	NumNodes      int
	NumTensors    int
	WeightBytes   int64 // parameters only
	WeightBytes3x int64 // weight + gradient + optimizer history (Table 2)
	ActivationCnt int
}

// ComputeStats scans the graph.
func (g *Graph) ComputeStats() Stats {
	st := Stats{NumNodes: len(g.Nodes), NumTensors: len(g.Tensors)}
	for _, t := range g.Tensors {
		switch t.Kind {
		case Weight:
			st.WeightBytes += t.Bytes()
		case Activation:
			st.ActivationCnt++
		}
	}
	st.WeightBytes3x = 3 * st.WeightBytes
	return st
}

// Weights returns all weight tensors in creation order.
func (g *Graph) Weights() []*Tensor {
	var out []*Tensor
	for _, t := range g.Tensors {
		if t.Kind == Weight {
			out = append(out, t)
		}
	}
	return out
}

// Inputs returns all externally fed tensors in creation order.
func (g *Graph) Inputs() []*Tensor {
	var out []*Tensor
	for _, t := range g.Tensors {
		if t.Kind == Input {
			out = append(out, t)
		}
	}
	return out
}
