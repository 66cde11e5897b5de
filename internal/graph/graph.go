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

// Graph is a dataflow graph under construction or transformation.
type Graph struct {
	Nodes   []*Node
	Tensors []*Tensor

	nextTensorID int
	nextNodeID   int
	registry     *tdl.Registry
}

// New creates an empty graph bound to the standard operator registry.
func New() *Graph { return NewWithRegistry(tdl.Std) }

// NewWithRegistry creates an empty graph bound to a custom registry.
func NewWithRegistry(r *tdl.Registry) *Graph {
	return &Graph{registry: r}
}

// Registry returns the operator registry this graph resolves ops against.
func (g *Graph) Registry() *tdl.Registry { return g.registry }

// NewTensor adds a tensor with no producer.
func (g *Graph) NewTensor(name string, kind TensorKind, s shape.Shape, d shape.DType) *Tensor {
	t := &Tensor{ID: g.nextTensorID, Name: name, Shape: s.Clone(), DType: d, Kind: kind}
	g.nextTensorID++
	g.Tensors = append(g.Tensors, t)
	return t
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
	shapes := make([]shape.Shape, len(inputs))
	for i, in := range inputs {
		if in == nil {
			return nil, fmt.Errorf("graph: %s input %d is nil", op, i)
		}
		shapes[i] = in.Shape
	}
	out, err := info.InferShape(attrs, shapes)
	if err != nil {
		return nil, fmt.Errorf("graph: %s: %w", op, err)
	}
	if info.NeedsRank {
		// The element-wise TDL descriptions are parameterized by rank; stamp
		// it on the node so partition analysis sees matching shapes.
		merged := tdl.Attrs{"rank": int64(shapes[0].Rank())}
		for k, v := range attrs {
			merged[k] = v
		}
		attrs = merged
	}
	kind := Activation
	n := &Node{ID: g.nextNodeID, Op: op, Attrs: attrs, Inputs: inputs}
	g.nextNodeID++
	n.Output = g.NewTensor(fmt.Sprintf("%s_%d", op, n.ID), kind, out, shape.Float32)
	n.Output.Producer = n
	for _, in := range inputs {
		in.Consumers = append(in.Consumers, n)
	}
	g.Nodes = append(g.Nodes, n)
	return n.Output, nil
}

// Describe resolves the TDL description for a node.
func (g *Graph) Describe(n *Node) (*tdl.OpDesc, error) {
	return g.registry.Describe(n.Op, n.Attrs)
}

// Topo returns the nodes in a topological order (inputs first). The graph is
// built append-only with producers before consumers, and transformations
// preserve that invariant, so construction order is already topological; we
// verify rather than re-sort, failing loudly on corruption.
func (g *Graph) Topo() ([]*Node, error) {
	if err := g.checkOrder(); err != nil {
		return nil, err
	}
	return append([]*Node(nil), g.Nodes...), nil
}

// checkOrder verifies that construction order is topological, without
// allocating. Apply and Subgraph number nodes as they append them, so a
// node's ID is its position and "already executed" is an ID comparison; a
// node that is out of place, or a producer or control dependency that is not
// this graph's node of that ID, is a violation too.
func (g *Graph) checkOrder() error {
	for i, n := range g.Nodes {
		if n.ID != i {
			return fmt.Errorf("graph: node %v sits at position %d", n, i)
		}
		for _, in := range n.Inputs {
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
