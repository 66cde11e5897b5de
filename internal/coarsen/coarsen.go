// Package coarsen implements Tofu's graph coarsening (EuroSys'19 Sec 5.1),
// which turns the fine-grained training graph into a near-linear structure
// the dynamic-programming search can handle:
//
//   - forward operators group with their auto-generated backward operators
//     (and gradient-aggregation/optimizer operators), so the coarsened graph
//     is isomorphic to the forward graph;
//   - consecutive element-wise operators coalesce, because an element-wise
//     operator's input and output must always partition identically;
//   - unrolled RNN timesteps merge, because every timestep shares the same
//     computation and weights.
//
// The result is expressed as *variables* (equivalence classes of tensors
// forced to share a partition decision) and *groups* (sets of operators
// whose partition decisions are made together, each organized into *slots*
// of structurally identical per-timestep instances).
//
//tofu:searchpath reachable from dp.Solve / recursive.Partition; nodeterm enforces determinism
package coarsen

import (
	"fmt"
	"sort"

	"tofu/internal/graph"
	"tofu/internal/shape"
	"tofu/internal/tdl"
)

// Var is one partition decision variable: a set of same-shaped tensors that
// must share a cut (element-wise neighbors, timestep twins, and a weight
// with its gradient and optimizer state, which the element-wise update op
// ties together).
type Var struct {
	ID      int
	Tensors []*graph.Tensor
	Shape   shape.Shape // common shape of all members
	// HasWeight marks variables containing a trainable parameter.
	HasWeight bool
	// first/last group index referencing this var; set by buildGroups.
	First, Last int
}

// Bytes returns the per-member storage size times the member count — the
// total bytes this variable's decision governs.
//
//tofu:hotpath allocation-free by PR 3; enforced by tofu-vet/hotalloc
func (v *Var) Bytes() int64 {
	if len(v.Tensors) == 0 {
		return 0
	}
	return v.Tensors[0].Bytes() * int64(len(v.Tensors))
}

func (v *Var) String() string {
	return fmt.Sprintf("var%d%v x%d", v.ID, v.Shape, len(v.Tensors))
}

// Slot is a set of structurally identical operator instances (one per
// timestep for merged RNN cells, exactly one otherwise) that share a
// partition strategy; its cost is priced once and multiplied.
type Slot struct {
	Ops []*graph.Node
	// Desc is the representative operator's TDL description, captured
	// during coarsening (which describes every node anyway) so downstream
	// passes skip the registry lookup.
	Desc *tdl.OpDesc
}

// Rep returns the representative operator.
//
//tofu:hotpath allocation-free by PR 3; enforced by tofu-vet/hotalloc
func (s *Slot) Rep() *graph.Node { return s.Ops[0] }

// Group is one step of the DP: operators whose partition decisions are made
// together (a forward op, its backward ops, attached aggregations and
// updates, merged across timesteps).
type Group struct {
	ID    int
	Slots []*Slot
	// Vars lists every variable any member op touches, sorted by ID.
	Vars []*Var
	// NewVars lists the variables whose liveness starts at this group
	// (First == ID), sorted by ID — the DP decides their cuts here.
	NewVars []*Var
	// LiveAfter lists the variables live across the boundary after this
	// group (First <= ID < Last), sorted by ID. It is the DP's frontier
	// at this boundary: together with each variable's cut-dim alphabet it
	// fixes the packed mixed-radix state encoding.
	LiveAfter []*Var
}

// Coarse is the coarsened view of a training graph. Vars is a dense index:
// Vars[i].ID == i, so a variable's ID addresses per-variable side tables
// (the DP's cut-dim alphabets and packed state digits) directly.
type Coarse struct {
	G      *graph.Graph
	Vars   []*Var
	Groups []*Group
	varOf  []*Var // tensor ID -> var
	// facts is what coarsening looked up about G's nodes; CoarsenSub reads
	// it to coarsen extractions of G without looking anything up again.
	facts nodeFacts
}

// nodeFacts is everything coarsening needs to know about the nodes of a
// graph beyond its structure, dense by node ID.
type nodeFacts struct {
	// desc is each node's TDL description.
	desc []*tdl.OpDesc
	// sig interns each node's (UnrollTag, Op, attribute signature): nodes
	// that may share a timestep slot have equal ids. -1 marks nodes outside
	// any unrolled loop.
	sig []int32
}

// describeNodes computes the node facts of a root graph: one registry
// lookup and, for unrolled nodes, one signature interning per node.
func describeNodes(g *graph.Graph) (nodeFacts, error) {
	type sigKey struct {
		tag, op string
		attrs   tdl.AttrsKey
	}
	f := nodeFacts{desc: make([]*tdl.OpDesc, len(g.Nodes)), sig: make([]int32, len(g.Nodes))}
	ids := map[sigKey]int32{}
	for i, n := range g.Nodes {
		d, err := g.Describe(n)
		if err != nil {
			return nodeFacts{}, fmt.Errorf("coarsen: %v: %w", n, err)
		}
		f.desc[i] = d
		f.sig[i] = -1
		if n.UnrollTag == "" {
			continue
		}
		k := sigKey{tag: n.UnrollTag, op: n.Op, attrs: tdl.MakeAttrsKey(n.Attrs)}
		id, ok := ids[k]
		if !ok {
			id = int32(len(ids))
			ids[k] = id
		}
		f.sig[i] = id
	}
	return f, nil
}

// VarOf returns the variable owning a tensor.
//
//tofu:hotpath allocation-free by PR 3; enforced by tofu-vet/hotalloc
func (c *Coarse) VarOf(t *graph.Tensor) *Var { return c.varOf[t.ID] }

// MaxFrontier returns the maximum number of variables simultaneously live
// across a group boundary — the DP's state width. The paper's linearity
// claim (MLP/CNN/RNN coarsen to chains) shows up here as a small constant.
func (c *Coarse) MaxFrontier() int {
	max := 0
	for _, g := range c.Groups {
		if live := len(g.LiveAfter); live > max {
			max = live
		}
	}
	return max
}

// Coarsen builds the coarsened view of a training graph.
func Coarsen(g *graph.Graph) (*Coarse, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	facts, err := describeNodes(g)
	if err != nil {
		return nil, err
	}
	return coarsen(g, facts)
}

// CoarsenSub coarsens sub.G, an extraction of parent.G (graph.Subgraph), and
// returns exactly what Coarsen(sub.G) would. It is the same algorithm; only
// the node facts come from the parent's through sub.NodeID — a clone keeps
// its original's operator, attributes and unroll tag — and the validation
// Subgraph has just done is not repeated. The pipeline search coarsens
// O(L²) overlapping segments of one graph this way.
func CoarsenSub(parent *Coarse, sub *graph.Subgraphed) (*Coarse, error) {
	n := len(sub.NodeID)
	facts := nodeFacts{desc: make([]*tdl.OpDesc, n), sig: make([]int32, n)}
	for i, id := range sub.NodeID {
		facts.desc[i] = parent.facts.desc[id]
		facts.sig[i] = parent.facts.sig[id]
	}
	return coarsen(sub.G, facts)
}

// coarsen is the coarsening algorithm over a valid graph and its node facts.
func coarsen(g *graph.Graph, facts nodeFacts) (*Coarse, error) {
	// --- tensor variables: union-find over tensors --------------------
	tuf := newUF(len(g.Tensors))

	// Element-wise coalescing: inputs and output of an element-wise op share
	// a partition.
	ewNode := make([]bool, len(g.Nodes))
	for i, n := range g.Nodes {
		if !facts.desc[i].IsElementwise() {
			continue
		}
		ewNode[i] = true
		for _, in := range n.Inputs {
			if in.Shape.Equal(n.Output.Shape) {
				tuf.union(in.ID, n.Output.ID)
			}
		}
	}

	// Timestep merging: structurally identical ops across timesteps share
	// slots; their same-position tensors share variables.
	slots := buildSlots(g, facts.sig)
	for _, ops := range slots {
		rep := ops[0]
		for _, n := range ops[1:] {
			for p := range n.Inputs {
				if n.Inputs[p].Shape.Equal(rep.Inputs[p].Shape) {
					tuf.union(n.Inputs[p].ID, rep.Inputs[p].ID)
				}
			}
			tuf.union(n.Output.ID, rep.Output.ID)
		}
	}

	// Materialize variables.
	c := &Coarse{G: g, varOf: make([]*Var, len(g.Tensors)), facts: facts}
	roots := make([]*Var, len(g.Tensors))
	for _, t := range g.Tensors {
		r := tuf.find(t.ID)
		v := roots[r]
		if v == nil {
			v = &Var{ID: len(c.Vars), Shape: t.Shape}
			roots[r] = v
			c.Vars = append(c.Vars, v)
		}
		if !v.Shape.Equal(t.Shape) {
			return nil, fmt.Errorf("coarsen: variable %v merged mismatched shapes %v vs %v (tensor %v)",
				v, v.Shape, t.Shape, t)
		}
		v.Tensors = append(v.Tensors, t)
		if t.Kind == graph.Weight {
			v.HasWeight = true
		}
		c.varOf[t.ID] = v
	}

	// --- operator groups: union-find over nodes -------------------------
	nuf := newUF(len(g.Nodes))
	// Backward ops join their forward op.
	for _, n := range g.Nodes {
		if n.FwdOf != nil {
			nuf.union(n.ID, n.FwdOf.ID)
		}
	}
	// Optimizer updates join the group producing their gradient input, so a
	// weight variable's whole lifetime (forward use, gradient, update) is
	// decided in one DP step — the paper's weight tensor groups.
	for _, n := range g.Nodes {
		if n.Op != "sgd_update" && n.Op != "adam_update" {
			continue
		}
		if len(n.Inputs) >= 2 && n.Inputs[1].Producer != nil {
			nuf.union(n.ID, n.Inputs[1].Producer.ID)
		}
	}
	// Timestep slot members join.
	for _, ops := range slots {
		for _, n := range ops[1:] {
			nuf.union(n.ID, ops[0].ID)
		}
	}
	// Consecutive element-wise ops coalesce — but only forward operators
	// along single-consumer edges. Backward element-wise ops (and gradient
	// aggregations/identity wraps) already join groups through FwdOf;
	// letting them union freely would bridge residual blocks through the
	// skip connection's shared gradient and fuse a whole ResNet stage into
	// one group, exploding the within-group combinatorial search. Tensor
	// *variables* still merge across all element-wise edges above, which is
	// what collapses the skip chain into a single decision.
	for i, n := range g.Nodes {
		if !ewNode[i] || n.FwdOf != nil || n.GradAgg {
			continue
		}
		for _, in := range n.Inputs {
			p := in.Producer
			if p == nil || len(in.Consumers) != 1 {
				continue
			}
			if ewNode[indexOf(g, p)] && p.FwdOf == nil && !p.GradAgg {
				nuf.union(n.ID, p.ID)
			}
		}
	}

	buildGroups(c, g, nuf, slots)
	return c, nil
}

func indexOf(g *graph.Graph, n *graph.Node) int { return n.ID }

// buildSlots groups UnrollTag'd nodes into per-structural-position slots.
// The slot key is (signature id — tag, op and attributes, see nodeFacts —
// and ordinal among same-signature ops in the same timestep); instances
// whose shapes disagree are left unmerged.
func buildSlots(g *graph.Graph, sig []int32) [][]*graph.Node {
	type key struct {
		sig     int32
		ordinal int
	}
	// ordCount disambiguates several same-signature ops inside one
	// timestep: it counts occurrences per (timestep, signature), flat in
	// one map.
	type ordKey struct {
		ts  int
		sig int32
	}
	ordCount := map[ordKey]int{}
	bySlot := map[key][]*graph.Node{}
	var order []key
	for i, n := range g.Nodes {
		if sig[i] < 0 {
			continue
		}
		ok := ordKey{ts: n.Timestep, sig: sig[i]}
		k := key{sig: sig[i], ordinal: ordCount[ok]}
		ordCount[ok]++
		if _, seen := bySlot[k]; !seen {
			order = append(order, k)
		}
		bySlot[k] = append(bySlot[k], n)
	}

	var out [][]*graph.Node
	for _, k := range order {
		ops := bySlot[k]
		// Keep only shape-consistent instances merged; demote stragglers.
		rep := ops[0]
		var merged []*graph.Node
		for _, n := range ops {
			if sameSignature(rep, n) {
				merged = append(merged, n)
			} else {
				out = append(out, []*graph.Node{n})
			}
		}
		out = append(out, merged)
	}
	return out
}

func sameSignature(a, b *graph.Node) bool {
	if a.Op != b.Op || len(a.Inputs) != len(b.Inputs) {
		return false
	}
	for i := range a.Inputs {
		if !a.Inputs[i].Shape.Equal(b.Inputs[i].Shape) {
			return false
		}
	}
	return a.Output.Shape.Equal(b.Output.Shape)
}

// buildGroups materializes groups from the node union-find, orders them by
// earliest member node, slices each into slots, and computes variable
// liveness (First/Last group references).
func buildGroups(c *Coarse, g *graph.Graph, nuf *uf, slots [][]*graph.Node) {
	members := make([][]*graph.Node, len(g.Nodes)) // union root -> members
	for _, n := range g.Nodes {
		r := nuf.find(n.ID)
		members[r] = append(members[r], n)
	}
	// Order groups by their earliest node ID: forward topological order.
	type gp struct {
		min int
		ns  []*graph.Node
	}
	var gps []gp
	for _, ns := range members {
		if ns == nil {
			continue
		}
		min := ns[0].ID
		for _, n := range ns {
			if n.ID < min {
				min = n.ID
			}
		}
		gps = append(gps, gp{min: min, ns: ns})
	}
	sort.Slice(gps, func(i, j int) bool { return gps[i].min < gps[j].min })

	// Slot membership lookup: node -> slot leader node.
	slotLeader := make([]*graph.Node, len(g.Nodes))
	for _, ops := range slots {
		for _, n := range ops {
			slotLeader[n.ID] = ops[0]
		}
	}

	seen := make([]int, len(c.Vars)) // var ID -> last group stamp + 1
	for gi, grp := range gps {
		group := &Group{ID: gi}
		bySlot := map[int]*Slot{}
		var slotOrder []int
		for _, n := range grp.ns {
			leader := n
			if l := slotLeader[n.ID]; l != nil {
				leader = l
			}
			s, ok := bySlot[leader.ID]
			if !ok {
				s = &Slot{}
				bySlot[leader.ID] = s
				slotOrder = append(slotOrder, leader.ID)
			}
			s.Ops = append(s.Ops, n)
		}
		sort.Ints(slotOrder)
		for _, id := range slotOrder {
			s := bySlot[id]
			s.Desc = c.facts.desc[s.Ops[0].ID]
			group.Slots = append(group.Slots, s)
			for _, n := range s.Ops {
				for _, in := range n.Inputs {
					v := c.varOf[in.ID]
					if seen[v.ID] != gi+1 {
						seen[v.ID] = gi + 1
						group.Vars = append(group.Vars, v)
					}
				}
				v := c.varOf[n.Output.ID]
				if seen[v.ID] != gi+1 {
					seen[v.ID] = gi + 1
					group.Vars = append(group.Vars, v)
				}
			}
		}
		sort.Slice(group.Vars, func(i, j int) bool { return group.Vars[i].ID < group.Vars[j].ID })
		c.Groups = append(c.Groups, group)
	}

	// Variable liveness across the group order.
	for _, v := range c.Vars {
		v.First, v.Last = -1, -1
	}
	for gi, grp := range c.Groups {
		for _, v := range grp.Vars {
			if v.First < 0 {
				v.First = gi
			}
			v.Last = gi
		}
	}
	// Variables never referenced by any op (dangling tensors) live nowhere;
	// they are dropped from the DP by construction.

	// Dense per-group liveness slices (c.Vars is ID-ordered, so appends in
	// Var order keep both slices sorted by ID).
	for gi, grp := range c.Groups {
		for _, v := range grp.Vars {
			if v.First == gi {
				grp.NewVars = append(grp.NewVars, v)
			}
		}
		for _, v := range c.Vars {
			if v.First <= gi && v.Last > gi {
				grp.LiveAfter = append(grp.LiveAfter, v)
			}
		}
	}
}

// --- tiny union-find -------------------------------------------------------

type uf struct{ parent []int }

func newUF(n int) *uf {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &uf{parent: p}
}

func (u *uf) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *uf) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[rb] = ra
	}
}
