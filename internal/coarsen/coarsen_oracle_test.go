package coarsen

import (
	"fmt"
	"sort"

	"tofu/internal/graph"
	"tofu/internal/tdl"
)

// This file holds the differential oracles of the production coarsening.
//
// CoarsenSub is how segments were coarsened before Segment: extract the
// segment with graph.Subgraph, then coarsen the clone with the node facts of
// the graph it was cut from.
//
// coarsenReference is the append-and-map coarsening the count-then-fill
// builder replaced, kept verbatim: slot and group membership gathered
// in maps and grown by append, one object per variable, group and slot, lists
// ordered by sorting. It carries no node facts, no pricing signatures and no
// slot operands.
//
// referenceDescribeNodes and referenceSlotLeaders are the two passes the
// one-walk describeNodes replaced, kept verbatim: the node facts through
// maps keyed by (tag, op, attributes), (signature, timestep) and pricing
// signature, then the slot leaders from the facts' cells.

// CoarsenSub coarsens sub.G, an extraction of parent.G (graph.Subgraph), and
// returns exactly what Coarsen(sub.G) would: the same algorithm over the whole
// clone, with the node facts copied from the parent's through sub.NodeID — a
// clone keeps its original's operator, attributes, shapes, unroll tag and
// timestep — and the clone's own slot leaders (referenceSlotLeaders).
func CoarsenSub(parent *Coarse, sub *graph.Subgraphed) (*Coarse, error) {
	n := len(sub.NodeID)
	ints := make([]int32, 2*n)
	facts := *parent.facts // the root's tables, shared
	facts.desc, facts.cell, facts.price = make([]*tdl.OpDesc, n), ints[:n:n], ints[n:]
	for i, id := range sub.NodeID {
		facts.desc[i] = parent.facts.desc[id]
		facts.cell[i] = parent.facts.cell[id]
		facts.price[i] = parent.facts.price[id]
	}
	facts.leader = referenceSlotLeaders(sub.G, &facts)
	return coarsen(sub.G, &facts)
}

// referenceDescribeNodes computes the node facts of a root graph: the interning of
// unroll cells and pricing signatures, and one registry lookup per node
// outside an unrolled loop and per unroll signature. A description depends
// only on the operator and its attributes, both part of the signature, so
// every later node of a signature takes the pointer the registry returned
// for its first.
func referenceDescribeNodes(g *graph.Graph) (nodeFacts, error) {
	type sigKey struct {
		tag, op string
		attrs   tdl.AttrsKey
	}
	type cellKey struct {
		sig int32
		ts  int
	}
	n := len(g.Nodes)
	ints := make([]int32, 2*n)
	f := nodeFacts{desc: make([]*tdl.OpDesc, n), cell: ints[:n:n], price: ints[n:]}
	sigs := map[sigKey]int32{}
	cells := map[cellKey]int32{}
	prices := map[string]int32{}
	// lastOf[sig] is the last node priced under the signature, plus one:
	// the timesteps of an unrolled operator repeat its shapes, so most
	// nodes take their predecessor's pricing signature without building it.
	// descOf[sig] is the signature's description.
	var lastOf []int32
	var descOf []*tdl.OpDesc
	var buf []byte
	for i, n := range g.Nodes {
		f.cell[i] = -1
		ak := tdl.MakeAttrsKey(n.Attrs)
		sk := sigKey{tag: n.UnrollTag, op: n.Op, attrs: ak}
		sig, interned := int32(0), false
		if n.UnrollTag != "" {
			sig, interned = sigs[sk]
		}
		if interned {
			f.desc[i] = descOf[sig]
		} else {
			d, err := g.Describe(n)
			if err != nil {
				return nodeFacts{}, fmt.Errorf("coarsen: %v: %w", n, err)
			}
			f.desc[i] = d
		}
		if n.UnrollTag != "" {
			if !interned {
				sig = int32(len(sigs))
				sigs[sk] = sig
				lastOf = append(lastOf, 0)
				descOf = append(descOf, f.desc[i])
			}
			ck := cellKey{sig: sig, ts: n.Timestep}
			cell, ok := cells[ck]
			if !ok {
				cell = int32(len(cells))
				cells[ck] = cell
				f.cellSig = append(f.cellSig, sig)
			}
			f.cell[i] = cell
			if j := lastOf[sig]; j > 0 && sameSignature(g.Nodes[j-1], n) {
				f.price[i] = f.price[j-1]
				continue
			}
			lastOf[sig] = int32(i + 1)
		}
		buf = appendPriceSig(buf[:0], n, ak)
		id, ok := prices[string(buf)] // no copy: only a new signature keeps the key
		if !ok {
			id = int32(len(f.prices))
			f.prices = append(f.prices, string(buf))
			prices[f.prices[id]] = id
		}
		f.price[i] = id
	}
	f.nsig = len(sigs)
	return f, nil
}

// referenceSlotLeaders groups UnrollTag'd nodes into per-structural-position slots
// and returns, dense by node ID, the first node of each node's slot (the node
// itself outside any slot, and for a slot of one). The slot key is (signature
// id — tag, op and attributes, see nodeFacts — and ordinal among
// same-signature ops in the same timestep, which is the node's rank within
// its cell); instances whose shapes disagree with the slot's first node are
// left unmerged.
func referenceSlotLeaders(g *graph.Graph, f *nodeFacts) []int32 {
	nN := len(g.Nodes)
	unrolled := 0
	for _, c := range f.cell {
		if c >= 0 {
			unrolled++
		}
	}
	// One slab: the result, then the working tables. start[s] is where
	// signature s's slots begin in first (a signature has at most as many
	// slots as nodes); rank[c] counts cell c's nodes seen so far; first[k]
	// is slot k's first node, plus one.
	ints := make([]int32, nN+f.nsig+1+len(f.cellSig)+unrolled)
	leader, ints := ints[:nN:nN], ints[nN:]
	start, ints := ints[:f.nsig+1], ints[f.nsig+1:]
	rank, first := ints[:len(f.cellSig)], ints[len(f.cellSig):]
	for _, c := range f.cell {
		if c >= 0 {
			start[f.cellSig[c]+1]++
		}
	}
	for s := 0; s < f.nsig; s++ {
		start[s+1] += start[s]
	}
	for i, n := range g.Nodes {
		leader[i] = int32(i)
		c := f.cell[i]
		if c < 0 {
			continue
		}
		k := start[f.cellSig[c]] + rank[c]
		rank[c]++
		if first[k] == 0 {
			first[k] = int32(i) + 1
		} else if rep := first[k] - 1; sameSignature(g.Nodes[rep], n) {
			// Keep only shape-consistent instances merged.
			leader[i] = rep
		}
	}
	return leader
}

// refDescribe looks up every node's description and interns the (UnrollTag,
// Op, attributes) signature of the unrolled ones (-1 elsewhere).
func refDescribe(g *graph.Graph) ([]*tdl.OpDesc, []int32, error) {
	type sigKey struct {
		tag, op string
		attrs   tdl.AttrsKey
	}
	desc, sig := make([]*tdl.OpDesc, len(g.Nodes)), make([]int32, len(g.Nodes))
	ids := map[sigKey]int32{}
	for i, n := range g.Nodes {
		d, err := g.Describe(n)
		if err != nil {
			return nil, nil, fmt.Errorf("coarsen: %v: %w", n, err)
		}
		desc[i] = d
		sig[i] = -1
		if n.UnrollTag == "" {
			continue
		}
		k := sigKey{tag: n.UnrollTag, op: n.Op, attrs: tdl.MakeAttrsKey(n.Attrs)}
		id, ok := ids[k]
		if !ok {
			id = int32(len(ids))
			ids[k] = id
		}
		sig[i] = id
	}
	return desc, sig, nil
}

// coarsenReference is the reference coarsening of a valid graph.
func coarsenReference(g *graph.Graph) (*Coarse, error) {
	// --- tensor variables: union-find over tensors --------------------
	desc, sig, err := refDescribe(g)
	if err != nil {
		return nil, err
	}
	tuf := newRefUF(len(g.Tensors))

	// Element-wise coalescing: inputs and output of an element-wise op share
	// a partition.
	ewNode := make([]bool, len(g.Nodes))
	for i, n := range g.Nodes {
		if !desc[i].IsElementwise() {
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
	slots := refBuildSlots(g, sig)
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
	c := &Coarse{G: g}
	varOf := make([]*Var, len(g.Tensors))
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
		varOf[t.ID] = v
	}

	// --- operator groups: union-find over nodes -------------------------
	nuf := newRefUF(len(g.Nodes))
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
			if ewNode[p.ID] && p.FwdOf == nil && !p.GradAgg {
				nuf.union(n.ID, p.ID)
			}
		}
	}

	refBuildGroups(c, g, nuf, slots, desc, varOf)
	return c, nil
}

// buildSlots groups UnrollTag'd nodes into per-structural-position slots.
// The slot key is (signature id — tag, op and attributes, see nodeFacts —
// and ordinal among same-signature ops in the same timestep); instances
// whose shapes disagree are left unmerged.
func refBuildSlots(g *graph.Graph, sig []int32) [][]*graph.Node {
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

// buildGroups materializes groups from the node union-find, orders them by
// earliest member node, slices each into slots, and computes variable
// liveness (First/Last group references).
func refBuildGroups(c *Coarse, g *graph.Graph, nuf *refUF, slots [][]*graph.Node, desc []*tdl.OpDesc, varOf []*Var) {
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
			s.Desc = desc[s.Ops[0].ID]
			group.Slots = append(group.Slots, s)
			for _, n := range s.Ops {
				for _, in := range n.Inputs {
					v := varOf[in.ID]
					if seen[v.ID] != gi+1 {
						seen[v.ID] = gi + 1
						group.Vars = append(group.Vars, v)
					}
				}
				v := varOf[n.Output.ID]
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

type refUF struct{ parent []int }

func newRefUF(n int) *refUF {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &refUF{parent: p}
}

func (u *refUF) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *refUF) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[rb] = ra
	}
}
