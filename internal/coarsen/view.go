package coarsen

import (
	"cmp"
	"fmt"
	"slices"

	"tofu/internal/graph"
)

// A segment of a whole graph's coarsening is a view of it
// (SegmentScratch.view): the root's groups [lo, hi) with the root's slots.
// Cutting the graph only severs variables, so every root variable the
// interval holds whole keeps its members, and only the variables that reach
// outside it are split again, by the tensor unions the interval's own slots
// make: an element-wise operator's same-shaped operands with its output, a
// timestep instance's operands with its slot leader's. Variables are then
// numbered at first sight in ascending operator ID, as Coarsen numbers an
// extracted graph's; where that coarsening keeps the root's groups and slots,
// the view is it exactly.

// viewIndex is what viewing segments of one whole-graph coarsening needs. A
// scratch builds it on its first segment of that root and keeps it until it
// segments another.
type viewIndex struct {
	root *Coarse
	// stride orders sightings: an operator's input p is first seen at
	// ID*stride + p and its output at ID*stride + len(Inputs).
	stride int64
	// groupOf maps a node ID to its root group.
	groupOf []int32
	// members lists each root variable's tensors in the order the whole graph
	// first sees them: variable v's are members[start[v]:start[v+1]], and
	// key[v] is where the first of them is seen.
	members []*graph.Tensor
	start   []int32
	key     []int64
	// edges are the tensor unions coarsening made, between positions in
	// members, in group order; per group only those that joined two classes
	// of the group's own unions.
	edges []edge
}

// edge is one tensor union: the members at positions a and b, joined by an
// operator of the group.
type edge struct{ a, b, group int32 }

// member is a tensor of a variable the view splits: where the segment first
// sees it, and its class (a union-find root, then the index of its part in
// SegmentScratch.parts).
type member struct {
	t     *graph.Tensor
	key   int64
	class int32
}

// part is one piece of a split root variable: where the segment first sees
// it, its root variable, its member count, and its segment variable.
type part struct {
	key       int64
	root, n   int32
	seg       int32
	hasWeight bool
}

// The view sorts its variables by keys that pack where a variable is first
// seen above its entry in the list of whole variables and parts.
const orderBits = 24

// orderLimit refuses a graph too large for the order keys: an entry must fit
// in orderBits, so nTensors stays below 2^orderBits, and a sighting in the
// other bits, so the operand positions (sights) stay below 2^(64-orderBits).
func orderLimit(nTensors int, sights int64) error {
	if nTensors >= 1<<orderBits || sights >= 1<<(64-orderBits) {
		return fmt.Errorf("coarsen: a graph of %d tensors and %d operand positions is past the segment view's limit of 2^%d and 2^%d",
			nTensors, sights, orderBits, 64-orderBits)
	}
	return nil
}

func byMemberSight(a, b member) int { return cmp.Compare(a.key, b.key) }

// index builds the view index of root c and sizes the tables a view of it
// works in, or refuses a graph past orderLimit.
func (sc *SegmentScratch) index(c *Coarse) error {
	stride := int64(1)
	for _, n := range c.G.Nodes {
		stride = max(stride, int64(len(n.Inputs)+1))
	}
	if err := orderLimit(len(c.G.Tensors), int64(len(c.G.Nodes))*stride); err != nil {
		return err
	}
	sc.vvar, sc.vtensor = make([]int32, len(c.Vars)), make([]int32, len(c.G.Tensors))
	sc.ix.build(c, stride, sc.vtensor)
	sc.parent = make([]int32, len(sc.ix.members))
	sc.ix.buildEdges(c, sc.vtensor, sc.parent)
	return nil
}

// has reports whether node n belongs to groups [lo, hi).
func (ix *viewIndex) has(n *graph.Node, lo, hi int) bool {
	g := int(ix.groupOf[n.ID])
	return g >= lo && g < hi
}

// sight returns where groups [lo, hi) first see t — at its producer, or
// else at its lowest reader, at the first operand position that reads it —
// and -1 when no operator of the interval touches t.
//
//tofu:hotpath part of every view
func (ix *viewIndex) sight(t *graph.Tensor, lo, hi int) int64 {
	if p := t.Producer; p != nil && ix.has(p, lo, hi) {
		return int64(p.ID)*ix.stride + int64(len(p.Inputs))
	}
	best := int64(-1)
	for _, n := range t.Consumers {
		at := int64(n.ID) * ix.stride
		if (best >= 0 && at >= best) || !ix.has(n, lo, hi) {
			continue
		}
		for p, in := range n.Inputs {
			if in == t {
				best = at + int64(p)
				break
			}
		}
	}
	return best
}

// build indexes root c's nodes and variables: every node's group, and each
// variable's members in first-sight order. It leaves at[t.ID] the position
// of tensor t in members plus one (0 for an unreferenced tensor).
func (ix *viewIndex) build(c *Coarse, stride int64, at []int32) {
	g := c.G
	*ix = viewIndex{root: c, stride: stride}
	ix.groupOf = make([]int32, len(g.Nodes))
	for gi, grp := range c.Groups {
		for _, s := range grp.Slots {
			for _, n := range s.Ops {
				ix.groupOf[n.ID] = int32(gi)
			}
		}
	}
	// Every member of a referenced variable is touched by some operator, so
	// walking the operators in ID order sees each once, in sighting order. at
	// holds -(v+1) for an unseen member of variable v.
	nV := len(c.Vars)
	ints := make([]int32, 2*nV+1)
	next := ints[nV+1:]
	ix.start = ints[:nV+1]
	for _, v := range c.Vars {
		if v.First < 0 {
			continue
		}
		ix.start[v.ID+1] = int32(len(v.Tensors))
		for _, t := range v.Tensors {
			at[t.ID] = -int32(v.ID) - 1
		}
	}
	for v := range nV {
		ix.start[v+1] += ix.start[v]
		next[v] = ix.start[v]
	}
	ix.key = make([]int64, nV)
	ix.members = make([]*graph.Tensor, ix.start[nV])
	see := func(t *graph.Tensor, sight int64) {
		v := -at[t.ID] - 1
		if v < 0 {
			return
		}
		if next[v] == ix.start[v] {
			ix.key[v] = sight
		}
		ix.members[next[v]] = t
		next[v]++
		at[t.ID] = next[v]
	}
	for _, n := range g.Nodes {
		sight := int64(n.ID) * ix.stride
		for p, in := range n.Inputs {
			see(in, sight+int64(p))
		}
		see(n.Output, sight+int64(len(n.Inputs)))
	}
}

// buildEdges replays coarsen's tensor unions group by group — an
// element-wise operator's same-shaped operands with its output, a timestep
// instance's operands with its slot leader's — and keeps, per group, the
// unions that join two classes of that group's own: what the group joins is
// all a segment holding it needs. A slot's operators share their leader's
// description and shapes (sameSignature), so the leader's tell which operands
// join. at maps tensors to positions (build) and is left zero; parent, one
// entry per member, is left -1.
func (ix *viewIndex) buildEdges(c *Coarse, at, parent []int32) {
	u := newUF(parent)
	var joined []int32 // the classes a group's unions merged away
	var same []int     // the leader's operands shaped like its output
	ix.edges = make([]edge, 0, 2*len(ix.members))
	union := func(x, y *graph.Tensor, gi int) {
		a, b := int(at[x.ID]-1), int(at[y.ID]-1)
		if ra, rb := u.find(a), u.find(b); ra != rb {
			u.parent[rb] = int32(ra)
			joined = append(joined, int32(rb))
			ix.edges = append(ix.edges, edge{a: int32(a), b: int32(b), group: int32(gi)})
		}
	}
	for gi, grp := range c.Groups {
		for _, s := range grp.Slots {
			rep := s.Rep()
			same = same[:0]
			if s.Desc.IsElementwise() {
				for p, in := range rep.Inputs {
					if in.Shape.Equal(rep.Output.Shape) {
						same = append(same, p)
					}
				}
			}
			for _, n := range s.Ops {
				for _, p := range same {
					union(n.Inputs[p], n.Output, gi)
				}
				if n == rep {
					continue
				}
				for p, in := range n.Inputs {
					union(in, rep.Inputs[p], gi)
				}
				union(n.Output, rep.Output, gi)
			}
		}
		// Path compression only rewrites classes merged away, so this
		// restores every class of the group to itself.
		for _, r := range joined {
			parent[r] = r
		}
		joined = joined[:0]
	}
	for _, t := range ix.members {
		at[t.ID] = 0
	}
	for i := range parent {
		parent[i] = -1
	}
}

// view builds the segment of root c's groups [lo, hi) into out from c's
// groups, slots and variables; sc.ix must be c's index. The variables the
// interval holds whole keep their members; those reaching outside it are
// split (split). A variable is numbered at the first sight of its first
// member, its members listed in sighting order. A
// transient view (out is sc.out) shares the slots' operator lists with c and
// the whole variables' member lists with the index; an owned one copies them.
//
//tofu:hotpath once per viewed segment; enforced by tofu-vet/hotalloc
func (sc *SegmentScratch) view(c *Coarse, lo, hi int, out *slabs) *Coarse {
	ix, share := &sc.ix, out == &sc.out
	sc.intact, sc.splits, sc.xs, sc.parts = sc.intact[:0], sc.splits[:0], sc.xs[:0], sc.parts[:0]
	for _, grp := range c.Groups[lo:hi] {
		for _, v := range grp.Vars {
			switch {
			case sc.vvar[v.ID] != 0:
			case v.First >= lo && v.Last < hi:
				sc.vvar[v.ID] = 1
				sc.intact = append(sc.intact, int32(v.ID))
			default:
				sc.vvar[v.ID] = -1
				sc.splits = append(sc.splits, int32(v.ID))
				for p := ix.start[v.ID]; p < ix.start[v.ID+1]; p++ {
					sc.parent[p] = p
				}
			}
		}
	}
	if len(sc.splits) > 0 {
		sc.split(lo, hi)
	}

	// Number the variables at first sight.
	nIntact := len(sc.intact)
	out.order = grow(out.order, nIntact+len(sc.parts))
	order := out.order
	members := 0
	for i, v := range sc.intact {
		order[i] = uint64(ix.key[v])<<orderBits | uint64(i)
		if !share {
			members += int(ix.start[v+1] - ix.start[v])
		}
	}
	for i, pt := range sc.parts {
		order[nIntact+i] = uint64(pt.key)<<orderBits | uint64(nIntact+i)
		members += int(pt.n)
	}
	slices.Sort(order)

	if out.coarse == nil {
		out.coarse = new(Coarse)
	}
	seg := out.coarse
	*seg = Coarse{G: c.G, sigs: c.sigs}
	out.vars, out.varPtrs = grow(out.vars, len(order)), grow(out.varPtrs, len(order))
	out.members = grow(out.members, members)
	seg.Vars = out.varPtrs
	slab := out.members
	for i, o := range order {
		v := &out.vars[i]
		seg.Vars[i] = v
		v.ID, v.First, v.Last = i, -1, -1
		if x := int(o & (1<<orderBits - 1)); x < nIntact {
			root := c.Vars[sc.intact[x]]
			v.Tensors = ix.members[ix.start[root.ID]:ix.start[root.ID+1]:ix.start[root.ID+1]]
			if !share {
				v.Tensors, slab = append(slab[:0:len(v.Tensors)], v.Tensors...), slab[len(v.Tensors):]
			}
			v.Shape, v.HasWeight = root.Shape, root.HasWeight
			sc.vvar[root.ID] = int32(i + 1)
		} else {
			pt := &sc.parts[x-nIntact]
			v.Tensors, slab = slab[:0:pt.n], slab[pt.n:]
			v.Shape, v.HasWeight = c.Vars[pt.root].Shape, pt.hasWeight
			pt.seg = int32(i)
		}
	}
	for _, x := range sc.xs {
		v := seg.Vars[sc.parts[x.class].seg]
		v.Tensors = append(v.Tensors, x.t)
	}

	sc.viewGroups(c, seg, lo, hi, out, share)

	for _, v := range sc.intact {
		sc.vvar[v] = 0
	}
	for _, v := range sc.splits {
		sc.vvar[v] = 0
		for p := ix.start[v]; p < ix.start[v+1]; p++ {
			sc.parent[p] = -1
		}
	}
	for _, x := range sc.xs {
		sc.vtensor[x.t.ID] = 0
	}
	return seg
}

// split splits the root variables in sc.splits by groups [lo, hi): their
// members the interval's operators touch, joined by the unions of the
// interval's groups (one run of ix.edges). It appends the members to sc.xs,
// each variable's in sighting order, and the parts they form to sc.parts,
// each variable's in the order of their first members.
//
//tofu:hotpath part of every view
func (sc *SegmentScratch) split(lo, hi int) {
	ix := &sc.ix
	u := uf{parent: sc.parent}
	es := ix.edges
	i, j := 0, len(es)
	for i < j {
		if h := int(uint(i+j) >> 1); int(es[h].group) < lo {
			i = h + 1
		} else {
			j = h
		}
	}
	for ; i < len(es) && int(es[i].group) < hi; i++ {
		if e := es[i]; sc.parent[e.a] >= 0 {
			u.union(int(e.a), int(e.b))
		}
	}
	for _, v := range sc.splits {
		base, first := len(sc.xs), ix.start[v]
		for p, t := range ix.members[first:ix.start[v+1]] {
			if at := ix.sight(t, lo, hi); at >= 0 {
				sc.xs = append(sc.xs, member{t: t, key: at, class: int32(u.find(int(first) + p))})
			}
		}
		xs := sc.xs[base:]
		slices.SortFunc(xs, byMemberSight)
		// v's classes are found, so its stretch of parent is free: it maps
		// a class to its part, plus one.
		label := sc.parent[first:ix.start[v+1]]
		clear(label)
		for i := range xs {
			x := &xs[i]
			if label[x.class-first] == 0 {
				sc.parts = append(sc.parts, part{key: x.key, root: v})
				label[x.class-first] = int32(len(sc.parts))
			}
			x.class = label[x.class-first] - 1
			pt := &sc.parts[x.class]
			pt.n++
			pt.hasWeight = pt.hasWeight || x.t.Kind == graph.Weight
			sc.vtensor[x.t.ID] = x.class + 1
		}
	}
}

// segVarOf returns the segment variable of operand t, whose root variable
// is v.
//
//tofu:hotpath part of every view
func (sc *SegmentScratch) segVarOf(seg *Coarse, v *Var, t *graph.Tensor) *Var {
	if x := sc.vvar[v.ID]; x > 0 {
		return seg.Vars[x-1]
	}
	return seg.Vars[sc.parts[sc.vtensor[t.ID]-1].seg]
}

// viewGroups copies the root's groups [lo, hi) and their slots into seg with
// operands in seg's variables — operator lists shared with c when share is
// set — then derives the variable lists as every coarsening does.
//
//tofu:hotpath part of every view
func (sc *SegmentScratch) viewGroups(c *Coarse, seg *Coarse, lo, hi int, out *slabs, share bool) {
	nSlots, nOps, nIn := 0, 0, 0
	for _, grp := range c.Groups[lo:hi] {
		nSlots += len(grp.Slots)
		for _, s := range grp.Slots {
			if !share {
				nOps += len(s.Ops)
			}
			nIn += len(s.In)
		}
	}
	n := hi - lo
	out.groups, out.groupPtrs = grow(out.groups, n), grow(out.groupPtrs, n)
	out.slots, out.slotPtrs = grow(out.slots, nSlots), grow(out.slotPtrs, nSlots)
	out.ops, out.operands = grow(out.ops, nOps), grow(out.operands, nIn)
	seg.Groups = out.groupPtrs
	slots, slotPtrs, ops, operands := out.slots, out.slotPtrs, out.ops, out.operands
	for gi, rg := range c.Groups[lo:hi] {
		grp := &out.groups[gi]
		grp.ID = gi
		grp.Slots, slotPtrs = slotPtrs[:len(rg.Slots):len(rg.Slots)], slotPtrs[len(rg.Slots):]
		seg.Groups[gi] = grp
		for k, rs := range rg.Slots {
			s := &slots[0]
			slots = slots[1:]
			grp.Slots[k] = s
			s.Ops = rs.Ops
			if !share {
				s.Ops, ops = append(ops[:0:len(rs.Ops)], rs.Ops...), ops[len(rs.Ops):]
			}
			rep := rs.Rep()
			s.In, operands = operands[:len(rs.In):len(rs.In)], operands[len(rs.In):]
			for p, v := range rs.In {
				s.In[p] = sc.segVarOf(seg, v, rep.Inputs[p])
			}
			s.Out = sc.segVarOf(seg, rs.Out, rep.Output)
			s.Desc, s.Sig, s.SigID = rs.Desc, rs.Sig, rs.SigID
		}
	}
	nV := len(seg.Vars)
	sc.counts = resize(sc.counts, nV+3*n)
	seen, counts := sc.counts[:nV], sc.counts[nV:]
	touched, fresh, live := counts[:n], counts[n:2*n], counts[2*n:]
	total := countGroupVars(seg, seen, touched, fresh, live)
	out.varLists = grow(out.varLists, total)
	fillGroupVars(seg, out.varLists, seen, touched, fresh, live)
}
