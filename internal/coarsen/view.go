package coarsen

import (
	"cmp"
	"slices"

	"tofu/internal/graph"
)

// A segment of a whole graph's coarsening is, for most group intervals, the
// root's groups [lo, hi) with the root's slots: cutting the graph only severs
// variables. Such a segment is built as a view (SegmentScratch.view): the
// root's groups and slots are copied, every root variable the interval holds
// whole keeps its members, and only the variables that reach outside it are
// split again, by the tensor unions the segment's own operators make.
// Variables are then numbered at first sight in ascending operator ID, as a
// frame coarsening numbers them, so the view is that coarsening exactly.
//
// The intervals whose grouping differs from the root's go through the frame
// (load and coarsen). viewIndex.fallback marks them, once per root; the causes
// are:
//   - a cut through unrolled cells: an operator's slot is keyed by its rank
//     among its cell's same-signature operators, and the rank counts only
//     the operators present, so slot leaders can change;
//   - a forward element-wise edge whose other readers all lie outside the
//     interval: the segment reads the tensor once, and the coalescing rule
//     (a single reader) joins two groups the root keeps apart;
//   - a forward link (FwdOf) to a later operator, which a frame drops (an
//     optimizer update's other link, to its gradient's producer, always
//     points back: a valid graph lists producers first).

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
	// fallback has bit lo*(L+1)+hi set when groups [lo, hi) coarsen as a
	// frame into other groups or slots than the root's.
	fallback []uint64
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
// seen above its entry in the list of whole variables and parts; a graph too
// large for the packing is never viewed.
const orderBits = 24

func byMemberSight(a, b member) int { return cmp.Compare(a.key, b.key) }

// index returns the view index of root c, building it when sc last viewed
// another coarsening.
func (sc *SegmentScratch) index(c *Coarse) *viewIndex {
	if sc.ix.root != c {
		sc.vvar, sc.vtensor = make([]int32, len(c.Vars)), make([]int32, len(c.G.Tensors))
		sc.ix.build(c, sc.vtensor)
		sc.parent = make([]int32, len(sc.ix.members))
		sc.ix.buildEdges(c, sc.vtensor, sc.parent)
		sc.ix.buildFallback(c)
	}
	return &sc.ix
}

// viewed reports whether ix serves groups [lo, hi) as a view.
func (ix *viewIndex) viewed(lo, hi int) bool {
	b := lo*(len(ix.root.Groups)+1) + hi
	return ix.fallback[b>>6]&(1<<(b&63)) == 0
}

// has reports whether node n belongs to groups [lo, hi).
func (ix *viewIndex) has(n *graph.Node, lo, hi int) bool {
	g := int(ix.groupOf[n.ID])
	return g >= lo && g < hi
}

// sight returns where a frame of groups [lo, hi) first sees t — at its
// producer, or else at its lowest reader, at the first operand position that
// reads it — and -1 when no operator of the frame touches t.
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
func (ix *viewIndex) build(c *Coarse, at []int32) {
	g := c.G
	*ix = viewIndex{root: c, stride: 1}
	ix.groupOf = make([]int32, len(g.Nodes))
	for gi, grp := range c.Groups {
		for _, s := range grp.Slots {
			for _, n := range s.Ops {
				ix.groupOf[n.ID] = int32(gi)
			}
		}
	}
	for _, n := range g.Nodes {
		ix.stride = max(ix.stride, int64(len(n.Inputs)+1))
	}

	// Every member of a referenced variable is touched by some operator, so
	// walking the operators in ID order sees each once, in frame order. at
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

// buildFallback marks the intervals a view cannot serve (see the causes
// above), each cause as rectangles of (lo, hi).
func (ix *viewIndex) buildFallback(c *Coarse) {
	L := len(c.Groups)
	W := L + 1
	ix.fallback = make([]uint64, (W*W+63)/64)
	paint := func(lo0, lo1, hi0, hi1 int) {
		for lo := lo0; lo <= lo1; lo++ {
			for hi := max(hi0, lo+1); hi <= hi1; hi++ {
				b := lo*W + hi
				ix.fallback[b>>6] |= 1 << (b & 63)
			}
		}
	}
	if len(c.G.Tensors) >= 1<<orderBits || int64(len(c.G.Nodes))*ix.stride >= 1<<(64-orderBits) {
		paint(0, L-1, 1, L)
		return
	}
	ew := func(n *graph.Node) bool {
		return c.facts.desc[n.ID].IsElementwise() && n.FwdOf == nil && !n.GradAgg
	}
	for _, n := range c.G.Nodes {
		gi := int(ix.groupOf[n.ID])
		// A frame keeps only links to earlier operators: every interval
		// holding a later link's group loses it.
		if n.FwdOf != nil && n.FwdOf.ID > n.ID {
			paint(0, gi, gi+1, L)
		}
		if !ew(n) {
			continue
		}
		for _, in := range n.Inputs {
			p := in.Producer
			if p == nil || !ew(p) || ix.groupOf[p.ID] == int32(gi) {
				continue
			}
			// The root did not coalesce p and n, so in has another reader;
			// an interval holding both groups and none of those readers
			// coalesces them.
			a, b := min(gi, int(ix.groupOf[p.ID])), max(gi, int(ix.groupOf[p.ID]))
			below, above, reads := -1, L, 0
			for _, r := range in.Consumers {
				switch rg := int(ix.groupOf[r.ID]); {
				case r == n:
					reads++
				case rg < a:
					below = max(below, rg)
				case rg > b:
					above = min(above, rg)
				default:
					reads = 2 // a reader present whenever both groups are
				}
			}
			if reads == 1 {
				paint(below+1, a, b+1, above)
			}
		}
	}
	ix.leaderFallback(c, paint)
}

// leaderFallback paints the intervals whose slot leaders differ from the
// root's. An unrolled operator's slot depends only on which of its
// signature's operators are present, and an interval holds a contiguous run
// of the groups those operators lie in. So per signature it replays the
// slot assignment of slotLeaders on every proper run of its groups, and
// paints the intervals that hold exactly that run where a leader moves.
func (ix *viewIndex) leaderFallback(c *Coarse, paint func(lo0, lo1, hi0, hi1 int)) {
	f, L := c.facts, len(c.Groups)
	if f.nsig == 0 {
		return
	}
	// ops lists each signature's operators in ID order: signature s's are
	// ops[at[s]:at[s+1]]. leader maps a node to its root slot's first
	// operator, rankOf a group to its position among a signature's groups,
	// rank counts a cell's operators replayed, and first[k] is the rank-k
	// slot's first operator plus one.
	n := len(f.cell)
	ints := make([]int32, 2*(f.nsig+1)+3*n+L+len(f.cellSig))
	at, fill, ints := ints[:f.nsig+1], ints[f.nsig+1:2*f.nsig+2], ints[2*f.nsig+2:]
	ops, leader, first, ints := ints[:n], ints[n:2*n], ints[2*n:3*n], ints[3*n:]
	rankOf, rank := ints[:L], ints[L:]
	for _, cell := range f.cell {
		if cell >= 0 {
			at[f.cellSig[cell]+1]++
		}
	}
	for s := range f.nsig {
		at[s+1] += at[s]
		fill[s] = at[s]
	}
	for id, cell := range f.cell {
		if cell >= 0 {
			s := f.cellSig[cell]
			ops[fill[s]] = int32(id)
			fill[s]++
		}
	}
	for _, grp := range c.Groups {
		for _, s := range grp.Slots {
			for _, op := range s.Ops {
				leader[op.ID] = int32(s.Ops[0].ID)
			}
		}
	}
	var groups []int
	for s := range f.nsig {
		sops := ops[at[s]:at[s+1]]
		groups = groups[:0]
		for _, id := range sops {
			if gi := ix.groupOf[id]; rankOf[gi] == 0 {
				rankOf[gi] = 1
				groups = append(groups, int(gi))
			}
		}
		slices.Sort(groups)
		for i, gi := range groups {
			rankOf[gi] = int32(i)
		}
		m := len(groups)
		for a := 0; a < m; a++ {
			for b := a; b < m; b++ {
				if (a == 0 && b == m-1) || ix.leadersKept(f, sops, leader, rankOf, int32(a), int32(b), rank, first) {
					continue
				}
				lo0, hi1 := 0, L
				if a > 0 {
					lo0 = groups[a-1] + 1
				}
				if b < m-1 {
					hi1 = groups[b+1]
				}
				paint(lo0, groups[a], groups[b]+1, hi1)
			}
		}
		for _, gi := range groups {
			rankOf[gi] = 0
		}
	}
}

// leadersKept replays slotLeaders on the operators of one signature whose
// groups are the a-th to b-th of its groups, and reports whether each keeps
// its root slot leader. It leaves rank and first zero.
func (ix *viewIndex) leadersKept(f *nodeFacts, ops, leader, rankOf []int32, a, b int32, rank, first []int32) bool {
	kept, top := true, int32(0)
	for _, id := range ops {
		if r := rankOf[ix.groupOf[id]]; r < a || r > b {
			continue
		}
		cell := f.cell[id]
		k := rank[cell]
		rank[cell]++
		top = max(top, k+1)
		lead := id
		if first[k] == 0 {
			first[k] = id + 1
		} else if rep := first[k] - 1; f.price[rep] == f.price[id] {
			// One signature shares op and attributes, so equal pricing
			// signatures are equal shapes: sameSignature.
			lead = rep
		}
		if lead != leader[id] {
			kept = false
			break
		}
	}
	for _, id := range ops {
		rank[f.cell[id]] = 0
	}
	clear(first[:top])
	return kept
}

// view builds the segment of root c's groups [lo, hi) into out from c's
// groups, slots and variables; ix.viewed(lo, hi) must hold. The variables
// the interval holds whole keep their members; those reaching outside it are
// split (split). The result is numbered like a frame coarsening: a variable
// at the first sight of its first member, its members in sighting order. A
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
	*seg = Coarse{G: c.G, facts: c.facts}
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

// split splits the root variables in sc.splits as a frame of groups
// [lo, hi) does: their members the frame touches, joined by the unions of
// the frame's groups (one run of ix.edges). It appends the members to sc.xs,
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
			s.Desc, s.Sig = rs.Desc, rs.Sig
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
