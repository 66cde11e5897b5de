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
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"

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
	// In and Out are the variables of the representative's inputs, in operand
	// order, and of its output. Every instance reads and writes the same ones:
	// instances share their representative's shapes, so timestep merging has
	// joined their operands position by position.
	In  []*Var
	Out *Var
	// Desc is the representative operator's TDL description, captured
	// during coarsening (which describes every node anyway) so downstream
	// passes skip the registry lookup.
	Desc *tdl.OpDesc
	// Sig is the representative operator's structural pricing signature —
	// operator name, sorted attributes, original input and output shapes —
	// interned once per root graph (see nodeFacts). Everything about the
	// operator that a pricing depends on is in it; dp.PriceCache keys its
	// memos by it.
	Sig string
	// SigID is Sig's index in the interned signatures of the whole graph's
	// coarsening (Coarse.Sigs): within one coarsening and its segments, two
	// slots have equal SigIDs exactly when they have equal Sigs.
	SigID int32
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

// Coarse is the coarsened view of a training graph, or of a contiguous
// segment of another coarsening's groups (Segment). Vars is a dense index:
// Vars[i].ID == i, so a variable's ID addresses per-variable side tables
// (the DP's cut-dim alphabets and packed state digits) directly.
//
// A Coarse is built count-then-fill: every list it holds — variable members,
// slot operators and operands, the groups' slot and variable lists — is a
// window of one exactly-sized slab per element type, and the variables,
// groups and slots themselves sit in one slab each, so the number of
// allocations does not depend on the size of the graph.
type Coarse struct {
	// G is the graph the operators and tensors belong to: the coarsened graph
	// itself, or for a segment the whole graph the segment was cut from.
	G      *graph.Graph
	Vars   []*Var
	Groups []*Group
	// facts is what Coarsen looked up about G's nodes. A segment has none:
	// only a whole graph's coarsening is segmented.
	facts *nodeFacts
	// sigs is the whole graph's coarsening's interned pricing signatures,
	// which its segments share (Sigs).
	sigs []string
}

// Sigs returns the pricing signatures of the whole graph's coarsening c is
// or is a segment of, each once: Sigs()[s.SigID] == s.Sig for every slot.
// Each Coarsen call interns its own table, so the table's identity tells
// slot numberings apart.
func (c *Coarse) Sigs() []string { return c.sigs }

// nodeFacts is everything coarsening needs to know about the nodes of a
// graph beyond its structure. desc, cell, price and leader are dense by node
// ID; cellSig, nsig and prices are tables over the whole graph.
type nodeFacts struct {
	// desc is each node's TDL description.
	desc []*tdl.OpDesc
	// cell interns each unrolled node's (Timestep, signature), where the
	// signature is (UnrollTag, Op, attributes): nodes that may share a
	// timestep slot have cells of equal signature, and the i-th node of a
	// cell goes to the signature's i-th slot. -1 marks nodes outside any
	// unrolled loop.
	cell []int32
	// price indexes prices with each node's structural pricing signature
	// (appendPriceSig), which a Slot carries as Sig.
	price []int32
	// leader is the first node of each node's slot: the node itself outside
	// any slot, for a slot of one, and for an instance whose shapes disagree
	// with the slot's first node, which stays unmerged.
	leader []int32

	// cellSig maps a cell to its signature id, dense in [0, nsig).
	cellSig []int32
	nsig    int
	// prices holds each distinct pricing signature once.
	prices []string
}

// describeNodes computes the node facts of a root graph in one walk in node
// order. A node's signature — (UnrollTag, Op, attributes), numbered at first
// sight, the unrolled ones in [0, nsig) — is found among the candidates of
// its (tag, op) by looking the node's attributes up under each candidate
// key's names (tdl.AttrsKey.Matches): only a new signature iterates them, to
// build its key. The signature carries what the walk knows about its nodes:
//
//   - its attribute key and description, built and looked up once, at first
//     sight (a description depends only on the operator and its attributes);
//   - its cells, in a timestep index: a list sorted by timestep and searched
//     from the cell last found, so timesteps walked forward or backward find
//     theirs in a step, and memory follows the cells, not the timestep values;
//   - its slots, chained by ordinal: the i-th node of a cell goes to the
//     i-th, and leads it if it is the first;
//   - one node per pricing signature spelled under it.
//
// A node takes the pricing signature of its slot's leader, or else of a node
// of its signature with equal shapes; only a new one is spelled, from the
// signature's key, and interned.
func describeNodes(g *graph.Graph) (nodeFacts, error) {
	n, unrolled := len(g.Nodes), 0
	for _, nd := range g.Nodes {
		if nd.UnrollTag != "" {
			unrolled++
		}
	}
	// One slab: the facts dense by node, then cellSig (a node opens at most
	// one cell).
	ints := make([]int32, 3*n+unrolled)
	// A graph holds tens of signatures, a few of them with attributes, and
	// tens to hundreds of pricing signatures of a hundred bytes or so: the
	// walk's tables start with room for that, or for one entry per node of a
	// smaller graph, so that most graphs never grow them.
	c := min(n, 64)
	w := factWalk{g: g, first: make(map[tagOp]int32, min(n, 32)), sigs: make([]signature, 0, c),
		keys: make([]tdl.AttrsKey, 0, min(n, 32)), cells: make([]cellLink, 0, unrolled),
		priced: make([]link, 0, c), prices: make(map[string]int32, c), buf: make([]byte, 0, 256)}
	w.f = nodeFacts{desc: make([]*tdl.OpDesc, n), cell: ints[:n:n], price: ints[n : 2*n : 2*n],
		leader: ints[2*n : 3*n : 3*n], cellSig: ints[3*n : 3*n], prices: make([]string, 0, c)}
	for i, nd := range g.Nodes {
		if err := w.visit(i, nd); err != nil {
			return nodeFacts{}, err
		}
	}
	return w.f, nil
}

// factWalk is describeNodes' working state.
type factWalk struct {
	g *graph.Graph
	f nodeFacts
	// first maps a (tag, op) to its first candidate signature.
	first map[tagOp]int32
	sigs  []signature
	// keys holds the attribute keys of the signatures with attributes.
	keys  []tdl.AttrsKey
	cells []cellLink
	// slots holds every signature's slots, chained by ordinal, and priced
	// every signature's spelled nodes, chained latest first.
	slots, priced []link
	prices        map[string]int32
	buf           []byte
}

// tagOp keys the candidate signatures of a node.
type tagOp struct{ tag, op string }

// signature is one (UnrollTag, Op, attributes) of the walked graph.
type signature struct {
	desc *tdl.OpDesc
	// key indexes the walk's attribute keys, -1 without attributes.
	key int32
	// next is the next candidate of the same (tag, op), -1 after the last.
	next int32
	// id is the unroll signature id, -1 outside unrolled loops.
	id int32
	// cell is where the next timestep search starts, the cell last found, -1
	// before the first.
	cell int32
	// slot heads the signature's slots, priced the nodes whose pricing
	// signatures were spelled under it, one per pricing signature; -1 before
	// the first.
	slot, priced int32
}

// cellLink is a cell's place in its signature's timestep index.
type cellLink struct {
	ts         int
	prev, next int32 // neighbours in timestep order, -1 at the ends
	last       int32 // the slot of the cell's latest node, -1 while empty
}

// link is a node in a list of w.slots or w.priced: a slot's first node, or a
// node whose pricing signature was spelled, and the next link (-1 after the
// last).
type link struct{ node, next int32 }

// visit records node i's facts.
func (w *factWalk) visit(i int, n *graph.Node) error {
	f := &w.f
	s, err := w.signature(n)
	if err != nil {
		return err
	}
	f.desc[i], f.cell[i], f.leader[i] = s.desc, -1, int32(i)
	if s.id >= 0 {
		c := w.cell(s, n.Timestep)
		f.cell[i] = c
		if rep := w.slot(s, c, i); rep != i && sameSignature(w.g.Nodes[rep], n) {
			f.leader[i], f.price[i] = int32(rep), f.price[rep]
			return nil
		}
	}
	for k := s.priced; k >= 0; k = w.priced[k].next {
		if j := w.priced[k].node; sameSignature(w.g.Nodes[j], n) {
			f.price[i] = f.price[j]
			return nil
		}
	}
	w.priced = append(w.priced, link{node: int32(i), next: s.priced})
	s.priced = int32(len(w.priced) - 1)
	w.buf = appendPriceSig(w.buf[:0], n, *w.attrs(s))
	id, ok := w.prices[string(w.buf)] // no copy: only a new signature keeps the key
	if !ok {
		id = int32(len(f.prices))
		f.prices = append(f.prices, string(w.buf))
		w.prices[f.prices[id]] = id
	}
	f.price[i] = id
	return nil
}

// signature returns n's signature. A candidate of n's (tag, op) matches by
// looking n's attributes up under its key's names; only a new signature
// builds the key, and looks its description up.
func (w *factWalk) signature(n *graph.Node) (*signature, error) {
	key := tagOp{tag: n.UnrollTag, op: n.Op}
	last := int32(-1)
	if c, ok := w.first[key]; ok {
		for ; c >= 0; c = w.sigs[c].next {
			if w.attrs(&w.sigs[c]).Matches(n.Attrs) {
				return &w.sigs[c], nil
			}
			last = c
		}
	}
	d, err := w.g.Describe(n)
	if err != nil {
		return nil, fmt.Errorf("coarsen: %v: %w", n, err)
	}
	id := int32(-1)
	if n.UnrollTag != "" {
		id = int32(w.f.nsig)
		w.f.nsig++
	}
	s := int32(len(w.sigs))
	k := int32(-1)
	if len(n.Attrs) > 0 {
		k = int32(len(w.keys))
		w.keys = append(w.keys, tdl.MakeAttrsKey(n.Attrs))
	}
	w.sigs = append(w.sigs, signature{desc: d, key: k, next: -1, id: id, cell: -1, slot: -1, priced: -1})
	if last < 0 {
		w.first[key] = s
	} else {
		w.sigs[last].next = s
	}
	return &w.sigs[s], nil
}

// noAttrs is the attribute key of a signature without attributes.
var noAttrs tdl.AttrsKey

// attrs returns s's attribute key.
func (w *factWalk) attrs(s *signature) *tdl.AttrsKey {
	if s.key < 0 {
		return &noAttrs
	}
	return &w.keys[s.key]
}

// cell returns the cell of timestep ts in s's timestep index, adding it at
// first sight.
func (w *factWalk) cell(s *signature, ts int) int32 {
	c := s.cell
	if c < 0 {
		c = w.addCell(s.id, ts, -1, -1)
	} else {
		cells := w.cells
		for cells[c].ts < ts && cells[c].next >= 0 && cells[cells[c].next].ts <= ts {
			c = cells[c].next
		}
		for cells[c].ts > ts && cells[c].prev >= 0 && cells[cells[c].prev].ts >= ts {
			c = cells[c].prev
		}
		switch {
		case cells[c].ts < ts:
			c = w.addCell(s.id, ts, c, cells[c].next)
		case cells[c].ts > ts:
			c = w.addCell(s.id, ts, cells[c].prev, c)
		}
	}
	s.cell = c
	return c
}

// addCell adds a cell of signature sig between two neighbours of its index.
func (w *factWalk) addCell(sig int32, ts int, prev, next int32) int32 {
	c := int32(len(w.cells))
	w.cells = append(w.cells, cellLink{ts: ts, prev: prev, next: next, last: -1})
	if prev >= 0 {
		w.cells[prev].next = c
	}
	if next >= 0 {
		w.cells[next].prev = c
	}
	w.f.cellSig = append(w.f.cellSig, sig)
	return c
}

// slot puts node i, the next node of cell c, into s's slot of the same
// ordinal, and returns that slot's first node.
func (w *factWalk) slot(s *signature, c int32, i int) int {
	prev, k := w.cells[c].last, s.slot
	if prev >= 0 {
		k = w.slots[prev].next
	}
	if k < 0 {
		k = int32(len(w.slots))
		w.slots = append(w.slots, link{node: int32(i), next: -1})
		if prev >= 0 {
			w.slots[prev].next = k
		} else {
			s.slot = k
		}
	}
	w.cells[c].last = k
	return int(w.slots[k].node)
}

// appendPriceSig appends a node's structural pricing signature: operator
// name, attributes in sorted order, original input and output shapes. Two
// operators with equal signatures price identically at any worker count and
// dtype, whichever graph, model variant or recursive step they come from.
//
//tofu:hotpath once per distinct operator of a root graph; enforced by tofu-vet/hotalloc
func appendPriceSig(buf []byte, n *graph.Node, ak tdl.AttrsKey) []byte {
	buf = append(buf, n.Op...)
	// tdl.MakeAttrsKey sorts up to four attributes inline, without
	// allocating; a larger set arrives pre-joined in Spill.
	if ak.Spill != "" {
		buf = append(buf, ';')
		buf = append(buf, ak.Spill[:len(ak.Spill)-1]...)
	} else {
		names := [4]string{ak.K0, ak.K1, ak.K2, ak.K3}
		vals := [4]int64{ak.V0, ak.V1, ak.V2, ak.V3}
		for i := 0; i < ak.N; i++ {
			buf = append(buf, ';')
			buf = append(buf, names[i]...)
			buf = append(buf, '=')
			buf = strconv.AppendInt(buf, vals[i], 10)
		}
	}
	for _, in := range n.Inputs {
		buf = append(buf, '|')
		buf = appendShape(buf, in.Shape)
	}
	buf = append(buf, '>')
	return appendShape(buf, n.Output.Shape)
}

// appendShape appends "(d0,d1,...)".
//
//tofu:hotpath part of appendPriceSig
func appendShape(buf []byte, s shape.Shape) []byte {
	buf = append(buf, '(')
	for i := 0; i < s.Rank(); i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, s.Dim(i), 10)
	}
	return append(buf, ')')
}

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

// AppendStructKey appends c's structural key to buf and returns the extended
// buffer. The key is a self-delimiting encoding of everything the searches
// over a coarsened graph read — dp.Prepare, Solve and LowerBound, and
// recursive.Search on top of them — and of nothing that names a node or a
// tensor:
//
//   - per variable, in ID order: shape, element type, member count,
//     HasWeight, First and Last;
//   - per group, in order: per slot its Sig, its multiplicity and the
//     variable IDs of its representative's inputs and output; then the IDs
//     in NewVars and in LiveAfter.
//
// Variable IDs are positions, and every member of a variable has its shape
// at every recursive step (steps divide a variable's members alike). So equal
// keys mean dp.Prepare and recursive.Search see the same problem in the same
// order — the same alphabets, slot tables and frontier layouts, swept in the
// same canonical order — and return the same cost bits and the same cost-only
// plan (per step K, Multiplier, Level, VarCut, CommBytes, States, Configs),
// valid for either graph. Unequal keys promise nothing: an isomorphic graph
// numbered differently keys differently.
//
//tofu:hotpath once per pipeline segment; enforced by tofu-vet/hotalloc
func (c *Coarse) AppendStructKey(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(c.Vars)))
	for _, v := range c.Vars {
		buf = binary.AppendUvarint(buf, uint64(v.Shape.Rank()))
		for d := 0; d < v.Shape.Rank(); d++ {
			buf = binary.AppendUvarint(buf, uint64(v.Shape.Dim(d)))
		}
		weight := byte(0)
		if v.HasWeight {
			weight = 1
		}
		buf = append(buf, weight)
		buf = binary.AppendUvarint(buf, uint64(v.Tensors[0].DType))
		buf = binary.AppendUvarint(buf, uint64(len(v.Tensors)))
		buf = binary.AppendUvarint(buf, uint64(v.First+1)) // -1 (unreferenced) encodes as 0
		buf = binary.AppendUvarint(buf, uint64(v.Last+1))
	}
	buf = binary.AppendUvarint(buf, uint64(len(c.Groups)))
	for _, grp := range c.Groups {
		buf = binary.AppendUvarint(buf, uint64(len(grp.Slots)))
		for _, s := range grp.Slots {
			buf = binary.AppendUvarint(buf, uint64(len(s.Sig)))
			buf = append(buf, s.Sig...)
			buf = binary.AppendUvarint(buf, uint64(len(s.Ops)))
			buf = appendVarIDs(buf, s.In)
			buf = binary.AppendUvarint(buf, uint64(s.Out.ID))
		}
		buf = appendVarIDs(buf, grp.NewVars)
		buf = appendVarIDs(buf, grp.LiveAfter)
	}
	return buf
}

// appendVarIDs appends a counted list of variable IDs.
//
//tofu:hotpath part of AppendStructKey
func appendVarIDs(buf []byte, vars []*Var) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vars)))
	for _, v := range vars {
		buf = binary.AppendUvarint(buf, uint64(v.ID))
	}
	return buf
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
	return coarsen(g, &facts)
}

// Segment returns the segment of c's groups [lo, hi), the coarsening a
// pipeline stage holding those groups is searched on. It is a view of c (see
// view.go): c's groups and slots, with every variable that reaches outside
// the interval split into the pieces the interval's own tensor unions join.
// It clones nothing: operators and tensors are c.G's own, so a segment's plan
// tables come out in c.G's IDs. Like a coarsening of the extracted subgraph
// (graph.Subgraph) it numbers variables at the first sight of a member
// (operators in ascending ID, inputs then output) and counts only the
// segment's operators; where that coarsening keeps c's groups and slots, the
// segment is it exactly.
//
// c must be a whole graph's coarsening (Coarsen): a segment of a segment is
// refused, as is a graph past the view's size limit (orderLimit). The cost
// follows the segment, not c.G: every table indexed by c.G's IDs lives in
// sc, which the call leaves as it found it — apart from the view index of
// c, built on sc's first segment of c. sc must not be
// shared between concurrent calls; c itself is only read, so one coarsening
// serves concurrent segments, one scratch each. The pipeline search cuts
// O(L²) overlapping segments of one graph this way. The result owns its
// storage: its Coarse, variables, groups, slots and lists are allocated for
// it (twelve objects, whatever the segment holds).
func (c *Coarse) Segment(lo, hi int, sc *SegmentScratch) (*Coarse, error) {
	return c.segment(lo, hi, sc, &slabs{})
}

// SegmentTransient is Segment with the result's storage borrowed from sc: the
// Coarse, its variables, groups and slots and every list they hold are sc's
// slabs, which a warm scratch reuses without allocating. The result is valid
// until the next Segment or SegmentTransient call on sc, which overwrites it.
// What a search computes from it (costs, cost-only plans, materialized tables
// in c.G's IDs) names no variable, group or slot by pointer and outlives it.
func (c *Coarse) SegmentTransient(lo, hi int, sc *SegmentScratch) (*Coarse, error) {
	return c.segment(lo, hi, sc, &sc.out)
}

// segment views c's groups [lo, hi) into out.
func (c *Coarse) segment(lo, hi int, sc *SegmentScratch, out *slabs) (*Coarse, error) {
	if c.facts == nil {
		return nil, fmt.Errorf("coarsen: segment [%d,%d) of a segment: only a whole graph's coarsening is segmented", lo, hi)
	}
	if lo < 0 || hi > len(c.Groups) || lo >= hi {
		return nil, fmt.Errorf("coarsen: segment [%d,%d) out of range for %d groups", lo, hi, len(c.Groups))
	}
	if sc.ix.root != c {
		if err := sc.index(c); err != nil {
			return nil, err
		}
	}
	return sc.view(c, lo, hi, out), nil
}

// SegmentScratch is the working memory of Segment: the view index of the
// root last segmented, the tables a view works in — keyed by that root's
// variables and tensors, and zero again after every call — and the segment's
// lists, which grow to the largest segment seen: out is what
// SegmentTransient returns.
type SegmentScratch struct {
	ix viewIndex
	// vvar maps a root variable to its segment variable plus one, or to -1
	// when the view splits it; vtensor maps a member of a split variable to
	// its part plus one; parent is the union-find over the split variables'
	// member positions (-1 elsewhere).
	vvar, vtensor, parent []int32
	// intact and splits list the root variables the view keeps whole and
	// splits, xs the split ones' members, parts the pieces they split into;
	// counts backs the variable-list counts.
	intact, splits []int32
	xs             []member
	parts          []part
	counts         []int32
	out            slabs
}

// slabs is the storage one view fills: the Coarse, the variable, group and
// slot slabs, the slab of each list type they hold (variable members, slot
// operators and operands, the groups' variable lists, and the pointer lists
// Coarse.Vars, Coarse.Groups and Group.Slots are windows of), and the order
// the view numbers its variables in. An owned segment starts from empty slabs
// and allocates each at its exact size; a transient one reuses the scratch's,
// grown to the largest segment seen.
type slabs struct {
	coarse    *Coarse
	vars      []Var
	varPtrs   []*Var
	members   []*graph.Tensor
	groups    []Group
	groupPtrs []*Group
	slots     []Slot
	slotPtrs  []*Slot
	ops       []*graph.Node
	operands  []*Var
	varLists  []*Var
	order     []uint64
}

// resize returns s resliced to n zeroed elements, or a fresh slice when s is
// too short: at least twice the old capacity.
func resize[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	s = s[:n]
	clear(s)
	return s
}

// grow is resize for a slab its filler overwrites in full: it keeps what a
// reused slab holds. An empty slab grows to exactly n.
func grow[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// coarsen is the coarsening algorithm over a valid graph (producers precede
// consumers, node and tensor IDs are their positions) and its node facts.
func coarsen(g *graph.Graph, facts *nodeFacts) (*Coarse, error) {
	nT, nN := len(g.Tensors), len(g.Nodes)
	parents := make([]int32, nT+nN)
	// --- tensor variables: union-find over tensors --------------------
	tuf := newUF(parents[:nT:nT])

	// Element-wise coalescing: inputs and output of an element-wise op share
	// a partition.
	ewNode := make([]bool, nN)
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
	leader := facts.leader
	for i, n := range g.Nodes {
		if int(leader[i]) == i {
			continue
		}
		rep := g.Nodes[leader[i]]
		for p := range n.Inputs {
			if n.Inputs[p].Shape.Equal(rep.Inputs[p].Shape) {
				tuf.union(n.Inputs[p].ID, rep.Inputs[p].ID)
			}
		}
		tuf.union(n.Output.ID, rep.Output.ID)
	}

	c := &Coarse{G: g, facts: facts, sigs: facts.prices}
	varOf, err := buildVars(c, tuf)
	if err != nil {
		return nil, err
	}

	// --- operator groups: union-find over nodes -------------------------
	nuf := newUF(parents[nT:])
	// Backward ops join their forward op.
	for i, n := range g.Nodes {
		if n.FwdOf != nil {
			nuf.union(i, n.FwdOf.ID)
		}
	}
	// Optimizer updates join the group producing their gradient input, so a
	// weight variable's whole lifetime (forward use, gradient, update) is
	// decided in one DP step — the paper's weight tensor groups.
	for i, n := range g.Nodes {
		if n.Op != "sgd_update" && n.Op != "adam_update" {
			continue
		}
		if len(n.Inputs) >= 2 && n.Inputs[1].Producer != nil {
			nuf.union(i, n.Inputs[1].Producer.ID)
		}
	}
	// Timestep slot members join.
	for i, l := range leader {
		if int(l) != i {
			nuf.union(i, int(l))
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
				nuf.union(i, p.ID)
			}
		}
	}

	buildGroups(c, nuf, leader, varOf)
	return c, nil
}

// sameSignature reports whether two nodes run the same operator on the same
// input and output shapes.
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

// buildVars materializes the variables from the tensor union-find, numbered
// by their first member tensor: one pass counts the classes and their sizes,
// the next fills one slab of variables and one of member lists. It returns
// the variable index of every tensor.
func buildVars(c *Coarse, tuf uf) ([]int32, error) {
	nT := len(c.G.Tensors)
	// varOfRoot[r] is the variable of the class rooted at tensor r, plus
	// one; size[v] variable v's member count; varOf[i] tensor i's variable.
	ints := make([]int32, 3*nT)
	varOfRoot, size, varOf := ints[:nT], ints[nT:2*nT], ints[2*nT:]
	nVars := 0
	for i := range nT {
		r := tuf.find(i)
		if varOfRoot[r] == 0 {
			nVars++
			varOfRoot[r] = int32(nVars)
		}
		size[varOfRoot[r]-1]++
	}
	c.Vars = make([]*Var, nVars)
	if bad := fillVars(c, tuf, make([]Var, nVars), make([]*graph.Tensor, nT), varOfRoot, size, varOf); bad >= 0 {
		v, t := c.Vars[varOf[bad]], c.G.Tensors[bad]
		return nil, fmt.Errorf("coarsen: variable %v merged mismatched shapes %v vs %v (tensor %v)",
			v, v.Shape, t.Shape, t)
	}
	return varOf, nil
}

// fillVars is buildVars' fill pass. It returns the ID of the first tensor
// whose shape disagrees with its variable's, -1 when there is none.
//
//tofu:hotpath once per coarsening; enforced by tofu-vet/hotalloc
func fillVars(c *Coarse, tuf uf, vars []Var, members []*graph.Tensor, varOfRoot, size, varOf []int32) int {
	for i := range vars {
		v := &vars[i]
		v.ID, v.First, v.Last = i, -1, -1
		v.Tensors, members = members[:0:size[i]], members[size[i]:]
		c.Vars[i] = v
	}
	for i, t := range c.G.Tensors {
		vi := varOfRoot[tuf.find(i)] - 1
		v := &vars[vi]
		varOf[i] = vi
		if len(v.Tensors) == 0 {
			v.Shape = t.Shape
		} else if !v.Shape.Equal(t.Shape) {
			return i
		}
		v.Tensors = append(v.Tensors, t)
		if t.Kind == graph.Weight {
			v.HasWeight = true
		}
	}
	return -1
}

// buildGroups materializes groups from the node union-find, ordered by
// earliest member node, slices each into slots ordered by their first node,
// and computes variable liveness (First/Last group references). Nodes are
// visited in ID order throughout, so a group or slot is met first at its
// earliest member and lists fill in that order with nothing to sort.
func buildGroups(c *Coarse, nuf uf, leader, varOf []int32) {
	nN := len(c.G.Nodes)
	// groupOfRoot[r] is the group of the class rooted at node r, plus one;
	// groupOf[i] node i's group; slots[gi] group gi's slot count; ops[l]
	// the operator count and slotOf[l] the index of the slot led by node l.
	ints := make([]int32, 5*nN)
	groupOfRoot, groupOf, slots, ops, slotOf := ints[:nN], ints[nN:2*nN], ints[2*nN:3*nN], ints[3*nN:4*nN], ints[4*nN:]
	nGroups, nSlots, nIn := 0, 0, 0
	for i, n := range c.G.Nodes {
		r := nuf.find(i)
		if groupOfRoot[r] == 0 {
			nGroups++
			groupOfRoot[r] = int32(nGroups)
		}
		groupOf[i] = groupOfRoot[r] - 1
		if int(leader[i]) == i {
			slots[groupOf[i]]++
			nSlots++
			nIn += len(n.Inputs)
		}
		ops[leader[i]]++
	}

	c.Groups = make([]*Group, nGroups)
	fillGroups(c, make([]Group, nGroups), make([]Slot, nSlots), make([]*Slot, nSlots), make([]*graph.Node, nN),
		make([]*Var, nIn), varOf, leader, groupOf, slots, ops, slotOf)

	// Per-group variable lists. Count first: vars[gi] distinct variables
	// touched (which also fixes every variable's First/Last), then how many
	// start at each group and how many stay live across each boundary.
	counts := make([]int32, len(c.Vars)+3*nGroups)
	seen, counts := counts[:len(c.Vars)], counts[len(c.Vars):]
	touched, fresh, live := counts[:nGroups], counts[nGroups:2*nGroups], counts[2*nGroups:]
	total := countGroupVars(c, seen, touched, fresh, live)
	// Variables never referenced by any op (dangling tensors) live nowhere;
	// they are dropped from the DP by construction.
	fillGroupVars(c, make([]*Var, total), seen, touched, fresh, live)
}

// fillGroups lays out the groups, their slots and the slots' operators and
// operands.
//
//tofu:hotpath once per coarsening; enforced by tofu-vet/hotalloc
func fillGroups(c *Coarse, groups []Group, slotSlab []Slot, slotPtrs []*Slot, opSlab []*graph.Node,
	inSlab []*Var, varOf, leader, groupOf, slots, ops, slotOf []int32) {

	for gi := range groups {
		grp := &groups[gi]
		grp.ID = gi
		grp.Slots, slotPtrs = slotPtrs[:0:slots[gi]], slotPtrs[slots[gi]:]
		c.Groups[gi] = grp
	}
	next := 0
	for i, n := range c.G.Nodes {
		l := leader[i]
		if int(l) == i {
			s := &slotSlab[next]
			slotOf[i] = int32(next)
			next++
			s.Ops, opSlab = opSlab[:0:ops[i]], opSlab[ops[i]:]
			s.In, inSlab = inSlab[:len(n.Inputs):len(n.Inputs)], inSlab[len(n.Inputs):]
			for p, in := range n.Inputs {
				s.In[p] = c.Vars[varOf[in.ID]]
			}
			s.Out = c.Vars[varOf[n.Output.ID]]
			s.Desc = c.facts.desc[n.ID]
			s.SigID = c.facts.price[n.ID]
			s.Sig = c.facts.prices[s.SigID]
			grp := &groups[groupOf[i]]
			grp.Slots = append(grp.Slots, s)
		}
		s := &slotSlab[slotOf[l]]
		s.Ops = append(s.Ops, n)
	}
}

// countGroupVars stamps, group by group, the variables the group's
// operators touch — its slots' operands, which every instance of a slot
// shares: touched[gi] counts them, the variables' First/Last are set, and
// fresh[gi] / live[gi] count the variables starting at group gi / live across
// the boundary after it. It returns the three lists' total length over all
// groups.
//
//tofu:hotpath once per coarsening; enforced by tofu-vet/hotalloc
func countGroupVars(c *Coarse, seen, touched, fresh, live []int32) int {
	total := 0
	for gi, grp := range c.Groups {
		stamp := int32(gi + 1)
		for _, s := range grp.Slots {
			for _, v := range s.In {
				touch(v, gi, stamp, seen, touched)
			}
			touch(s.Out, gi, stamp, seen, touched)
		}
		total += int(touched[gi])
	}
	for _, v := range c.Vars {
		if v.First < 0 {
			continue
		}
		fresh[v.First]++
		for gi := v.First; gi < v.Last; gi++ {
			live[gi]++
		}
		total += 1 + v.Last - v.First
	}
	return total
}

// touch records that group gi references v, once per group.
//
//tofu:hotpath part of countGroupVars
func touch(v *Var, gi int, stamp int32, seen, touched []int32) {
	if seen[v.ID] == stamp {
		return
	}
	seen[v.ID] = stamp
	touched[gi]++
	if v.First < 0 {
		v.First = gi
	}
	v.Last = gi
}

// fillGroupVars carves each group's Vars, NewVars and LiveAfter out of slab
// by the counted sizes and fills them, all three sorted by variable ID.
//
//tofu:hotpath once per coarsening; enforced by tofu-vet/hotalloc
func fillGroupVars(c *Coarse, slab []*Var, seen, touched, fresh, live []int32) {
	base := int32(len(c.Groups))
	for gi, grp := range c.Groups {
		grp.Vars, slab = slab[:0:touched[gi]], slab[touched[gi]:]
		grp.NewVars, slab = slab[:0:fresh[gi]], slab[fresh[gi]:]
		grp.LiveAfter, slab = slab[:0:live[gi]], slab[live[gi]:]
		stamp := base + int32(gi+1) // past every stamp of the count pass
		for _, s := range grp.Slots {
			for _, v := range s.In {
				if seen[v.ID] != stamp {
					seen[v.ID] = stamp
					grp.Vars = append(grp.Vars, v)
				}
			}
			if v := s.Out; seen[v.ID] != stamp {
				seen[v.ID] = stamp
				grp.Vars = append(grp.Vars, v)
			}
		}
		slices.SortFunc(grp.Vars, byVarID)
		for _, v := range grp.Vars {
			if v.First == gi {
				grp.NewVars = append(grp.NewVars, v)
			}
		}
	}
	// c.Vars is ID-ordered, so appending variable by variable keeps every
	// LiveAfter sorted by ID.
	for _, v := range c.Vars {
		for gi := v.First; gi < v.Last; gi++ {
			grp := c.Groups[gi]
			grp.LiveAfter = append(grp.LiveAfter, v)
		}
	}
}

func byVarID(a, b *Var) int { return a.ID - b.ID }

// --- tiny union-find -------------------------------------------------------

// uf is a union-find over [0, len(parent)); newUF adopts the caller's
// storage, so one coarsening allocates both of its forests at once.
type uf struct{ parent []int32 }

func newUF(p []int32) uf {
	for i := range p {
		p[i] = int32(i)
	}
	return uf{parent: p}
}

func (u uf) find(x int) int {
	i := int32(x)
	for u.parent[i] != i {
		u.parent[i] = u.parent[u.parent[i]]
		i = u.parent[i]
	}
	return int(i)
}

func (u uf) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[rb] = int32(ra)
	}
}
