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
	"math/bits"
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
	// facts is what coarsening looked up about G's nodes; Segment reads it
	// to coarsen segments of G without looking anything up again.
	facts *nodeFacts
	// whole marks the coarsening of a whole graph (Coarsen), the only kind
	// Segment views.
	whole bool
}

// nodeFacts is everything coarsening needs to know about the nodes of a
// graph beyond its structure. desc, cell and price are dense by node ID;
// cellSig, nsig and prices are tables over the whole graph.
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

	// cellSig maps a cell to its signature id, dense in [0, nsig).
	cellSig []int32
	nsig    int
	// prices holds each distinct pricing signature once.
	prices []string
}

// describeNodes computes the node facts of a root graph: the interning of
// unroll cells and pricing signatures, and one registry lookup per node
// outside an unrolled loop and per unroll signature. A description depends
// only on the operator and its attributes, both part of the signature, so
// every later node of a signature takes the pointer the registry returned
// for its first.
func describeNodes(g *graph.Graph) (nodeFacts, error) {
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
	fr := wholeGraph(g, &facts)
	return coarsen(g, &facts, &fr, &slabs{})
}

// wholeGraph is the frame of a whole graph: local numbers are IDs.
func wholeGraph(g *graph.Graph, facts *nodeFacts) frame {
	return frame{nodes: g.Nodes, tensors: g.Tensors, cell: facts.cell, cellSig: facts.cellSig, nsig: facts.nsig}
}

// Segment coarsens the subgraph of c.G induced by the operators of c's groups
// [lo, hi) and returns exactly what Coarsen would return for that subgraph
// extracted with graph.Subgraph — the same variables, groups, slots and
// structural key — except that it clones nothing: operators and tensors are
// c.G's own, so a segment's plan tables come out in c.G's IDs. Like an
// extraction it numbers the segment's operators in ascending ID and their
// tensors at first sight (inputs, then the output), treats a producer outside
// the segment as absent and counts only the segment's readers of a tensor.
//
// When c is a whole graph's coarsening and the interval keeps c's groups and
// slots, the segment is a view of c (see view.go): c's groups and slots with
// only the variables that reach outside the interval split again. Every other
// interval, and every segment of a segment, is coarsened afresh over a frame
// of the segment's operators (the fallback). The cost follows the segment,
// not c.G: node facts are c's, read by node ID, and every table indexed by
// c.G's IDs lives in sc, which the call leaves as it found it — apart from
// the view index of c, built on sc's first segment of c. sc must not be
// shared between concurrent calls; c itself is only read, so one coarsening
// serves concurrent segments, one scratch each. The pipeline search coarsens
// O(L²) overlapping segments of one graph this way. The result owns its
// storage: its Coarse, variables, groups, slots and lists are allocated for
// it (twelve objects, whatever the segment holds).
func (c *Coarse) Segment(lo, hi int, sc *SegmentScratch) (*Coarse, error) {
	return c.segment(lo, hi, sc, &slabs{})
}

// SegmentTransient is Segment with the result's storage borrowed from sc: the
// Coarse, its variables, groups and slots and every list they hold are sc's
// slabs, which a warm scratch reuses without allocating. The result is valid
// until the next Segment or SegmentTransient call on sc, which overwrites it;
// in particular it must not itself be segmented with sc. What a search
// computes from it (costs, cost-only plans, materialized tables in c.G's IDs)
// names no variable, group or slot by pointer and outlives it.
func (c *Coarse) SegmentTransient(lo, hi int, sc *SegmentScratch) (*Coarse, error) {
	return c.segment(lo, hi, sc, &sc.out)
}

// Viewed reports whether the last Segment or SegmentTransient call on sc
// returned a view of its coarsening rather than coarsening a frame.
func (sc *SegmentScratch) Viewed() bool { return sc.viewed }

// segment coarsens c's groups [lo, hi) into out.
func (c *Coarse) segment(lo, hi int, sc *SegmentScratch, out *slabs) (*Coarse, error) {
	if lo < 0 || hi > len(c.Groups) || lo >= hi {
		return nil, fmt.Errorf("coarsen: segment [%d,%d) out of range for %d groups", lo, hi, len(c.Groups))
	}
	if sc.viewed = c.whole && sc.index(c).viewed(lo, hi); sc.viewed {
		return sc.view(c, lo, hi, out), nil
	}
	fr := sc.load(c, lo, hi)
	seg, err := coarsen(c.G, c.facts, fr, out)
	sc.clear(c.facts, fr)
	return seg, err
}

// SegmentScratch is the working memory of Segment. For the fallback: maps
// from a graph's node, tensor, unroll-cell and signature numbers to a
// segment's, sized on first use and zero again after every call. For views:
// the index of the root last viewed and the tables a view works in, keyed by
// that root's variables and tensors and zero again after every call. And the
// segment's lists, which grow to the largest segment seen: out is what
// SegmentTransient returns.
type SegmentScratch struct {
	node, tensor, cell, sig []int32
	// member is a bitmap over node IDs that load marks a segment's operators
	// in, and clears as it lists them.
	member []uint64
	fr     frame
	out    slabs

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
	viewed         bool
}

// slabs is the storage one coarsening fills: the Coarse, the variable, group
// and slot slabs, the slab of each list type they hold (variable members,
// slot operators and operands, the groups' variable lists, and the pointer
// lists Coarse.Vars, Coarse.Groups and Group.Slots are windows of), and the
// element-wise flags a frame coarsening works with or the variable order a
// view works with. An owned coarsening starts from empty slabs and allocates
// each at its exact size; a transient segment reuses the scratch's, grown to
// the largest segment seen.
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
	ew        []bool
	order     []uint64
}

// resize returns s resliced to n zeroed elements, or a fresh slice when s is
// too short: exactly n for the empty slabs of an owned coarsening, at least
// twice the old capacity for a scratch's.
func resize[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	s = s[:n]
	clear(s)
	return s
}

// grow is resize for a slab its filler overwrites in full: it keeps what a
// reused slab holds.
func grow[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// frame is the numbering one coarsening works in: a whole graph, where a
// node's or tensor's local number is its ID, or a segment, numbered locally.
type frame struct {
	// nodes and tensors list the frame's operators and tensors by local number.
	nodes   []*graph.Node
	tensors []*graph.Tensor
	// node and tensor map an ID to its local number plus one (0: outside the
	// frame), and reads counts a local tensor's readers inside the frame; all
	// three are nil for a whole graph.
	node, tensor, reads []int32
	// cell is each local node's unroll cell (-1 outside any unrolled loop),
	// cellSig a cell's signature, dense in [0, nsig) — nodeFacts' numbering
	// for a whole graph, renumbered at first sight for a segment.
	cell, cellSig []int32
	nsig          int
	// spare backs a segment coarsening's working tables (take) and outlives
	// it; nil for a whole graph, whose tables are allocated afresh.
	spare []int32
	used  int
}

// load builds the frame of c's groups [lo, hi) in sc, sizing sc's maps to
// c.G first. It lists the segment's operators in ascending ID without
// sorting: it marks them in sc.member, then reads the marks back word by word
// over the span between the smallest and the largest ID, clearing each word
// as it goes — O(operators + span/64).
//
//tofu:hotpath once per segment coarsening; enforced by tofu-vet/hotalloc
func (sc *SegmentScratch) load(c *Coarse, lo, hi int) *frame {
	f := c.facts
	if len(sc.node) != len(c.G.Nodes) || len(sc.tensor) != len(c.G.Tensors) ||
		len(sc.cell) != len(f.cellSig) || len(sc.sig) != f.nsig {
		sc.node, sc.tensor = make([]int32, len(c.G.Nodes)), make([]int32, len(c.G.Tensors))
		sc.cell, sc.sig = make([]int32, len(f.cellSig)), make([]int32, f.nsig)
		sc.member = make([]uint64, (len(c.G.Nodes)+63)/64)
	}
	fr := &sc.fr
	fr.node, fr.tensor = sc.node, sc.tensor
	first, last := len(c.G.Nodes), -1
	for _, grp := range c.Groups[lo:hi] {
		for _, s := range grp.Slots {
			for _, n := range s.Ops {
				sc.member[n.ID>>6] |= 1 << (n.ID & 63)
				first, last = min(first, n.ID), max(last, n.ID)
			}
		}
	}
	fr.nodes = fr.nodes[:0]
	for w := first >> 6; w <= last>>6; w++ {
		for x := sc.member[w]; x != 0; x &= x - 1 {
			fr.nodes = append(fr.nodes, c.G.Nodes[w<<6|bits.TrailingZeros64(x)])
		}
		sc.member[w] = 0
	}
	fr.tensors, fr.reads = fr.tensors[:0], fr.reads[:0]
	fr.cell, fr.cellSig, fr.nsig, fr.used = fr.cell[:0], fr.cellSig[:0], 0, 0
	for i, n := range fr.nodes {
		sc.node[n.ID] = int32(i + 1)
		for _, in := range n.Inputs {
			if sc.tensor[in.ID] == 0 {
				fr.tensors, fr.reads = append(fr.tensors, in), append(fr.reads, 0)
				sc.tensor[in.ID] = int32(len(fr.tensors))
			}
			fr.reads[sc.tensor[in.ID]-1]++
		}
		fr.tensors, fr.reads = append(fr.tensors, n.Output), append(fr.reads, 0)
		sc.tensor[n.Output.ID] = int32(len(fr.tensors))
		cell := f.cell[n.ID]
		if cell >= 0 {
			if sc.cell[cell] == 0 {
				sig := f.cellSig[cell]
				if sc.sig[sig] == 0 {
					fr.nsig++
					sc.sig[sig] = int32(fr.nsig)
				}
				fr.cellSig = append(fr.cellSig, sc.sig[sig]-1)
				sc.cell[cell] = int32(len(fr.cellSig))
			}
			cell = sc.cell[cell] - 1
		}
		fr.cell = append(fr.cell, cell)
	}
	return fr
}

// clear zeroes every map entry load set.
//
//tofu:hotpath once per segment coarsening; enforced by tofu-vet/hotalloc
func (sc *SegmentScratch) clear(f *nodeFacts, fr *frame) {
	for _, n := range fr.nodes {
		sc.node[n.ID] = 0
		if cell := f.cell[n.ID]; cell >= 0 {
			sc.cell[cell], sc.sig[f.cellSig[cell]] = 0, 0
		}
	}
	for _, t := range fr.tensors {
		sc.tensor[t.ID] = 0
	}
}

// take returns n zeroed int32s of working memory: allocated for a whole
// graph, carved from the spare slab for a segment — a slab later segments
// reuse, grown when one needs more.
//
//tofu:hotpath part of every coarsening
func (f *frame) take(n int) []int32 {
	if f.tensor == nil {
		return make([]int32, n)
	}
	if f.used+n > len(f.spare) {
		f.spare, f.used = make([]int32, max(2*len(f.spare), n)), 0
	}
	s := f.spare[f.used : f.used+n : f.used+n]
	f.used += n
	clear(s)
	return s
}

// local returns a tensor's local number.
//
//tofu:hotpath part of every coarsening
func (f *frame) local(t *graph.Tensor) int {
	if f.tensor == nil {
		return t.ID
	}
	return int(f.tensor[t.ID]) - 1
}

// before returns the local number of node m when the frame holds it ahead of
// local node i, and -1 otherwise — the links an extraction keeps. A whole
// graph holds every node and keeps every link.
//
//tofu:hotpath part of every coarsening
func (f *frame) before(m *graph.Node, i int) int {
	if f.node == nil {
		return m.ID
	}
	if j := int(f.node[m.ID]) - 1; j < i {
		return j
	}
	return -1
}

// fwd returns the local number of local node i's forward node (n.FwdOf), or
// -1 when it has none in the frame.
//
//tofu:hotpath part of every coarsening
func (f *frame) fwd(n *graph.Node, i int) int {
	if n.FwdOf == nil {
		return -1
	}
	return f.before(n.FwdOf, i)
}

// readers counts a tensor's reads by the frame's operators.
//
//tofu:hotpath part of every coarsening
func (f *frame) readers(t *graph.Tensor) int {
	if f.tensor == nil {
		return len(t.Consumers)
	}
	return int(f.reads[f.tensor[t.ID]-1])
}

// coarsen is the coarsening algorithm over a frame of a valid graph
// (producers precede consumers) and the graph's node facts, read by node ID.
// It writes its result into out.
func coarsen(g *graph.Graph, facts *nodeFacts, fr *frame, out *slabs) (*Coarse, error) {
	nT, nN := len(fr.tensors), len(fr.nodes)
	parents := fr.take(nT + nN)
	// --- tensor variables: union-find over tensors --------------------
	tuf := newUF(parents[:nT:nT])

	// Element-wise coalescing: inputs and output of an element-wise op share
	// a partition.
	out.ew = resize(out.ew, nN)
	ewNode := out.ew
	for i, n := range fr.nodes {
		if !facts.desc[n.ID].IsElementwise() {
			continue
		}
		ewNode[i] = true
		for _, in := range n.Inputs {
			if in.Shape.Equal(n.Output.Shape) {
				tuf.union(fr.local(in), fr.local(n.Output))
			}
		}
	}

	// Timestep merging: structurally identical ops across timesteps share
	// slots; their same-position tensors share variables.
	leader := slotLeaders(fr)
	for i, n := range fr.nodes {
		if int(leader[i]) == i {
			continue
		}
		rep := fr.nodes[leader[i]]
		for p := range n.Inputs {
			if n.Inputs[p].Shape.Equal(rep.Inputs[p].Shape) {
				tuf.union(fr.local(n.Inputs[p]), fr.local(rep.Inputs[p]))
			}
		}
		tuf.union(fr.local(n.Output), fr.local(rep.Output))
	}

	if out.coarse == nil {
		out.coarse = new(Coarse)
	}
	c := out.coarse
	*c = Coarse{G: g, facts: facts, whole: fr.node == nil}
	varOf, err := buildVars(c, fr, tuf, out)
	if err != nil {
		return nil, err
	}

	// --- operator groups: union-find over nodes -------------------------
	nuf := newUF(parents[nT:])
	// Backward ops join their forward op.
	for i, n := range fr.nodes {
		if j := fr.fwd(n, i); j >= 0 {
			nuf.union(i, j)
		}
	}
	// Optimizer updates join the group producing their gradient input, so a
	// weight variable's whole lifetime (forward use, gradient, update) is
	// decided in one DP step — the paper's weight tensor groups.
	for i, n := range fr.nodes {
		if n.Op != "sgd_update" && n.Op != "adam_update" {
			continue
		}
		if len(n.Inputs) >= 2 && n.Inputs[1].Producer != nil {
			if j := fr.before(n.Inputs[1].Producer, i); j >= 0 {
				nuf.union(i, j)
			}
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
	for i, n := range fr.nodes {
		if !ewNode[i] || fr.fwd(n, i) >= 0 || n.GradAgg {
			continue
		}
		for _, in := range n.Inputs {
			p := in.Producer
			if p == nil || fr.readers(in) != 1 {
				continue
			}
			if j := fr.before(p, i); j >= 0 && ewNode[j] && fr.fwd(p, j) < 0 && !p.GradAgg {
				nuf.union(i, j)
			}
		}
	}

	buildGroups(c, fr, nuf, leader, varOf, out)
	return c, nil
}

// slotLeaders groups UnrollTag'd nodes into per-structural-position slots
// and returns, dense by local node number, the first node of each node's slot
// (the node itself outside any slot, and for a slot of one). The slot key is
// (signature id — tag, op and attributes, see nodeFacts — and ordinal among
// same-signature ops in the same timestep, which is the node's rank within
// its cell); instances whose shapes disagree with the slot's first node are
// left unmerged.
//
//tofu:hotpath once per coarsening; enforced by tofu-vet/hotalloc
func slotLeaders(f *frame) []int32 {
	nN := len(f.nodes)
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
	ints := f.take(nN + f.nsig + 1 + len(f.cellSig) + unrolled)
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
	for i, n := range f.nodes {
		leader[i] = int32(i)
		c := f.cell[i]
		if c < 0 {
			continue
		}
		k := start[f.cellSig[c]] + rank[c]
		rank[c]++
		if first[k] == 0 {
			first[k] = int32(i) + 1
		} else if rep := first[k] - 1; sameSignature(f.nodes[rep], n) {
			// Keep only shape-consistent instances merged.
			leader[i] = rep
		}
	}
	return leader
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

// buildVars materializes the variables from the tensor union-find, numbered
// by their first member tensor: one pass counts the classes and their sizes,
// the next fills one slab of variables and one of member lists. It returns
// the variable index of every local tensor.
func buildVars(c *Coarse, fr *frame, tuf uf, out *slabs) ([]int32, error) {
	nT := len(fr.tensors)
	// varOfRoot[r] is the variable of the class rooted at tensor r, plus
	// one; size[v] variable v's member count; varOf[i] local tensor i's
	// variable.
	ints := fr.take(3 * nT)
	varOfRoot, size, varOf := ints[:nT], ints[nT:2*nT], ints[2*nT:]
	nVars := 0
	for i := range fr.tensors {
		r := tuf.find(i)
		if varOfRoot[r] == 0 {
			nVars++
			varOfRoot[r] = int32(nVars)
		}
		size[varOfRoot[r]-1]++
	}
	out.vars, out.members = resize(out.vars, nVars), resize(out.members, nT)
	out.varPtrs = resize(out.varPtrs, nVars)
	c.Vars = out.varPtrs
	if bad := fillVars(c, fr, tuf, out.vars, out.members, varOfRoot, size, varOf); bad >= 0 {
		v, t := c.Vars[varOf[bad]], fr.tensors[bad]
		return nil, fmt.Errorf("coarsen: variable %v merged mismatched shapes %v vs %v (tensor %v)",
			v, v.Shape, t.Shape, t)
	}
	return varOf, nil
}

// fillVars is buildVars' fill pass. It returns the local number of the first
// tensor whose shape disagrees with its variable's, -1 when there is none.
//
//tofu:hotpath once per coarsening; enforced by tofu-vet/hotalloc
func fillVars(c *Coarse, fr *frame, tuf uf, vars []Var, members []*graph.Tensor, varOfRoot, size, varOf []int32) int {
	for i := range vars {
		v := &vars[i]
		v.ID, v.First, v.Last = i, -1, -1
		v.Tensors, members = members[:0:size[i]], members[size[i]:]
		c.Vars[i] = v
	}
	for i, t := range fr.tensors {
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
// visited in local order throughout, so a group or slot is met first at its
// earliest member and lists fill in that order with nothing to sort.
func buildGroups(c *Coarse, fr *frame, nuf uf, leader, varOf []int32, out *slabs) {
	nN := len(fr.nodes)
	// groupOfRoot[r] is the group of the class rooted at node r, plus one;
	// groupOf[i] node i's group; slots[gi] group gi's slot count; ops[l]
	// the operator count and slotOf[l] the index of the slot led by node l.
	ints := fr.take(5 * nN)
	groupOfRoot, groupOf, slots, ops, slotOf := ints[:nN], ints[nN:2*nN], ints[2*nN:3*nN], ints[3*nN:4*nN], ints[4*nN:]
	nGroups, nSlots, nIn := 0, 0, 0
	for i, n := range fr.nodes {
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

	out.groups, out.groupPtrs = resize(out.groups, nGroups), resize(out.groupPtrs, nGroups)
	out.slots, out.slotPtrs = resize(out.slots, nSlots), resize(out.slotPtrs, nSlots)
	out.ops, out.operands = resize(out.ops, nN), resize(out.operands, nIn)
	c.Groups = out.groupPtrs
	fillGroups(c, fr, out.groups, out.slots, out.slotPtrs, out.ops, out.operands, varOf, leader, groupOf, slots, ops, slotOf)

	// Per-group variable lists. Count first: vars[gi] distinct variables
	// touched (which also fixes every variable's First/Last), then how many
	// start at each group and how many stay live across each boundary.
	counts := fr.take(len(c.Vars) + 3*nGroups)
	seen, counts := counts[:len(c.Vars)], counts[len(c.Vars):]
	touched, fresh, live := counts[:nGroups], counts[nGroups:2*nGroups], counts[2*nGroups:]
	total := countGroupVars(c, seen, touched, fresh, live)
	// Variables never referenced by any op (dangling tensors) live nowhere;
	// they are dropped from the DP by construction.
	out.varLists = resize(out.varLists, total)
	fillGroupVars(c, out.varLists, seen, touched, fresh, live)
}

// fillGroups lays out the groups, their slots and the slots' operators and
// operands.
//
//tofu:hotpath once per coarsening; enforced by tofu-vet/hotalloc
func fillGroups(c *Coarse, fr *frame, groups []Group, slotSlab []Slot, slotPtrs []*Slot, opSlab []*graph.Node,
	inSlab []*Var, varOf, leader, groupOf, slots, ops, slotOf []int32) {

	for gi := range groups {
		grp := &groups[gi]
		grp.ID = gi
		grp.Slots, slotPtrs = slotPtrs[:0:slots[gi]], slotPtrs[slots[gi]:]
		c.Groups[gi] = grp
	}
	next := 0
	for i, n := range fr.nodes {
		l := leader[i]
		if int(l) == i {
			s := &slotSlab[next]
			slotOf[i] = int32(next)
			next++
			s.Ops, opSlab = opSlab[:0:ops[i]], opSlab[ops[i]:]
			s.In, inSlab = inSlab[:len(n.Inputs):len(n.Inputs)], inSlab[len(n.Inputs):]
			for p, in := range n.Inputs {
				s.In[p] = c.Vars[varOf[fr.local(in)]]
			}
			s.Out = c.Vars[varOf[fr.local(n.Output)]]
			s.Desc = c.facts.desc[n.ID]
			s.Sig = c.facts.prices[c.facts.price[n.ID]]
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
