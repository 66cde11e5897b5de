package sim

import (
	"container/heap"

	"tofu/internal/graph"
	"tofu/internal/graphgen"
	"tofu/internal/memplan"
	"tofu/internal/topo"
)

// RunSwap simulates the swapping baseline of Sec 7.1: a single GPU running
// the whole graph, spilling buffers to host memory when the working set
// exceeds device capacity. Following the paper's baseline (vDNN-style
// least-recently-used eviction with an execution-driven prefetcher), the
// policy is LRU over memory blocks — which, like the real system, degrades
// sharply once the cyclic weight accesses of a large RNN exceed capacity
// (Sec 7.2: "the amount of swapping increases significantly") — with
// SwapOverlap of the transfer hidden behind compute and dataflow-driven
// deallocation of dead buffers:
//
//   - any memory block may spill, not just activations;
//   - read-only tensors (weights, inputs, optimizer state) are copied to
//     host once and dropped on eviction — only reloads cost;
//   - all of one host's replicas share that host's CPU link, so each sees
//     HostBandwidth/GPUsPerHost (the Sec 7.2 bottleneck; on a flat machine
//     that is HostBandwidth/NumGPUs exactly as before).
func RunSwap(sh *graphgen.Sharded, tp topo.Topology, batch int64) Result {
	hw := tp.HW
	var res Result
	res.Mem = memplan.Plan(sh, memplan.DefaultOptions())

	// In-place alias chains (gradient aggregation, optimizer updates) share
	// one memory block; collapse them so the policy sees real buffers.
	root := memplan.AliasRoots(sh, true)

	// Precompute every buffer's access sequence (op indices touching it).
	uses := map[int][]int{}
	for i, os := range sh.Ops {
		for _, in := range os.Node.Inputs {
			uses[root[in.ID]] = append(uses[root[in.ID]], i)
		}
		uses[root[os.Node.Output.ID]] = append(uses[root[os.Node.Output.ID]], i)
	}
	const never = 1 << 30
	cursor := map[int]int{} // per tensor: next index into uses
	nextUse := func(id int, now int) int {
		seq := uses[id]
		c := cursor[id]
		for c < len(seq) && seq[c] <= now {
			c++
		}
		cursor[id] = c
		if c == len(seq) {
			return never // never again: free, don't swap
		}
		return seq[c]
	}

	readonly := func(t *graph.Tensor) bool {
		return t.Kind == graph.Weight || t.Kind == graph.Input || t.Kind == graph.OptState
	}
	persistentKind := func(t *graph.Tensor) bool {
		// Weights/state live across iterations; they are never "dead".
		return readonly(t)
	}
	tensorByID := map[int]*graph.Tensor{}
	for _, t := range sh.G.Tensors {
		tensorByID[t.ID] = t
	}

	// Resident set with an LRU priority heap (lazily refreshed on pops).
	h := &lruHeap{}
	lastUse := map[int]int{}
	resident := map[int]bool{}
	spilled := map[int]bool{} // evicted at least once: reloading costs
	var residentBytes int64
	capacity := hw.GPUMemBytes
	var trafficBytes float64
	var inUse map[int]bool

	evictFor := func(need int64, now int) bool {
		var pinned []swapEntry
		defer func() {
			for _, e := range pinned {
				heap.Push(h, e)
			}
		}()
		evicted := map[int]bool{}
		for residentBytes+need > capacity {
			found := false
			for h.Len() > 0 {
				e := heap.Pop(h).(swapEntry)
				if !resident[e.id] || evicted[e.id] {
					continue // stale duplicate
				}
				// Lazily refresh stale recency; a refreshed entry
				// re-enters the heap with its true last-use time.
				if fresh := lastUse[e.id]; fresh != e.last {
					e.last = fresh
					heap.Push(h, e)
					continue
				}
				if inUse[e.id] {
					pinned = append(pinned, e)
					continue
				}
				resident[e.id] = false
				evicted[e.id] = true
				spilled[e.id] = true
				residentBytes -= sh.TensorShard[e.id]
				if !readonly(tensorByID[e.id]) {
					trafficBytes += float64(sh.TensorShard[e.id])
				}
				found = true
				break
			}
			if !found {
				return false // everything live is pinned by the current op
			}
		}
		return true
	}
	touch := func(id int, now int, load bool) bool {
		lastUse[id] = now
		if resident[id] {
			heap.Push(h, swapEntry{id: id, last: now})
			return true
		}
		bytes := sh.TensorShard[id]
		if !evictFor(bytes, now) {
			return false
		}
		// Only reloading previously spilled data costs host traffic; the
		// initial placement of weights and inputs is not per-iteration swap
		// traffic.
		if load && spilled[id] {
			trafficBytes += float64(bytes)
		}
		resident[id] = true
		residentBytes += bytes
		heap.Push(h, swapEntry{id: id, last: now})
		return true
	}

	var compute float64
	for i, os := range sh.Ops {
		n := os.Node
		inUse = map[int]bool{root[n.Output.ID]: true}
		for _, in := range n.Inputs {
			inUse[root[in.ID]] = true
		}
		ok := true
		for _, in := range n.Inputs {
			ok = ok && touch(root[in.ID], i, true)
		}
		// Outputs are produced, not loaded; aliased outputs reuse the
		// already-resident root block.
		ok = ok && touch(root[n.Output.ID], i, false)
		if !ok {
			res.OOM = true // one operator's working set exceeds device memory
			return res
		}
		compute += KernelTime(hw, os)

		// Dead buffers are deallocated by the memory manager, not swapped:
		// no writeback, no future reload.
		for id := range inUse {
			if resident[id] && nextUse(id, i) == never && !persistentKind(tensorByID[id]) {
				resident[id] = false
				residentBytes -= sh.TensorShard[id]
			}
		}
	}

	res.ComputeSeconds = compute

	// Mesh-concurrency pressure (Sec 7.2): frameworks schedule operators as
	// soon as they are ready, so an unrolled RNN keeps many timesteps in
	// flight at once; each concurrently-active timestep re-fetches whatever
	// share of the working set exceeds the device. A serial sweep cannot
	// exhibit this, so it is modeled explicitly: one overflow's worth of
	// traffic per unrolled timestep.
	steps := 0
	for _, os := range sh.Ops {
		if os.Node.UnrollTag != "" && os.Node.Timestep+1 > steps {
			steps = os.Node.Timestep + 1
		}
	}
	if overflow := res.Mem.PeakBytes - capacity; steps > 1 && overflow > 0 {
		trafficBytes += float64(steps) * float64(overflow)
	}

	share := hw.HostBandwidth / float64(tp.GPUsPerHost())
	transfer := trafficBytes / share
	res.CommSeconds = transfer
	// The prefetcher hides SwapOverlap of whichever side is shorter.
	lo, hi := compute, transfer
	if lo > hi {
		lo, hi = hi, lo
	}
	res.IterSeconds = hi + (1-hw.SwapOverlap)*lo
	if res.IterSeconds > 0 {
		res.Throughput = float64(batch) / res.IterSeconds * float64(tp.NumGPUs())
	}
	return res
}

// swapEntry pairs a buffer with its last-use op index.
type swapEntry struct {
	id   int
	last int
}

// lruHeap pops the LEAST recently used entry first.
type lruHeap []swapEntry

func (h lruHeap) Len() int            { return len(h) }
func (h lruHeap) Less(i, j int) bool  { return h[i].last < h[j].last }
func (h lruHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *lruHeap) Push(x interface{}) { *h = append(*h, x.(swapEntry)) }
func (h *lruHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
