package models

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"sync"
	"testing"

	"tofu/internal/graph"
)

// pinnedGraphs are the models of the repository benchmark's twelve cold
// cases (bench/workloads/cold-*.json; the transformer-2-1024@64 model serves
// two of them) plus one mlp, rnn and transformer from the serve grids, with
// the sha256 of their canonical dumps as recorded before the graph builder
// moved to slabs (PR 25). Any builder change must keep every hash.
var pinnedGraphs = []struct {
	cfg    Config
	sha256 string
}{
	{Config{"wresnet", 50, 4, 32}, "d30167a61e9f87968a2fb88f285523370fc41f2ee6794f40a2c0a48e6ef425b9"},
	{Config{"wresnet", 152, 10, 8}, "23ef692caa208829f8c479ab7d5fe161850fe6095b224c8929de1d85095bfbcd"},
	{Config{"rnn", 10, 8192, 128}, "b2c764f32827a466f0ae4906f1c9b565fd58c6ca5e77566f2fe55134bfcb55d2"},
	{Config{"transformer", 4, 1024, 16}, "a34e94d9688e959a93d655aadc581c49c8b2bf67d75ce37ea7e1c4531e110ebb"},
	{Config{"rnn", 2, 8192, 256}, "adc008d2232b2551dfeca290937d48e27224f27988bde9ece2aa265f6b089644"},
	{Config{"transformer", 2, 1536, 24}, "96904d60f9b6218904de1aa00eeddbd864272bb5ac356690e3c78afd2452770b"},
	{Config{"transformer", 2, 1024, 64}, "ef77a4447319285e05df7f81eede0f059b136084f67f8a25d109605b09936ff1"},
	{Config{"mlp", 3, 3072, 48}, "49eed9c7eef46d3f37bf05c39be2fb74d7aa439177b2f16ea16128da47143c27"},
	{Config{"mlp", 4, 384, 48}, "2af5a4cbab59d7c0bf2923d23f9412ee04e22aab5837d636463e2e28482a5f26"},
	{Config{"mlp", 8, 256, 64}, "672525b73643f49c815e5e5a439758e6d8b00ad52d158a462aa20beeb66f1c1b"},
	{Config{"rnn", 2, 1024, 64}, "b5b2a95d26efff74d4cfe53b88c4c2a72041701cbada71ff76a6447ee4ccd179"},
	{Config{"mlp", 2, 256, 64}, "ffc3e9b7d05c8a2149d2a06881fc3f311abc5848e5cdfdfed6d7a25b554b2e52"},
	{Config{"rnn", 1, 512, 64}, "cc69bd28e2d98a4bda156d37bc032ea01b39ed4e0c8b0b743ec999a21df03449"},
	{Config{"transformer", 1, 256, 64}, "67989654c87f25546d4b8a53463ab2e0dc904f30f22dfd0ffa71259bc03e8f4e"},
}

// dumpGraph writes the canonical form of a graph: per node its ID, op,
// sorted attributes, input and output IDs, unroll tag and timestep, FwdOf,
// GradAgg and InPlace; per tensor its ID, name, kind, dtype, shape, consumer
// IDs in order, GradOf and Grad. Links print as IDs, nil as -1.
func dumpGraph(w io.Writer, g *graph.Graph) {
	tid := func(t *graph.Tensor) int {
		if t == nil {
			return -1
		}
		return t.ID
	}
	for _, n := range g.Nodes {
		fmt.Fprintf(w, "n %d %s {", n.ID, n.Op)
		keys := make([]string, 0, len(n.Attrs))
		for k := range n.Attrs {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "%s=%d,", k, n.Attrs[k])
		}
		fmt.Fprint(w, "} in")
		for _, in := range n.Inputs {
			fmt.Fprintf(w, " %d", in.ID)
		}
		fwd := -1
		if n.FwdOf != nil {
			fwd = n.FwdOf.ID
		}
		fmt.Fprintf(w, " out %d tag %q ts %d fwd %d agg %t inplace %t\n",
			tid(n.Output), n.UnrollTag, n.Timestep, fwd, n.GradAgg, n.InPlace)
	}
	for _, t := range g.Tensors {
		fmt.Fprintf(w, "t %d %q %v %v %v cons", t.ID, t.Name, t.Kind, t.DType, []int64(t.Shape))
		for _, c := range t.Consumers {
			fmt.Fprintf(w, " %d", c.ID)
		}
		fmt.Fprintf(w, " gradof %d grad %d\n", tid(t.GradOf), tid(t.Grad))
	}
}

func graphSHA256(g *graph.Graph) string {
	h := sha256.New()
	w := bufio.NewWriter(h)
	dumpGraph(w, g)
	w.Flush()
	return hex.EncodeToString(h.Sum(nil))
}

// TestModelGraphsPinned rebuilds every pinned model and checks the hash of
// its canonical dump: IDs, names, attributes, shapes, consumer order and the
// autodiff links are exactly what the builder produced before.
func TestModelGraphsPinned(t *testing.T) {
	for _, c := range pinnedGraphs {
		m, err := Build(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := graphSHA256(m.G); got != c.sha256 {
			t.Errorf("%v: graph sha256 %s, pinned %s", c.cfg, got, c.sha256)
		}
	}
}

// TestBuildConcurrent builds the cold cases' models on 8 goroutines at once
// (run it under -race): builders share the read-only per-rank attributes and
// the operator tables, and nothing they write.
func TestBuildConcurrent(t *testing.T) {
	cold := pinnedGraphs[:11] // the cold cases' models
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range cold {
				c := cold[(w+i)%len(cold)]
				m, err := Build(c.cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if err := m.G.Validate(); err != nil {
					t.Errorf("%v: %v", c.cfg, err)
				}
			}
		}()
	}
	wg.Wait()
	// One more sequential build proves the concurrent ones left the shared
	// tables as they were.
	m, err := Build(cold[0].cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := graphSHA256(m.G); got != cold[0].sha256 {
		t.Errorf("%v after concurrent builds: graph sha256 %s, pinned %s", cold[0].cfg, got, cold[0].sha256)
	}
}

// TestBuildAllocsPerNode holds graph construction to the allocation counts
// measured when it moved to slabs (PR 25: 25 306, 9 425, 941 and 139; the
// builder before allocated 13-14 objects per node, e.g. 130 170 for
// rnn-10-8192@128). The ceilings leave the 0.2-4 % a -race build adds; one
// more allocation per node exceeds them all.
func TestBuildAllocsPerNode(t *testing.T) {
	ceilings := []struct {
		cfg    Config
		allocs float64
	}{
		{Config{"rnn", 10, 8192, 128}, 25400},
		{Config{"wresnet", 152, 10, 8}, 9500},
		{Config{"transformer", 4, 1024, 16}, 960},
		{Config{"mlp", 2, 256, 64}, 150},
	}
	for _, c := range ceilings {
		nodes := 0
		got := testing.AllocsPerRun(2, func() {
			m, err := Build(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			nodes = len(m.G.Nodes)
		})
		t.Logf("%v: %.0f allocations, %.2f per node", c.cfg, got, got/float64(nodes))
		if got > c.allocs {
			t.Errorf("%v: Build allocates %.0f objects (%.2f per node), ceiling %.0f", c.cfg, got, got/float64(nodes), c.allocs)
		}
	}
}
