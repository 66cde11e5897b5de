// Attention example: Tofu was evaluated on CNNs and RNNs, but nothing in
// the machinery is specific to them — this example partitions a Transformer
// encoder, the model family Tofu's successors (GSPMD, Alpa) targeted. The
// attention block's Q/K/V fan-out gives the coarsened graph a wider
// frontier than the paper's chains, so the search uses a (generous) beam
// bound on the exact DP.
package main

import (
	"fmt"
	"log"

	"tofu"
	"tofu/internal/models"
	"tofu/internal/recursive"
)

func main() {
	m, err := models.Transformer(4, 2048, 256, 32)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d operators, %.2f GB weight state (3W)\n",
		m.Name, len(m.G.Nodes), float64(m.WeightBytes3x())/(1<<30))

	opts := tofu.DefaultPipelineOptions()
	opts.Search = recursive.Options{MaxStates: 512}
	s, err := tofu.PartitionWithOptions(m.G, 8, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("search %v (frontier width %d, %d groups): %.2f GB comm/iter, %.2f GB/GPU\n",
		s.SearchTime.Round(1e6), s.Frontier, s.Groups,
		s.Plan.TotalComm()/(1<<30), float64(s.Memory.PeakBytes)/(1<<30))
	if !s.Plan.Monotone() {
		log.Fatal("plan violates Theorem 2")
	}

	// The interesting tilings: token-wise linear weights can partition by
	// input features, output features, or via output reduction over the
	// batch/sequence axes in the backward pass.
	fmt.Println("\nattention weight tilings:")
	for _, w := range m.G.Weights() {
		if w.Shape.Rank() != 2 || w.Shape.Elems() < 1<<20 {
			continue
		}
		fmt.Printf("  %-10s %-14s %s\n", w.Name, w.Shape, s.Plan.CutSummary(w.ID))
	}

	res := tofu.Simulate(s, m.Batch, opts, nil)
	fmt.Printf("\nsimulated: %.1f sequences/s (%.3f s/iteration)\n",
		res.Throughput, res.IterSeconds)
}
