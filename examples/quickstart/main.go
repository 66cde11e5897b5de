// Quickstart: build a training graph that exceeds one GPU's memory,
// partition it across 8 simulated GPUs with Tofu, and compare the result
// with the single-GPU alternatives.
package main

import (
	"fmt"
	"log"

	"tofu"
)

func main() {
	// A 6-layer LSTM with 4K hidden units unrolled 20 steps: 8.4 GB of
	// weights/gradients/optimizer state alone — too big for a 12 GB GPU at
	// any useful batch size (the paper's RNN-6-4K benchmark).
	m, err := tofu.RNN(6, 4096, 512, 20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model %s: %d operators, %.1f GB of weight state\n",
		m.Name, len(m.G.Nodes), float64(m.WeightBytes3x())/(1<<30))

	// One call runs the whole pipeline: TDL analysis discovers each
	// operator's partition strategies, the graph is coarsened, the
	// recursive DP picks the communication-minimal plan, and the
	// partitioned execution is generated.
	s, err := tofu.Partition(m.G, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("partitioned in %v: %d recursive steps, %.2f GB communication/iter\n",
		s.SearchTime.Round(1e6), len(s.Plan.Steps), s.Plan.TotalComm()/(1<<30))
	fmt.Printf("per-GPU footprint: %.1f GB (fits a 12 GB device: %v)\n",
		float64(s.Memory.PeakBytes)/(1<<30), s.Memory.Fits(12<<30))

	// Simulate one training iteration on the default 8-GPU machine.
	res := tofu.Simulate(s, m.Batch, tofu.DefaultPipelineOptions(), nil)
	fmt.Printf("Tofu: %.0f samples/s (%.2f s/iteration)\n\n", res.Throughput, res.IterSeconds)

	// How the alternatives fare on the same model (Figure 9's comparison).
	cfg := m.Cfg
	for _, sys := range []tofu.System{tofu.Ideal, tofu.SmallBatch, tofu.Swap, tofu.OpPlacement} {
		out, err := tofu.EvaluateSystem(cfg, sys, tofu.DefaultTopology())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %.0f samples/s (batch %d)\n", sys, out.Throughput, out.Batch)
	}
}
