// WResNet example: partition the largest convolutional benchmark of the
// paper (WResNet-152 widened 10x, 65 GB of weight state) and inspect the
// non-trivial plan Tofu finds — the paper's Figure 11.
package main

import (
	"fmt"
	"log"
	"strings"

	"tofu"
)

func main() {
	m, err := tofu.WResNet(152, 10, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d operators, %.1f GB weight state (3W)\n",
		m.Name, len(m.G.Nodes), float64(m.WeightBytes3x())/(1<<30))

	s, err := tofu.Partition(m.G, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("search: %v, plan communication: %.1f GB/iteration\n",
		s.SearchTime.Round(1e6), s.Plan.TotalComm()/(1<<30))
	fmt.Printf("per-GPU memory: %.1f GB of 12 GB\n\n", float64(s.Memory.PeakBytes)/(1<<30))

	// The paper's Figure 11 observation: the plan mixes batch and channel
	// partitioning, differs across the three convolutions of a bottleneck,
	// and switches from fetching weights (lower layers, big activations) to
	// fetching activations (higher layers, big weights).
	fmt.Println("convolution weight tilings (co=out-channel, ci=in-channel):")
	shown := 0
	var last string
	repeats := 0
	flush := func() {
		if last == "" {
			return
		}
		if repeats > 1 {
			fmt.Printf("  %s   x%d\n", last, repeats)
		} else {
			fmt.Printf("  %s\n", last)
		}
	}
	for _, w := range m.G.Weights() {
		if !strings.Contains(w.Name, ".w") || w.Shape.Rank() != 4 {
			continue
		}
		line := fmt.Sprintf("%-14s %-22s %s", w.Name, w.Shape.String(), s.Plan.CutSummary(w.ID))
		pat := line[14:]
		if last != "" && pat == last[14:] {
			repeats++
			continue
		}
		flush()
		last, repeats = line, 1
		shown++
		if shown > 40 {
			fmt.Println("  ...")
			last = ""
			break
		}
	}
	flush()

	res := tofu.Simulate(s, m.Batch, tofu.DefaultPipelineOptions(), nil)
	fmt.Printf("\nsimulated training: %.1f samples/s at batch %d\n", res.Throughput, m.Batch)
}
