// RNN example: sweep the paper's RNN configurations (Figure 9) on the
// simulated machine, showing where each alternative runs out of memory and
// where Tofu keeps training.
package main

import (
	"fmt"
	"log"

	"tofu"
)

func main() {
	machine := tofu.DefaultTopology()
	systems := []tofu.System{tofu.Ideal, tofu.SmallBatch, tofu.Swap, tofu.OpPlacement, tofu.TofuSystem}

	for _, layers := range []int{6, 8} {
		for _, hidden := range []int64{4096, 6144} {
			cfg := tofu.ModelConfig{Family: "rnn", Depth: layers, Width: hidden, Batch: 512}
			fmt.Printf("\nRNN-%d-%dK (batch 512):\n", layers, hidden/1024)
			var ideal float64
			for _, sys := range systems {
				out, err := tofu.EvaluateSystem(cfg, sys, machine)
				if err != nil {
					log.Fatal(err)
				}
				if sys == tofu.Ideal {
					ideal = out.Throughput
				}
				if out.Throughput == 0 {
					fmt.Printf("  %-14s OOM\n", sys)
					continue
				}
				fmt.Printf("  %-14s %6.0f samples/s  (%.0f%% of ideal, batch %d)\n",
					sys, out.Throughput, out.Throughput/ideal*100, out.Batch)
			}
		}
	}
}
