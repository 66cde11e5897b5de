package main

import (
	"bytes"
	"fmt"
	"testing"

	"tofu/internal/models"
	"tofu/internal/plan"
	"tofu/internal/recursive"
)

// runCodecRows measures the plan codec on the largest flat benchmark plan
// (rnn-10-8192@128 on 8 workers, 3.2 MB of JSON): codec/encode is
// Plan.WriteJSON into a fresh buffer, as the service's worker does after a
// search, and codec/verify is plan.Verify, what a store hit pays. Both are
// meant to stay free of per-key allocations, which is what the allocs/op
// gate holds them to.
func runCodecRows() ([]BenchRecord, error) {
	cfg := models.Config{Family: "rnn", Depth: 10, Width: 8192, Batch: 128}
	m, err := models.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", cfg, err)
	}
	p, err := recursive.Partition(m.G, 8, recursive.Options{})
	if err != nil {
		return nil, err
	}
	var raw bytes.Buffer
	if err := p.WriteJSON(&raw); err != nil {
		return nil, err
	}
	var rows []BenchRecord
	for _, op := range []struct {
		name string
		run  func() error
	}{
		{"encode", func() error { var buf bytes.Buffer; return p.WriteJSON(&buf) }},
		{"verify", func() error { _, err := plan.Verify(raw.Bytes(), ""); return err }},
	} {
		var benchErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if benchErr = op.run(); benchErr != nil {
					b.Fatal(benchErr)
				}
			}
		})
		if benchErr != nil {
			return nil, fmt.Errorf("codec/%s: %w", op.name, benchErr)
		}
		rows = append(rows, BenchRecord{
			Name:        fmt.Sprintf("codec/%s/%s", op.name, cfg),
			NsPerOp:     float64(r.NsPerOp()),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Iterations:  r.N,
		})
	}
	return rows, nil
}
