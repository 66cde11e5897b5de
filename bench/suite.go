package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

const suiteSchema = "tofu-bench/v1"

// suite is the document `-all` writes and `-compare` reads: every metric of
// every workload, one value per run.
type suite struct {
	Schema    string                    `json:"schema"`
	Quick     bool                      `json:"quick,omitempty"`
	Seconds   float64                   `json:"seconds"`
	Seeds     []int64                   `json:"seeds"`
	Workloads map[string]*suiteWorkload `json:"workloads"`
}

type suiteWorkload struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]*suiteMetric `json:"metrics"`
}

type suiteMetric struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

func newSuite(cfg config) *suite {
	return &suite{Schema: suiteSchema, Quick: cfg.quick, Seconds: cfg.seconds, Workloads: map[string]*suiteWorkload{}}
}

// add folds one run's result line into the document.
func (s *suite) add(workload string, res result) {
	w := s.Workloads[workload]
	if w == nil {
		w = &suiteWorkload{Correct: true, Metrics: map[string]*suiteMetric{}}
		s.Workloads[workload] = w
	}
	w.Correct = w.Correct && res.Correct
	w.Attempted += res.Attempted
	w.Failed += res.Failed
	for name, v := range res.Metrics {
		m := w.Metrics[name]
		if m == nil {
			m = &suiteMetric{Unit: v.Unit}
			w.Metrics[name] = m
		}
		m.Values = append(m.Values, v.Value) //tofu:allow-mapiter each metric appends to its own slice; no order crosses metrics
	}
}

// suiteMain runs every workload in both trace modes, each run in a child
// process of its own, runs times over.
func suiteMain(cfg config, runs int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	s := newSuite(cfg)
	for i := 0; i < runs; i++ {
		seed := cfg.seed + int64(i)
		s.Seeds = append(s.Seeds, seed)
		for _, name := range workloadNames {
			for _, trace := range []string{"0", "1"} {
				args := []string{"--workload", name, "--seed", strconv.FormatInt(seed, 10),
					"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", trace, "-root", cfg.root}
				if cfg.quick {
					args = append(args, "-quick")
				}
				fmt.Fprintf(os.Stderr, "== %s seed %d trace %s\n", name, seed, trace)
				cmd := exec.Command(exe, args...)
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s (trace %s): %w", name, trace, err)
				}
				lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					return fmt.Errorf("%s (trace %s): result line: %w", name, trace, err)
				}
				s.add(name, res)
			}
		}
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

func readSuite(path string) (*suite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suite
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != suiteSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, s.Schema, suiteSchema)
	}
	if s.Quick {
		return nil, fmt.Errorf("%s: a -quick document is never comparable", path)
	}
	return &s, nil
}

// verdict applies a metric's bound to a baseline (a) and a candidate (b).
// worse is the share of a's median by which b's median is worse (negative
// when better); spread is the wider of the two inter-quartile ranges as a
// share of its median, 0 when a side has a single run.
func verdict(d metricDef, a, b []float64) (v string, worse, spread float64) {
	ma, mb := median(a), median(b)
	worse = (mb - ma) / ma
	if d.Better == higher {
		worse = -worse
	}
	for _, xs := range [][]float64{a, b} {
		if len(xs) >= 2 {
			q1, q3 := quartiles(xs)
			spread = max(spread, (q3-q1)/median(xs))
		}
	}
	// Every run of b reading better than every run of a settles it even
	// when the spread is wide.
	allBetter := slices.Max(b) < slices.Min(a)
	if d.Better == higher {
		allBetter = slices.Min(b) > slices.Max(a)
	}
	switch {
	case spread > d.Bound && !allBetter:
		return "unresolved", worse, spread
	case worse > d.Bound:
		return "regressed", worse, spread
	default:
		return "unchanged", worse, spread
	}
}

// compareMain prints one row per gated metric and workload, and fails when
// any regressed.
func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: -compare baseline.json candidate.json")
	}
	a, err := readSuite(args[0])
	if err != nil {
		return err
	}
	b, err := readSuite(args[1])
	if err != nil {
		return err
	}
	gated := slices.Clone(endToEnd)
	for _, d := range perLayer {
		if d.Bound > 0 {
			gated = append(gated, d)
		}
	}
	regressed := 0
	fmt.Printf("%-12s %-18s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "baseline", "candidate", "worse", "spread", "bound", "verdict")
	for _, name := range workloadNames {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			continue
		}
		if !wb.Correct || wb.Failed > wa.Failed {
			fmt.Printf("%-12s candidate failed %d of %d operations (correct=%v)\n", name, wb.Failed, wb.Attempted, wb.Correct)
			regressed++
		}
		for _, d := range gated {
			ma, mb := wa.Metrics[d.Name], wb.Metrics[d.Name]
			if ma == nil || mb == nil || len(ma.Values) == 0 || len(mb.Values) == 0 || median(ma.Values) == 0 {
				continue // not measured on this workload
			}
			v, worse, spread := verdict(d, ma.Values, mb.Values)
			if v == "regressed" {
				regressed++
			}
			fmt.Printf("%-12s %-18s %14.6g %14.6g %+7.2f%% %7.2f%% %6.1f%%  %s\n", name, d.Name,
				median(ma.Values), median(mb.Values), 100*worse, 100*spread, 100*d.Bound, v)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d regressed", regressed)
	}
	return nil
}
