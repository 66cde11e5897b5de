package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// manifest mirrors BENCHMARK.json; decoding is strict, so an extra or
// missing key anywhere fails.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest holds BENCHMARK.json to the benchmark contract's limits and
// to the tables this package reports from.
func TestManifest(t *testing.T) {
	f, err := os.Open("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Paths, []string{"bench"}) || len(m.Command) == 0 || len(m.Command) > 32 {
		t.Errorf("paths %v, command %v", m.Paths, m.Command)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of range", m.RunSeconds)
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range m.Workloads {
		name(w.Name)
		file, err := loadWorkload(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		if w.Name != workloadNames[i] || w.Why != file.Why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q / %q disagrees with workloads/%s.json", i, w.Name, w.Why, workloadNames[i])
		}
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end disagrees with metrics.go:\n%v\n%v", m.EndToEnd, endToEnd)
	}
	setup := false
	for _, d := range m.EndToEnd {
		name(d.Name)
		setup = setup || d == metricDef{"setup_s", "s", lower, d.Bound}
		if !unitRE.MatchString(d.Unit) || d.Bound < 0 || d.Bound > 0.25 || (d.Better != lower && d.Better != higher) {
			t.Errorf("end-to-end row %+v out of limits", d)
		}
	}
	if !setup {
		t.Error("no setup_s row in seconds, lower is better")
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer has %d rows, metrics.go %d", len(m.PerLayer), len(perLayer))
	}
	for i, d := range m.PerLayer {
		name(d.Name)
		want := perLayer[i]
		if d.Name != want.Name || d.Unit != want.Unit || d.Better != want.Better || !unitRE.MatchString(d.Unit) {
			t.Errorf("per-layer row %d: %+v disagrees with metrics.go %+v", i, d, want)
		}
	}
}

// TestQuick runs the benchmark's smoke mode twice, both trace modes, and
// requires complete reports, passing checks, and identical deterministic
// rows: plan quality everywhere, effort counts and plan bytes on the cold
// workloads. -short keeps to the cold workloads (no tofu-serve build).
func TestQuick(t *testing.T) {
	names := workloadNames
	if testing.Short() {
		names = names[:3]
	}
	for _, w := range names {
		for _, trace := range []bool{false, true} {
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			var first result
			for run := 0; run < 2; run++ {
				res, err := runWorkload(config{workload: w, seed: int64(run + 1), trace: trace, quick: true, root: ".."})
				if err != nil {
					t.Fatalf("%s trace=%v: %v", w, trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s trace=%v: correct=%v, %d of %d failed", w, trace, res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%s trace=%v: %d metrics reported, want %d", w, trace, len(res.Metrics), len(defs))
				}
				if run == 0 {
					first = res
					continue
				}
				cold := w[:4] == "cold"
				for _, d := range defs {
					exact := d.Bound == 0 && !trace || cold && (d.Unit == "count" || d.Unit == "B")
					if a, b := first.Metrics[d.Name], res.Metrics[d.Name]; exact && a != b {
						t.Errorf("%s: %s is %v on one run and %v on the next", w, d.Name, a.Value, b.Value)
					}
					if !trace && res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end %s reads %v", w, d.Name, res.Metrics[d.Name].Value)
					}
				}
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{"plan_norm_ms", "norm-ms", lower, 0.05}
	for _, c := range []struct {
		a, b []float64
		want string
	}{
		{[]float64{100, 101, 99}, []float64{102, 101, 103}, "unchanged"},
		{[]float64{100, 101, 99}, []float64{110, 111, 109}, "regressed"},
		{[]float64{100, 120, 80}, []float64{110, 130, 90}, "unresolved"},
		{[]float64{100, 120, 110}, []float64{70, 79, 60}, "unchanged"}, // every run better settles a wide spread
		{[]float64{100}, []float64{104}, "unchanged"},
	} {
		if got, _, _ := verdict(d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python's statistics.quantiles gives 2.75, 8.25", q1, q3)
	}
}
