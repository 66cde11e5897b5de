package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math/rand"

	"tofu/internal/models"
	"tofu/internal/service"
)

//go:embed workloads/*.json
var workloadFS embed.FS

// workloadNames is the fixed order the suite runs and reports in.
var workloadNames = []string{"cold-flat", "cold-topo", "cold-hybrid", "serve-hot", "serve-churn"}

// modelGrid is a cross product of model sizes within one family.
type modelGrid struct {
	Family  string  `json:"family"`
	Depths  []int   `json:"depths"`
	Widths  []int64 `json:"widths"`
	Batches []int64 `json:"batches"`
}

// workload is one file of bench/workloads. Cold workloads list their cases
// as wire requests; serve workloads cross a model grid with machine
// profiles ("" is the default flat machine).
type workload struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "cold" | "serve"
	Why  string `json:"why"`

	Cases []json.RawMessage `json:"cases"`

	ServerArgs   []string    `json:"server_args"`
	Store        bool        `json:"store"`
	Clients      int         `json:"clients"`
	NovelEvery   int         `json:"novel_every"`
	NovelBatches []int64     `json:"novel_batches"`
	Machines     []string    `json:"machines"`
	Models       []modelGrid `json:"models"`
}

func loadWorkload(name string) (*workload, error) {
	data, err := workloadFS.ReadFile("workloads/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	var w workload
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("workloads/%s.json: %w", name, err)
	}
	return &w, nil
}

// request is one input of a workload: the wire body a client would send and
// everything the harness derives from it to check the answer.
type request struct {
	name   string // "rnn-10-8192@128", plus the machine and "+pipeline" when set
	body   []byte
	req    service.Request // normalized
	digest string
}

func newRequest(body []byte) (request, error) {
	var wire service.Request
	if err := json.Unmarshal(body, &wire); err != nil {
		return request{}, err
	}
	nr, err := service.ParseRequest(body)
	if err != nil {
		return request{}, err
	}
	digest, err := nr.Digest()
	if err != nil {
		return request{}, err
	}
	name := wire.Model.String()
	if wire.HW != "" {
		name += " on " + wire.HW
	}
	if wire.Pipeline != nil {
		name += " +pipeline"
	}
	return request{name: name, body: body, req: nr, digest: digest}, nil
}

// coldCases parses a cold workload's cases in file order; quick keeps the
// first, which each file makes a cheap one.
func (w *workload) coldCases(quick bool) ([]request, error) {
	cases := w.Cases
	if quick {
		cases = cases[:1]
	}
	out := make([]request, 0, len(cases))
	for _, c := range cases {
		r, err := newRequest(c)
		if err != nil {
			return nil, fmt.Errorf("%s: case %s: %w", w.Name, c, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// grid expands models x machines in file order. batches, when non-nil,
// replaces every grid's batch list (the never-seen pool of serve-churn).
// quick keeps every seventh request, which walks across the machines.
func (w *workload) grid(batches []int64, quick bool) ([]request, error) {
	var out []request
	n := 0
	for _, mg := range w.Models {
		bs := mg.Batches
		if batches != nil {
			bs = batches
		}
		for _, d := range mg.Depths {
			for _, wd := range mg.Widths {
				for _, b := range bs {
					for _, hw := range w.Machines {
						n++
						if quick && n%7 != 0 {
							continue
						}
						body, err := json.Marshal(service.Request{
							Model: models.Config{Family: mg.Family, Depth: d, Width: wd, Batch: b},
							HW:    hw,
						})
						if err != nil {
							return nil, err
						}
						r, err := newRequest(body)
						if err != nil {
							return nil, fmt.Errorf("%s: %s: %w", w.Name, body, err)
						}
						out = append(out, r)
					}
				}
			}
		}
	}
	return out, nil
}

// shuffled returns a seeded permutation of reqs; the input is untouched.
func shuffled(reqs []request, rng *rand.Rand) []request {
	out := append([]request(nil), reqs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
