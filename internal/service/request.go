// Package service turns the partition search into a system: an HTTP/JSON
// daemon that canonicalizes partition requests into content digests, answers
// from a bounded LRU plan cache, coalesces concurrent identical searches
// singleflight-style, and flips long searches to an async job API backed by
// a bounded worker pool with backpressure. The search engine itself is
// untouched — plans served here are byte-identical to a one-shot
// tofu.PartitionWithOptions run for the same request.
package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"tofu/internal/cancel"
	"tofu/internal/core"
	"tofu/internal/dp"
	"tofu/internal/models"
	"tofu/internal/plan"
	"tofu/internal/recursive"
	"tofu/internal/topo"
)

// Request is one partition-as-a-service request: which model to partition,
// across how many workers, on what machine, under which search restrictions.
// The zero values of the optional fields mean "the defaults the CLI uses".
//
// The JSON form is the wire encoding of POST /v1/partition and of the CLIs'
// -model-json files (which carry just the "model" object). Two requests that
// normalize to the same search share one digest and therefore one cache
// entry — notably, a flat machine given three different ways (omitted, as
// the "p2.8xlarge" profile, or inline) digests identically, because flat
// machines don't influence the plan.
type Request struct {
	// Model identifies the benchmark model to partition.
	Model models.Config `json:"model"`
	// Workers is the worker count k (default: the topology's GPU count,
	// or 8 when no topology is given).
	Workers int64 `json:"workers,omitempty"`
	// HW names a built-in machine profile ("p2.8xlarge", "dgx1",
	// "cluster-2x8"). File paths are deliberately not accepted over the
	// wire; inline the machine via Topology instead.
	HW string `json:"hw,omitempty"`
	// Topology is an inline machine description (mutually exclusive with
	// HW). Hierarchical machines switch the search topology-aware.
	Topology *topo.Topology `json:"topology,omitempty"`
	// MaxStates bounds the DP frontier per step (0 = exact search).
	MaxStates int `json:"max_states,omitempty"`
	// Factors overrides the factorization of Workers (EqualChop-style).
	Factors []int64 `json:"factors,omitempty"`
	// TopologyNaive selects the blind cyclic-placement layout on
	// hierarchical machines (the hier-naive baseline).
	TopologyNaive bool `json:"topology_naive,omitempty"`
	// Pipeline switches the request to the joint hybrid-parallelism search:
	// pipeline stages across a slow interconnect level, the partition DP
	// inside each stage. Requires a hierarchical machine.
	Pipeline *PipelineRequest `json:"pipeline,omitempty"`
	// DeadlineMs bounds the search's wall-clock budget in milliseconds
	// (0 = unbounded, or the server's -search-deadline default). A search
	// that exhausts its budget returns its best incumbent marked degraded,
	// so the deadline is part of the request's content: two requests with
	// different budgets may legitimately produce different plans.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// PipelineRequest is the wire form of the hybrid-search knobs that change
// the chosen plan. Simulation-side settings (micro-batch counts) and
// effort-only settings (the exhaustive differential oracle) deliberately
// have no wire form: they never change plan bytes, so they must not change
// digests either.
type PipelineRequest struct {
	// Level is the interconnect level the stages straddle (0 = search all).
	Level int `json:"level,omitempty"`
}

// ParseRequest strictly decodes and normalizes a wire request: unknown
// fields, trailing documents, invalid model configs, unresolvable profiles
// and inconsistent worker counts are all errors here, before any search
// resources are committed.
func ParseRequest(data []byte) (Request, error) {
	var r Request
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return Request{}, fmt.Errorf("service: decoding request: %w", err)
	}
	if dec.More() {
		return Request{}, fmt.Errorf("service: trailing data after request")
	}
	return r.Normalize()
}

// Normalize resolves the request into its canonical form: the HW profile
// name is replaced by the machine it names, the worker count is filled from
// the machine (or the default 8), flat machines — which never change the
// plan — are dropped entirely, and every field is validated. Digest and
// PipelineOptions are only meaningful on a normalized request.
func (r Request) Normalize() (Request, error) {
	if err := r.Model.Validate(); err != nil {
		return Request{}, fmt.Errorf("service: %w", err)
	}
	if r.HW != "" && r.Topology != nil {
		return Request{}, fmt.Errorf("service: request sets both hw %q and an inline topology", r.HW)
	}
	if r.HW != "" {
		t, err := topo.Profile(r.HW)
		if err != nil {
			return Request{}, fmt.Errorf("service: %w", err)
		}
		r.Topology = &t
		r.HW = ""
	}
	if r.Topology != nil {
		if err := r.Topology.Validate(); err != nil {
			return Request{}, fmt.Errorf("service: %w", err)
		}
		gpus := int64(r.Topology.NumGPUs())
		if r.Workers == 0 {
			r.Workers = gpus
		} else if r.Workers != gpus {
			return Request{}, fmt.Errorf("service: workers %d disagrees with the machine's %d GPUs",
				r.Workers, gpus)
		}
		if !r.Topology.Hierarchical() {
			// A flat machine never influences the search, so it must not
			// influence the digest either.
			r.Topology = nil
		}
	}
	if r.Workers == 0 {
		r.Workers = 8
	}
	if r.Workers < 1 {
		return Request{}, fmt.Errorf("service: invalid worker count %d", r.Workers)
	}
	if r.MaxStates < 0 {
		return Request{}, fmt.Errorf("service: invalid max_states %d", r.MaxStates)
	}
	if r.Factors != nil {
		prod := int64(1)
		for _, f := range r.Factors {
			if f < 2 {
				return Request{}, fmt.Errorf("service: invalid factor %d", f)
			}
			prod *= f
		}
		if prod != r.Workers {
			return Request{}, fmt.Errorf("service: factors %v do not multiply to %d", r.Factors, r.Workers)
		}
	}
	if r.DeadlineMs < 0 {
		return Request{}, fmt.Errorf("service: invalid deadline_ms %d", r.DeadlineMs)
	}
	if r.TopologyNaive && r.Topology == nil {
		return Request{}, fmt.Errorf("service: topology_naive requires a hierarchical machine")
	}
	if r.Pipeline != nil {
		if r.Topology == nil {
			return Request{}, fmt.Errorf("service: pipeline search requires a hierarchical machine")
		}
		if r.Factors != nil || r.TopologyNaive {
			return Request{}, fmt.Errorf("service: pipeline search does not compose with explicit factors or naive ordering")
		}
		if lv := r.Pipeline.Level; lv < 0 || lv >= len(r.Topology.Levels) {
			return Request{}, fmt.Errorf("service: pipeline level %d out of range for a %d-level machine",
				lv, len(r.Topology.Levels))
		}
	}
	return r, nil
}

// digestForm is the canonical content hashed into the digest. Every field
// that can change the chosen plan is present (explicitly, including zero
// values — omitempty here would make "absent" and "default" hash alike only
// by accident); anything that cannot (search parallelism, generation and
// memory-planner options, the serving configuration) is absent by
// construction.
type digestForm struct {
	Model         json.RawMessage `json:"model"`
	Workers       int64           `json:"workers"`
	Topology      json.RawMessage `json:"topology"`
	MaxStates     int             `json:"max_states"`
	Factors       []int64         `json:"factors"`
	TopologyNaive bool            `json:"topology_naive"`
	// Pipeline and DeadlineMs are the omitempty exceptions: both post-date
	// the digest format, so they fold into the hash only when present —
	// every pre-existing request keeps its digest byte-for-byte. A deadline
	// belongs in the digest because a degraded incumbent is a different
	// answer than the proven optimum.
	Pipeline   *PipelineRequest `json:"pipeline,omitempty"`
	DeadlineMs int64            `json:"deadline_ms,omitempty"`
}

// Digest returns the stable content digest ("sha256:<64 hex>") of the
// request — the plan cache key, the /v1/plans path component, and the
// digest WriteJSON embeds in served plans.
func (r Request) Digest() (string, error) {
	nr, err := r.Normalize()
	if err != nil {
		return "", err
	}
	return nr.digestNormalized()
}

// digestNormalized hashes a request that is already in normalized form —
// the per-request hot path, where ParseRequest has normalized once and a
// second pass would be pure waste.
func (nr Request) digestNormalized() (string, error) {
	mj, err := nr.Model.CanonicalJSON()
	if err != nil {
		return "", fmt.Errorf("service: %w", err)
	}
	tj := json.RawMessage("null")
	if nr.Topology != nil {
		b, err := nr.Topology.CanonicalJSON()
		if err != nil {
			return "", fmt.Errorf("service: %w", err)
		}
		tj = b
	}
	body, err := json.Marshal(digestForm{
		Model:         mj,
		Workers:       nr.Workers,
		Topology:      tj,
		MaxStates:     nr.MaxStates,
		Factors:       nr.Factors,
		TopologyNaive: nr.TopologyNaive,
		Pipeline:      nr.Pipeline,
		DeadlineMs:    nr.DeadlineMs,
	})
	if err != nil {
		return "", fmt.Errorf("service: %w", err)
	}
	sum := sha256.Sum256(body)
	return plan.DigestPrefix + hex.EncodeToString(sum[:]), nil
}

// PipelineOptions maps a normalized request onto the pipeline knobs a
// one-shot tofu.PartitionWithOptions caller would set — the contract behind
// the byte-identity guarantee. Parallelism is left for the server (or CLI)
// to fill: it never changes the plan.
func (r Request) PipelineOptions() core.Options {
	opts := core.DefaultOptions()
	opts.Search.MaxStates = r.MaxStates
	opts.Search.Factors = r.Factors
	opts.Search.TopologyNaive = r.TopologyNaive
	opts.Topology = r.Topology
	if r.Pipeline != nil {
		opts.Pipeline = &core.PipelineSpec{Level: r.Pipeline.Level}
	}
	return opts
}

// ComputePlan runs the full search for a request and serializes the plan
// with the request digest embedded — the service's cache fill, and the
// reference output cached plans must stay byte-identical to.
func ComputePlan(r Request, parallelism int) ([]byte, error) {
	nr, err := r.Normalize()
	if err != nil {
		return nil, err
	}
	digest, err := nr.Digest()
	if err != nil {
		return nil, err
	}
	return compute(nr, digest, parallelism, nil, nil, nil)
}

// compute is ComputePlan for a request the caller has already normalized
// and digested — the worker-pool hot path. pricing, when non-nil, supplies
// the model's shared pricing cache; chosen plans are byte-identical with or
// without it (caches change search effort, never content). stats, when
// non-nil, receives the ordering-search effort. tok, when non-nil, bounds
// the search — a tripped token yields a degraded incumbent (or a
// cancellation error).
func compute(nr Request, digest string, parallelism int,
	pricing *dp.PriceCache, stats *recursive.SearchStats, tok *cancel.Token) ([]byte, error) {

	m, err := models.Build(nr.Model)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	opts := nr.PipelineOptions()
	opts.Search.Parallelism = parallelism
	opts.Search.Cache = pricing
	opts.Search.Stats = stats
	opts.Cancel = tok
	sum, err := core.Partition(m.G, nr.Workers, opts)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	sum.Plan.Digest = digest
	var buf bytes.Buffer
	if err := sum.Plan.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	return buf.Bytes(), nil
}
