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
	"math"
	"strconv"
	"time"

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

// maxDeadlineMs is the largest deadline_ms a time.Duration can hold. A
// larger one would wrap negative in DeadlineFor and read as unbounded.
const maxDeadlineMs = math.MaxInt64 / int64(time.Millisecond)

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
	if len(r.Factors) == 0 {
		// "factors":[] asks for no split, which is what omitting them means
		// on one worker (the only count they multiply to): one digest.
		r.Factors = nil
	}
	if r.Factors != nil {
		for _, f := range r.Factors {
			if f < 2 {
				return Request{}, fmt.Errorf("service: invalid factor %d", f)
			}
		}
		if !recursive.FactorsMultiplyTo(r.Factors, r.Workers) {
			return Request{}, fmt.Errorf("service: factors %v do not multiply to %d", r.Factors, r.Workers)
		}
	}
	if r.DeadlineMs < 0 || r.DeadlineMs > maxDeadlineMs {
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
// second pass would be pure waste. The form is appended into a stack buffer
// that holds every built-in profile's request; a larger inline machine
// spills to the heap.
//
//tofu:hotpath
func (nr Request) digestNormalized() (string, error) {
	var buf [768]byte
	body, err := nr.appendDigestForm(buf[:0])
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(body)
	var out [len(plan.DigestPrefix) + 2*sha256.Size]byte
	n := copy(out[:], plan.DigestPrefix)
	hex.Encode(out[n:], sum[:])
	return string(out[:]), nil
}

// appendDigestForm appends the canonical content the digest hashes: one
// compact JSON object whose keys, in order, are model, workers, topology
// (null on a flat machine), max_states, factors (null when unset),
// topology_naive, and — only when set, so requests that predate them keep
// their digests — pipeline and deadline_ms. Every field that can change the
// chosen plan is present; nothing that cannot (search parallelism, the
// serving configuration) is. The bytes are exactly what encoding/json writes
// for that object (the test oracle, digest_test.go): the model and machine
// come from json.Marshal and are already compact, the rest are integers and
// booleans.
//
//tofu:hotpath
func (nr Request) appendDigestForm(b []byte) ([]byte, error) {
	mj, err := nr.Model.CanonicalJSON()
	if err != nil {
		return nil, fmt.Errorf("service: %w", err) //tofu:allow-hotalloc cold error path; a normalized request has a valid model
	}
	b = append(b, `{"model":`...)
	b = append(b, mj...)
	b = append(b, `,"workers":`...)
	b = strconv.AppendInt(b, nr.Workers, 10)
	b = append(b, `,"topology":`...)
	if nr.Topology == nil {
		b = append(b, "null"...)
	} else {
		tj, err := nr.Topology.CanonicalJSON()
		if err != nil {
			return nil, fmt.Errorf("service: %w", err) //tofu:allow-hotalloc cold error path; a normalized request has a valid machine
		}
		b = append(b, tj...)
	}
	b = append(b, `,"max_states":`...)
	b = strconv.AppendInt(b, int64(nr.MaxStates), 10)
	b = append(b, `,"factors":`...)
	if nr.Factors == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, f := range nr.Factors {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, f, 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"topology_naive":`...)
	b = strconv.AppendBool(b, nr.TopologyNaive)
	if nr.Pipeline != nil {
		b = append(b, `,"pipeline":{`...)
		if nr.Pipeline.Level != 0 {
			b = append(b, `"level":`...)
			b = strconv.AppendInt(b, int64(nr.Pipeline.Level), 10)
		}
		b = append(b, '}')
	}
	if nr.DeadlineMs != 0 {
		b = append(b, `,"deadline_ms":`...)
		b = strconv.AppendInt(b, nr.DeadlineMs, 10)
	}
	return append(b, '}'), nil
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
