// Package store is the persistent, content-addressed plan store behind the
// serving layer's in-memory LRU: one file per request digest, written
// atomically, checksummed on every read, quarantined (never trusted, never
// fatal) on corruption. Replicas sharing a store directory — and restarts of
// a single daemon — serve each other's plans as warm bytes. Nothing scans the
// directory: an entry is read only when a request for its digest misses the
// LRU.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"tofu/internal/plan"
)

// FormatV1 names the on-disk entry format this package reads and writes.
const FormatV1 = "tofu-plan-store-v1"

// Step is one realized factor-to-level placement of the stored plan
// (provenance; kept so FormatV1 entries stay byte-identical).
type Step struct {
	Factor int64 `json:"factor"`
	Level  int   `json:"level"`
}

// Meta is the entry header: the plan's identity and provenance, plus the
// checksum fields that let a reader reject torn or tampered entries without
// parsing the plan payload. ReadEntry rejects unknown fields, so no field may
// be dropped without a new format tag.
type Meta struct {
	// Format must be FormatV1.
	Format string `json:"format"`
	// Digest is the request content digest the plan answers ("sha256:<64
	// hex>") — the store key. The payload's own embedded digest is verified
	// against it again at serve time via plan.Verify.
	Digest string `json:"digest"`
	// ModelDigest is the model's pricing-cache key in hex form (provenance;
	// kept so FormatV1 entries stay byte-identical).
	ModelDigest string `json:"model_digest,omitempty"`
	// Workers is the plan's worker count.
	Workers int64 `json:"workers"`
	// Steps is the plan's realized ordering, innermost first (provenance;
	// kept so FormatV1 entries stay byte-identical). Empty for plans with no
	// steps.
	Steps []Step `json:"steps,omitempty"`
	// PlanSHA256 is the hex sha256 of the payload bytes; PlanBytes their
	// exact length. Both must match or the entry is corrupt.
	PlanSHA256 string `json:"plan_sha256"`
	PlanBytes  int64  `json:"plan_bytes"`
}

// AppendEntry serializes an entry — a single JSON header line, then the plan
// payload verbatim — onto dst. The payload is stored byte-for-byte, so a
// store hit serves exactly what the search serialized. The checksum fields
// of meta are filled here; callers supply the identity fields.
func AppendEntry(dst []byte, meta Meta, planBytes []byte) ([]byte, error) {
	if err := plan.ValidateDigest(meta.Digest); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if meta.Workers < 1 {
		return nil, fmt.Errorf("store: invalid worker count %d", meta.Workers)
	}
	for i, st := range meta.Steps {
		if st.Factor < 2 || st.Level < 0 {
			return nil, fmt.Errorf("store: invalid step %d (%dx at level %d)", i, st.Factor, st.Level)
		}
	}
	if len(planBytes) == 0 {
		return nil, fmt.Errorf("store: empty plan payload")
	}
	meta.Format = FormatV1
	sum := sha256.Sum256(planBytes)
	meta.PlanSHA256 = hex.EncodeToString(sum[:])
	meta.PlanBytes = int64(len(planBytes))
	hdr, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("store: encoding header: %w", err)
	}
	dst = append(dst, hdr...)
	dst = append(dst, '\n')
	dst = append(dst, planBytes...)
	return dst, nil
}

// ReadEntry parses and verifies a serialized entry, returning the header and
// the plan payload (aliasing data). Every defect — missing header line,
// unknown format, malformed digest, length or checksum mismatch, trailing
// bytes — is an error; callers treat any error as corruption and quarantine
// the file rather than crash or serve it.
func ReadEntry(data []byte) (Meta, []byte, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return Meta{}, nil, fmt.Errorf("store: entry has no header line")
	}
	var meta Meta
	dec := json.NewDecoder(bytes.NewReader(data[:nl]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&meta); err != nil {
		return Meta{}, nil, fmt.Errorf("store: decoding header: %w", err)
	}
	if dec.More() {
		return Meta{}, nil, fmt.Errorf("store: trailing data in header line")
	}
	if meta.Format != FormatV1 {
		return Meta{}, nil, fmt.Errorf("store: unknown format %q (want %q)", meta.Format, FormatV1)
	}
	if err := plan.ValidateDigest(meta.Digest); err != nil {
		return Meta{}, nil, fmt.Errorf("store: %w", err)
	}
	if meta.Workers < 1 {
		return Meta{}, nil, fmt.Errorf("store: invalid worker count %d", meta.Workers)
	}
	for i, st := range meta.Steps {
		if st.Factor < 2 || st.Level < 0 {
			return Meta{}, nil, fmt.Errorf("store: invalid step %d (%dx at level %d)", i, st.Factor, st.Level)
		}
	}
	payload := data[nl+1:]
	if int64(len(payload)) != meta.PlanBytes {
		return Meta{}, nil, fmt.Errorf("store: payload is %d bytes, header says %d", len(payload), meta.PlanBytes)
	}
	if meta.PlanBytes == 0 {
		return Meta{}, nil, fmt.Errorf("store: empty plan payload")
	}
	sum := sha256.Sum256(payload)
	if got := hex.EncodeToString(sum[:]); got != meta.PlanSHA256 {
		return Meta{}, nil, fmt.Errorf("store: payload checksum %s, header says %s", got, meta.PlanSHA256)
	}
	return meta, payload, nil
}
