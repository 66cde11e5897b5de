package service

import (
	"encoding/json"
	"testing"

	"tofu/internal/topo"
)

// digestForm is the oracle for appendDigestForm: the canonical content the
// digest hashed when it was built with encoding/json. Every field that can
// change the chosen plan is present (explicitly, zero values included);
// Pipeline and DeadlineMs post-date the format and are omitempty, so older
// requests keep their digests.
type digestForm struct {
	Model         json.RawMessage  `json:"model"`
	Workers       int64            `json:"workers"`
	Topology      json.RawMessage  `json:"topology"`
	MaxStates     int              `json:"max_states"`
	Factors       []int64          `json:"factors"`
	TopologyNaive bool             `json:"topology_naive"`
	Pipeline      *PipelineRequest `json:"pipeline,omitempty"`
	DeadlineMs    int64            `json:"deadline_ms,omitempty"`
}

// marshalDigestForm is the encoding/json reference for the bytes a
// normalized request hashes.
func marshalDigestForm(nr Request) ([]byte, error) {
	mj, err := nr.Model.CanonicalJSON()
	if err != nil {
		return nil, err
	}
	tj := json.RawMessage("null")
	if nr.Topology != nil {
		if tj, err = nr.Topology.CanonicalJSON(); err != nil {
			return nil, err
		}
	}
	return json.Marshal(digestForm{
		Model:         mj,
		Workers:       nr.Workers,
		Topology:      tj,
		MaxStates:     nr.MaxStates,
		Factors:       nr.Factors,
		TopologyNaive: nr.TopologyNaive,
		Pipeline:      nr.Pipeline,
		DeadlineMs:    nr.DeadlineMs,
	})
}

// DigestForms returns the bytes a normalized request's digest hashes, as
// appended by the service and as encoded by the encoding/json oracle.
func DigestForms(nr Request) (got, want []byte, err error) {
	if got, err = nr.appendDigestForm(nil); err != nil {
		return nil, nil, err
	}
	want, err = marshalDigestForm(nr)
	return got, want, err
}

// inlineTopology is the wire form of a machine with its labels renamed.
func inlineTopology(t *testing.T, m topo.Topology) string {
	t.Helper()
	m.Name = "inline-" + m.Name
	m.Levels = append([]topo.Level(nil), m.Levels...)
	for i := range m.Levels {
		m.Levels[i].Name = "tier" + string(rune('a'+i))
	}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestDigestPinned pins request digests as literal values, over every field
// of the digest form. The values were computed by the encoding/json digest
// before the form was appended by hand; regenerating them from the current
// code would defeat the test. A flat machine given three ways shares one
// digest, and so do empty and omitted factors.
func TestDigestPinned(t *testing.T) {
	const model = `"model":{"family":"rnn","depth":2,"width":1024,"batch":64}`
	rack := topo.Topology{Name: "rack", HW: topo.DefaultHW(), Levels: []topo.Level{
		{Name: "pcie", GroupSize: 2, Bandwidth: 21e9},
		{Name: "eth", GroupSize: 2, Bandwidth: 3.125e9, Network: true},
	}}
	rack.HW.NumGPUs = 4
	cases := []struct {
		name, body, want string
	}{
		{"bare", `{` + model + `}`, "sha256:768315202e16069bd0b606a2ac9843a7a60cc0d7bc4bce1f050e1264bcfd5454"},
		{"flat-omitted-workers-8", `{` + model + `,"workers":8}`, "sha256:768315202e16069bd0b606a2ac9843a7a60cc0d7bc4bce1f050e1264bcfd5454"},
		{"flat-profile", `{` + model + `,"hw":"p2.8xlarge"}`, "sha256:768315202e16069bd0b606a2ac9843a7a60cc0d7bc4bce1f050e1264bcfd5454"},
		{"flat-inline", `{` + model + `,"topology":` + inlineTopology(t, topo.DefaultTopology()) + `}`, "sha256:768315202e16069bd0b606a2ac9843a7a60cc0d7bc4bce1f050e1264bcfd5454"},
		{"workers", `{` + model + `,"workers":4}`, "sha256:03c3b5cf8d0432cdf622be769c7d04db3c800a1a2f9a5f1995540ce96d4fbeef"},
		{"max-states", `{` + model + `,"max_states":100}`, "sha256:2d1824afe9a55965bc439319dc87f0b30ef70c210e00d54db67db04fea7427de"},
		{"factors", `{` + model + `,"factors":[2,4]}`, "sha256:97af488baa51391252ebb0d31009bed945140556b1548d1ee5b545f18a007965"},
		{"factors-one", `{` + model + `,"factors":[8]}`, "sha256:22c517bba2a2b6c125b36b2f0262dbe61d46054f06ecb9f8654da38558a145c3"},
		{"one-worker", `{` + model + `,"workers":1}`, "sha256:54c33cce13145a0e43019217acf15f96164efae733258dea790f9da4eb2ea51b"},
		// Empty factors normalize to none. The encoding/json digest hashed
		// them as "factors":[] and lost them on a wire round trip.
		{"factors-empty", `{` + model + `,"workers":1,"factors":[]}`, "sha256:54c33cce13145a0e43019217acf15f96164efae733258dea790f9da4eb2ea51b"},
		{"inline-hier", `{` + model + `,"topology":` + inlineTopology(t, rack) + `}`, "sha256:54656231236c4fcdfe9940797271ef11558ccd22773ccab1071ec02faffe0070"},
		{"topology-naive", `{` + model + `,"hw":"cluster-2x8","topology_naive":true}`, "sha256:a8cf5d5e3bd50465031211e75bc9efdd2ce98fc63691a556f4e66ad8925a70d6"},
		{"pipeline-auto", `{` + model + `,"hw":"cluster-4x2x8","pipeline":{}}`, "sha256:af806f4e0836da5ed0c478a6a7377a67a6f06866fbb0990cdeb6053c929f2e93"},
		{"pipeline-level", `{` + model + `,"hw":"cluster-4x2x8","pipeline":{"level":1}}`, "sha256:1a9d4fcffae7fa87f456c954cb39f47b0fb97d09357918b6a4914a5d98d02e90"},
		{"deadline", `{` + model + `,"deadline_ms":250}`, "sha256:59cb2a07fa48314ea340c61e207b73ab8c6e29bef9fa82974eb48c7095264a0f"},
		{"everything", `{` + model + `,"hw":"dgx1","max_states":64,"pipeline":{"level":1},"deadline_ms":9000}`, "sha256:524c19a318e446e264fb63847d6a6878cf03030788bb63cd72daae0ce38d37ac"},
	}
	profiles := map[string]string{
		"cluster-2x4x2x12": "sha256:b28177b6bc54ab79719a02fd5ca39232b3d62e56668b7d779f7fc50a8503788d",
		"cluster-2x8":      "sha256:8ad2a9b75a5f52cf33c684bdf9598100c2a054cb66b201b4931b2c37ecab6396",
		"cluster-2x8x2x8":  "sha256:d7e99e81cbd3daf137164b9e006b751f391a4ff43d2f49fd279ae74a1e49c1c9",
		"cluster-4x2x12":   "sha256:951913f2279a861bda26b64f8d99489188378dfb59eb93263a969d465709e053",
		"cluster-4x2x8":    "sha256:9869654584208994cfc1034c837f4446cab01252bbeba44b202796eb694ba3f4",
		"cluster-8x2x8":    "sha256:9591fb812dbeb1ceb313f8d74e13805cb3625cb371091392288195453ffafbb7",
		"dgx1":             "sha256:3a10bfae9a8b8f650a6dee2a2dce2d8c6a5ed0166e9a666989924e495e0a7b76",
		"dgx2":             "sha256:217f6c6fe2d14dae8eef4e66f6dd42cb15decc7afa8a3f258e367ea632cd7bc9",
		"p2.8xlarge":       "sha256:768315202e16069bd0b606a2ac9843a7a60cc0d7bc4bce1f050e1264bcfd5454",
	}
	for _, name := range topo.ProfileNames() {
		want, ok := profiles[name]
		if !ok {
			t.Errorf("profile %s has no pinned digest", name)
		}
		cases = append(cases, struct{ name, body, want string }{
			"profile-" + name, `{` + model + `,"hw":"` + name + `"}`, want})
	}
	for _, c := range cases {
		r, err := ParseRequest([]byte(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		d, err := r.digestNormalized()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if d != c.want {
			t.Errorf("%s: digest %s, pinned %s", c.name, d, c.want)
		}
	}
}

// BenchmarkDigest times the per-request digest of a served request: an rnn
// on the three-level cluster-4x2x8 profile.
func BenchmarkDigest(b *testing.B) {
	r, err := ParseRequest([]byte(`{"model":{"family":"rnn","depth":2,"width":1024,"batch":64},"hw":"cluster-4x2x8"}`))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := r.digestNormalized(); err != nil {
			b.Fatal(err)
		}
	}
}
