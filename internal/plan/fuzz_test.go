package plan_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"tofu/internal/plan"
)

// FuzzReadPlanJSON drives the strict plan reader with arbitrary bytes. The
// invariants under test: ReadJSON and Verify give the same verdict, the same
// error, and on acceptance a Header equal to the one ReadJSON's Export
// implies; anything they accept the encoding/json reference reader accepts
// too, with an equal Export (the reference is laxer, never different); and
// an accepted Export re-marshals, is accepted again, and re-marshals to
// identical bytes — the byte-stability the digest-keyed plan cache depends
// on. Seed corpus under testdata/fuzz: real tofu-plan exports (flat,
// hierarchical, pipelined, degraded), and near-misses of WriteJSON's entry
// bytes (a leading-zero, negative-zero or negative output dim, a capitalized
// kind, an escaped or non-ASCII axis, CRLF or tab indentation, axis before
// kind, a leading-zero, repeated, empty or 19- and 20-digit ID, a ninth
// space of indentation), where the entry fast path hands over to the token
// scanner.
func FuzzReadPlanJSON(f *testing.F) {
	f.Add([]byte(`{"workers":2,"steps":[],"total_comm_bytes":0}`))
	f.Add([]byte(`{"workers":0}`))                                                                                                          // invalid worker count
	f.Add([]byte(`{"workers":2,"steps":[{"ways":1,"multiplier":1,"comm_bytes":0,"tensor_cut":{},"op_strategy":{}}],"total_comm_bytes":0}`)) // invalid ways
	f.Add([]byte(`{"digest":"sha256:zz","workers":2,"steps":[],"total_comm_bytes":0}`))                                                     // malformed digest
	f.Add([]byte(`{"workers":2,"unknown":1}`))                                                                                              // unknown field
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"workers":2,"steps":[{"ways":2,"multiplier":1,"comm_bytes":1e-7,"tensor_cut":{"1":0,"10":1,"2":0},"op_strategy":{"0":{"kind":"reduce","axis":"a\u00e9","dim":-1}}}],"total_comm_bytes":1e-7}`))
	f.Add([]byte(`{"workers":2,"workers":2,"steps":[{"ways":2,"multiplier":1,"comm_bytes":0,"tensor_cut":null,"op_strategy":{"01":{"kind":"output","axis":"i"}}}],"total_comm_bytes":0}x`)) // duplicate key, aliasing ID, trailing byte
	f.Fuzz(func(t *testing.T, data []byte) {
		ex, err := plan.ReadJSON(bytes.NewReader(data))
		hdr, verr := plan.Verify(data, "")
		if (err == nil) != (verr == nil) || (err != nil && err.Error() != verr.Error()) {
			t.Fatalf("ReadJSON error %v, Verify error %v", err, verr)
		}
		if err != nil {
			return
		}
		if want := headerOf(ex); !reflect.DeepEqual(hdr, want) {
			t.Fatalf("Verify header %+v, ReadJSON's export implies %+v", hdr, want)
		}
		checkReader(t, "fuzz input", data)
		out, err := json.Marshal(ex)
		if err != nil {
			t.Fatalf("accepted export does not re-marshal: %v", err)
		}
		ex2, err := plan.ReadJSON(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("re-marshaled export rejected: %v\n%s", err, out)
		}
		out2, err := json.Marshal(ex2)
		if err != nil {
			t.Fatalf("second marshal: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("plan round-trip is not byte-stable:\n%s\n%s", out, out2)
		}
	})
}

// TestEntryNearMissVerdicts pins the verdict on each near-miss seed, so the
// corpus keeps testing what its file names say: the fuzz invariants above
// hold as well for a reader that wrongly accepts them all.
func TestEntryNearMissVerdicts(t *testing.T) {
	rejected := map[string]bool{
		"entries-dim-leading-zero": true, "entries-output-dim-negative": true, "entries-kind-capitalized": true,
		"entries-id-leading-zero": true, "entries-strategy-id-leading-zero": true, "entries-id-repeated": true,
		"entries-id-empty": true, "entries-id-19-digits-over-max": true, "entries-id-20-digits": true,
	}
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzReadPlanJSON", "entries-*"))
	if err != nil || len(files) < len(rejected) {
		t.Fatalf("near-miss seeds: %v, %v", files, err)
	}
	for _, path := range files {
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(file)), "go test fuzz v1\n[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !ok || err != nil {
			t.Fatalf("%s: not a one-value corpus file (%v)", path, err)
		}
		name := filepath.Base(path)
		_, err = plan.Verify([]byte(data), "")
		if (err != nil) != rejected[name] {
			t.Errorf("%s: Verify error %v, want rejected=%v", name, err, rejected[name])
		}
	}
}
