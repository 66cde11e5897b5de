package service

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"tofu/internal/models"
	"tofu/internal/plan"
	"tofu/internal/store"
)

// TestSearchResultVerifiedOnce drives run's single verification through the
// Compute seam: the one plan.Verify on the seam's bytes decides whether a
// result is degraded, and its header is what persist writes into the store
// entry. Three searches — a plan, a degraded plan, bytes that are no plan —
// each compute exactly once.
func TestSearchResultVerifiedOnce(t *testing.T) {
	planFor := func(digest string, degraded bool) []byte {
		raw, err := json.Marshal(plan.Export{
			Digest: digest, Workers: 8, Degraded: degraded,
			Steps: []plan.StepExport{
				{Ways: 4, Multiplier: 1, CommBytes: 3, Level: 1},
				{Ways: 2, Multiplier: 4, CommBytes: 5},
			},
			TotalCommBytes: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	good, degraded, junk := testDigest(31), testDigest(32), testDigest(33)
	answers := map[int][]byte{ // by model depth
		1: planFor(good, false),
		2: planFor(degraded, true),
		3: []byte(`{"workers": 8, "steps": "not a plan"}`),
	}
	model := func(depth int) models.Config {
		return models.Config{Family: "mlp", Depth: depth, Width: 256, Batch: 64}
	}

	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	computes := map[int]int{}
	s := New(Config{Workers: 1, QueueDepth: 4, Store: st,
		Compute: func(r Request) ([]byte, error) {
			computes[r.Model.Depth]++
			return answers[r.Model.Depth], nil
		}})
	search := func(depth int, digest string) *Job {
		t.Helper()
		j, kind, err := s.Submit(Request{Model: model(depth)}, digest)
		if err != nil || kind != SubmitNew {
			t.Fatalf("depth %d: submit kind %v, err %v", depth, kind, err)
		}
		val, jerr, timedOut := s.Wait(context.Background(), j, 5*time.Second)
		if jerr != nil || timedOut || string(val) != string(answers[depth]) {
			t.Fatalf("depth %d: served %q (err %v, timedOut %v)", depth, val, jerr, timedOut)
		}
		return j
	}

	// A plan: cached, and stored under its model digest and the header's
	// workers and ordering.
	if j := search(1, good); j.Degraded() {
		t.Fatal("complete plan marked degraded")
	}
	md, err := modelDigest(model(1))
	if err != nil {
		t.Fatal(err)
	}
	meta, val, err := st.Get(good)
	if err != nil || string(val) != string(answers[1]) {
		t.Fatalf("store entry: %v, payload %q", err, val)
	}
	if wantSteps := []store.Step{{Factor: 4, Level: 1}, {Factor: 2, Level: 0}}; meta.Workers != 8 ||
		meta.ModelDigest != md || !reflect.DeepEqual(meta.Steps, wantSteps) {
		t.Fatalf("store header %+v, want workers 8, model %s, steps %v", meta, md, wantSteps)
	}
	if _, ok := s.Lookup(good); !ok {
		t.Fatal("complete plan missing from the cache")
	}

	// A degraded plan: served with its marker, neither cached nor stored.
	if j := search(2, degraded); !j.Degraded() {
		t.Fatal("degraded plan lost its marker")
	}
	if _, ok := s.Lookup(degraded); ok {
		t.Fatal("degraded plan entered the cache or the store")
	}

	// Bytes that are no plan: served to the caller, never persisted.
	if j := search(3, junk); j.Degraded() {
		t.Fatal("non-plan bytes marked degraded")
	}
	if _, _, err := st.Get(junk); err == nil {
		t.Fatal("non-plan bytes were written to the store")
	}
	if puts := st.Stats().Puts; puts != 1 {
		t.Fatalf("store puts = %d, want 1 (only the complete plan)", puts)
	}
	for depth := 1; depth <= 3; depth++ {
		if computes[depth] != 1 {
			t.Fatalf("depth %d computed %d times, want 1", depth, computes[depth])
		}
	}
	if snap := s.Metrics(); snap.SearchDegraded != 1 || snap.JobsDone != 3 {
		t.Fatalf("metrics %+v, want SearchDegraded=1 JobsDone=3", snap)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A restarted replica verifies the stored bytes against the digest it was
	// asked for: the entry serves under its own digest, and the same payload
	// filed under another digest is refused as a bad plan.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	other := testDigest(34)
	if err := st2.Put(store.Meta{Digest: other, ModelDigest: md, Workers: 8}, answers[1]); err != nil {
		t.Fatal(err)
	}
	b := New(Config{Workers: 1, Store: st2, Compute: func(Request) ([]byte, error) { return nil, nil }})
	defer b.Shutdown(context.Background())
	if val, ok := b.Lookup(good); !ok || string(val) != string(answers[1]) {
		t.Fatalf("restarted replica: Lookup = %q, %v", val, ok)
	}
	if _, ok := b.Lookup(other); ok {
		t.Fatal("a plan answering another digest was served")
	}
	if snap := b.Metrics(); snap.StoreServed != 1 || snap.StoreBadPlan != 1 {
		t.Fatalf("metrics %+v, want StoreServed=1 StoreBadPlan=1", snap)
	}
}

// storeEntryV1 is a FormatV1 entry exactly as the service wrote it before
// the store headers' model_digest and steps lost their last reader: a
// two-step plan of mlp-1-256@64 on 8 workers, answering digest 35.
const storeEntryV1 = `{"format":"tofu-plan-store-v1","digest":"sha256:0000000000000000000000000000000000000000000000000000000000000023","model_digest":"df0b2ba914ee760b799dc9bbb9e31c549e7386c8d46f6c162fbc3170ddd0fd28","workers":8,"steps":[{"factor":4,"level":1},{"factor":2,"level":0}],"plan_sha256":"a371dcefc86a4874a29da08bfe289b3818923f192230608cb257e03271b21fd3","plan_bytes":293}
{"digest":"sha256:0000000000000000000000000000000000000000000000000000000000000023","workers":8,"steps":[{"ways":4,"multiplier":1,"comm_bytes":3,"level":1,"tensor_cut":null,"op_strategy":null},{"ways":2,"multiplier":4,"comm_bytes":5,"tensor_cut":null,"op_strategy":null}],"total_comm_bytes":8}`

// TestStoreFormatV1Compat: the store format did not move. An entry written
// by an older replica serves without a quarantine, and persist writes the
// same request's entry byte for byte as that replica did.
func TestStoreFormatV1Compat(t *testing.T) {
	digest := testDigest(35)
	entry := strings.TrimPrefix(digest, plan.DigestPrefix) + ".plan"
	_, payload, ok := strings.Cut(storeEntryV1, "\n")
	if !ok {
		t.Fatal("entry literal has no header line")
	}
	req := Request{Model: models.Config{Family: "mlp", Depth: 1, Width: 256, Batch: 64}}

	old := t.TempDir()
	if err := os.WriteFile(filepath.Join(old, entry), []byte(storeEntryV1), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(old, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{Workers: 1, Store: st, Compute: func(Request) ([]byte, error) {
		t.Error("a stored plan was searched again")
		return nil, nil
	}})
	defer a.Shutdown(context.Background())
	if val, ok := a.Lookup(digest); !ok || string(val) != payload {
		t.Fatalf("Lookup of an older entry = %q, %v", val, ok)
	}
	if m := a.Metrics(); m.StoreCorrupt != 0 || m.StoreQuarantined != 0 || m.StoreServed != 1 {
		t.Fatalf("metrics %+v, want StoreCorrupt=0 StoreQuarantined=0 StoreServed=1", m)
	}

	fresh := t.TempDir()
	st2, err := store.Open(fresh, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := New(Config{Workers: 1, Store: st2, Compute: func(Request) ([]byte, error) { return []byte(payload), nil }})
	defer b.Shutdown(context.Background())
	j, _, err := b.Submit(req, digest)
	if err != nil {
		t.Fatal(err)
	}
	if _, jerr, timedOut := b.Wait(context.Background(), j, 5*time.Second); jerr != nil || timedOut {
		t.Fatalf("search: %v (timedOut=%v)", jerr, timedOut)
	}
	got, err := os.ReadFile(filepath.Join(fresh, entry))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != storeEntryV1 {
		t.Fatalf("persist wrote\n%s\nwant\n%s", got, storeEntryV1)
	}
}

// TestRetainedJobsBoundedByBytes: the finished-job index gives up its oldest
// jobs once the plans they hold pass maxRetainedBytes, long before the count
// bound — and always keeps the newest, whose caller may still be waiting.
func TestRetainedJobsBoundedByBytes(t *testing.T) {
	big := make([]byte, maxRetainedBytes/3) // three fit, a fourth does not
	s := New(Config{Workers: 1, QueueDepth: 1, CacheSize: 1,
		Compute: func(Request) ([]byte, error) { return big, nil }})
	defer s.Shutdown(context.Background())
	var ids []string
	for i := 0; i < 5; i++ {
		j, _, err := s.Submit(Request{Model: models.Config{Family: "mlp", Depth: 1 + i, Width: 64, Batch: 16}}, testDigest(40+i))
		if err != nil {
			t.Fatal(err)
		}
		if _, jerr, timedOut := s.Wait(context.Background(), j, 5*time.Second); jerr != nil || timedOut {
			t.Fatalf("job %d: %v (timedOut=%v)", i, jerr, timedOut)
		}
		ids = append(ids, j.ID())
	}
	for i, id := range ids {
		if _, ok := s.Job(id); ok != (i >= 2) {
			t.Errorf("job %d retained = %v, want %v (only the newest three fit the byte budget)", i, ok, i >= 2)
		}
	}
	s.mu.Lock()
	held := s.doneBytes
	s.mu.Unlock()
	if held != int64(3*len(big)) {
		t.Errorf("retained bytes = %d, want %d", held, 3*len(big))
	}
	// One plan larger than the whole budget is still retained while newest.
	big = make([]byte, maxRetainedBytes+1)
	j, _, err := s.Submit(Request{Model: models.Config{Family: "mlp", Depth: 9, Width: 64, Batch: 16}}, testDigest(49))
	if err != nil {
		t.Fatal(err)
	}
	if _, jerr, timedOut := s.Wait(context.Background(), j, 5*time.Second); jerr != nil || timedOut {
		t.Fatalf("huge job: %v (timedOut=%v)", jerr, timedOut)
	}
	if _, ok := s.Job(j.ID()); !ok {
		t.Error("the newest job was evicted by its own size")
	}
	if _, ok := s.Job(ids[4]); ok {
		t.Error("older jobs survived a plan that fills the budget alone")
	}
}
