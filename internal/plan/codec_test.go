package plan_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tofu/internal/core"
	"tofu/internal/models"
	"tofu/internal/partition"
	"tofu/internal/plan"
	"tofu/internal/service"
)

// coldCases are the repository benchmark's twelve cold requests (flat,
// topology-aware, pipelined), smallest first within each group; -short keeps
// the first of each.
var coldCases = [3][]string{
	{
		`{"model":{"family":"transformer","depth":4,"width":1024,"batch":16}}`,
		`{"model":{"family":"wresnet","depth":50,"width":4,"batch":32}}`,
		`{"model":{"family":"wresnet","depth":152,"width":10,"batch":8}}`,
		`{"model":{"family":"rnn","depth":10,"width":8192,"batch":128}}`,
	},
	{
		`{"model":{"family":"mlp","depth":3,"width":3072,"batch":48},"hw":"cluster-2x8x2x8"}`,
		`{"model":{"family":"transformer","depth":2,"width":1024,"batch":64},"hw":"cluster-4x2x8"}`,
		`{"model":{"family":"rnn","depth":2,"width":8192,"batch":256},"hw":"cluster-8x2x8"}`,
		`{"model":{"family":"transformer","depth":2,"width":1536,"batch":24},"hw":"cluster-2x4x2x12"}`,
	},
	{
		`{"model":{"family":"transformer","depth":2,"width":1024,"batch":64},"hw":"cluster-2x8","pipeline":{}}`,
		`{"model":{"family":"mlp","depth":4,"width":384,"batch":48},"hw":"cluster-2x4x2x12","pipeline":{}}`,
		`{"model":{"family":"mlp","depth":8,"width":256,"batch":64},"hw":"cluster-4x2x8","pipeline":{}}`,
		`{"model":{"family":"rnn","depth":2,"width":1024,"batch":64},"hw":"cluster-4x2x8","pipeline":{}}`,
	},
}

// searchPlan runs the cold op's search for one request body and returns the
// plan with its digest set, as the service serializes it.
func searchPlan(tb testing.TB, body string) *plan.Plan {
	tb.Helper()
	nr, err := service.ParseRequest([]byte(body))
	if err != nil {
		tb.Fatal(err)
	}
	digest, err := nr.Digest()
	if err != nil {
		tb.Fatal(err)
	}
	m, err := models.Build(nr.Model)
	if err != nil {
		tb.Fatal(err)
	}
	opts := nr.PipelineOptions()
	opts.Search.Parallelism = 1
	sum, err := core.Partition(m.G, nr.Workers, opts)
	if err != nil {
		tb.Fatal(err)
	}
	sum.Plan.Digest = digest
	return sum.Plan
}

// checkEncoder holds WriteJSON to the encoding/json reference: the same
// bytes, or an error (and nothing written) exactly where the reference has
// one. It returns the bytes, nil for an unserializable plan.
func checkEncoder(t *testing.T, name string, p *plan.Plan) []byte {
	t.Helper()
	var got, want bytes.Buffer
	gotErr, wantErr := p.WriteJSON(&got), plan.ReferenceWriteJSON(p, &want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: WriteJSON error %v, reference error %v", name, gotErr, wantErr)
	}
	if gotErr != nil {
		if got.Len() != 0 {
			t.Fatalf("%s: WriteJSON failed after writing %d bytes", name, got.Len())
		}
		return nil
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("%s: WriteJSON differs from the encoding/json reference at byte %d\n got: %s\nwant: %s",
			name, firstDiff(got.Bytes(), want.Bytes()), excerpt(got.Bytes(), want.Bytes()), excerpt(want.Bytes(), got.Bytes()))
	}
	return got.Bytes()
}

// checkCodec is the whole differential for one valid plan: the encoder, then
// the reader on the encoder's bytes.
func checkCodec(t *testing.T, name string, p *plan.Plan) {
	t.Helper()
	checkReader(t, name, checkEncoder(t, name, p))
}

// checkReader holds the reader to the reference on bytes the reader accepts.
func checkReader(t *testing.T, name string, raw []byte) {
	t.Helper()
	ex, err := plan.ReadJSON(bytes.NewReader(raw))
	hdr, verr := plan.Verify(raw, "")
	if (err == nil) != (verr == nil) {
		t.Fatalf("%s: ReadJSON error %v but Verify error %v", name, err, verr)
	}
	if err != nil {
		t.Fatalf("%s: plan rejected: %v", name, err)
	}
	ref, err := plan.ReferenceReadJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("%s: accepted by ReadJSON, rejected by the reference: %v", name, err)
	}
	if !reflect.DeepEqual(ex, ref) {
		t.Fatalf("%s: ReadJSON and the reference disagree:\n got %+v\nwant %+v", name, ex, ref)
	}
	if want := headerOf(ref); !reflect.DeepEqual(hdr, want) {
		t.Fatalf("%s: Verify header %+v, want %+v", name, hdr, want)
	}
}

// headerOf is the Header an Export implies.
func headerOf(ex plan.Export) plan.Header {
	h := plan.Header{Digest: ex.Digest, Workers: ex.Workers, Degraded: ex.Degraded, Steps: make([]plan.StepHeader, len(ex.Steps))}
	for i, s := range ex.Steps {
		h.Steps[i] = plan.StepHeader{Ways: s.Ways, Level: s.Level}
	}
	return h
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

func excerpt(a, b []byte) []byte {
	at := firstDiff(a, b)
	return a[max(0, at-60):min(len(a), at+60)]
}

func TestCodecMatchesReferenceOnBenchmarkPlans(t *testing.T) {
	for _, group := range coldCases {
		for i, body := range group {
			if testing.Short() && i > 0 {
				break
			}
			checkCodec(t, body, searchPlan(t, body))
		}
	}
}

// strategies builds a dense OpStrategy slice with an output split on every
// third node, a reduction on every third, and nothing on the rest.
func strategies(n int, axis string) []partition.Strategy {
	out := make([]partition.Strategy, n)
	for i := range out {
		switch i % 3 {
		case 0:
			out[i] = partition.Strategy{Kind: partition.SplitOutput, Axis: axis, OutDim: i % 4}
		case 1:
			out[i] = partition.Strategy{Kind: partition.SplitReduce, Axis: axis, OutDim: -1}
		}
	}
	return out
}

func cuts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i%4 - 1 // -1 = uncut, skipped by the encoder
	}
	return out
}

func TestCodecMatchesReferenceOnEdgeCases(t *testing.T) {
	const digest = plan.DigestPrefix + "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	step := func(comm float64, nt, nn int) *plan.Step {
		return &plan.Step{K: 2, Multiplier: 1, CommBytes: comm, TensorCut: cuts(nt), OpStrategy: strategies(nn, "i")}
	}
	cases := map[string]*plan.Plan{
		"k=1 no steps":       {K: 1},
		"k=1 empty steps":    {K: 1, Steps: []*plan.Step{}},
		"digest":             {K: 2, Digest: digest, Steps: []*plan.Step{step(10, 3, 3)}},
		"degraded":           {K: 2, Degraded: true, Steps: []*plan.Step{step(10, 3, 3)}},
		"no cut tensors":     {K: 2, Steps: []*plan.Step{{K: 2, Multiplier: 1, TensorCut: []int{-1, -1}, OpStrategy: strategies(2, "")}}},
		"nil slices":         {K: 2, Steps: []*plan.Step{{K: 2, Multiplier: 1}}},
		"comm 0":             {K: 2, Steps: []*plan.Step{step(0, 2, 2)}},
		"comm 1e-7":          {K: 2, Steps: []*plan.Step{step(1e-7, 2, 2)}},
		"comm 1e-6":          {K: 2, Steps: []*plan.Step{step(1e-6, 2, 2)}},
		"comm 1e21":          {K: 2, Steps: []*plan.Step{step(1e21, 2, 2)}},
		"comm just <1e21":    {K: 2, Steps: []*plan.Step{step(math.Nextafter(1e21, 0), 2, 2)}},
		"comm 1.5e300":       {K: 2, Steps: []*plan.Step{step(1.5e300, 2, 2)}},
		"comm non-integer":   {K: 2, Steps: []*plan.Step{step(1234.5678, 2, 2)}},
		"comm third":         {K: 2, Steps: []*plan.Step{step(1.0/3, 2, 2)}},
		"comm NaN":           {K: 2, Steps: []*plan.Step{step(math.NaN(), 2, 2)}},
		"comm +Inf":          {K: 2, Steps: []*plan.Step{step(math.Inf(1), 2, 2)}},
		"comm -Inf":          {K: 2, Steps: []*plan.Step{step(math.Inf(-1), 2, 2)}},
		"comm overflows sum": {K: 4, Steps: []*plan.Step{step(math.MaxFloat64, 2, 2), {K: 2, Multiplier: 2, CommBytes: math.MaxFloat64}}},
		"axis escapes": {K: 2, Steps: []*plan.Step{{K: 2, Multiplier: 1,
			TensorCut: cuts(2), OpStrategy: strategies(4, "a\"b\\c<d>&e\n\x7fé \xff")}}},
		"level and stage": {K: 4, Pipeline: &plan.PipelineInfo{Level: 1, Stages: []plan.StageInfo{
			{Groups: [2]int{0, 3}, Workers: 2, HandoffBytes: 4096}, {Groups: [2]int{3, 5}, Workers: 2}}},
			Steps: []*plan.Step{
				{K: 2, Multiplier: 1, CommBytes: 7, Level: 0, Stage: 0, TensorCut: cuts(5), OpStrategy: strategies(5, "b")},
				{K: 2, Multiplier: 1, CommBytes: 9, Level: 2, Stage: 1, TensorCut: cuts(5), OpStrategy: strategies(5, "b")}}},
		"pipeline nil stages":   {K: 2, Pipeline: &plan.PipelineInfo{Level: 1}, Steps: []*plan.Step{step(1, 2, 2)}},
		"pipeline empty stages": {K: 2, Pipeline: &plan.PipelineInfo{Level: 1, Stages: []plan.StageInfo{}}, Steps: []*plan.Step{step(1, 2, 2)}},
		"handoff NaN": {K: 4, Pipeline: &plan.PipelineInfo{Level: 1, Stages: []plan.StageInfo{
			{Groups: [2]int{0, 3}, Workers: 2, HandoffBytes: math.NaN()}, {Groups: [2]int{3, 5}, Workers: 2}}},
			Steps: []*plan.Step{step(1, 2, 2)}},
	}
	// ID counts around every power of ten: where "9" < "10" stops being the
	// numeric order and the digit-trie walk has to turn.
	for _, n := range []int{0, 1, 2, 9, 10, 11, 12, 19, 20, 21, 99, 100, 101, 109, 110, 111, 999, 1000, 1001, 1099, 1100, 9999, 10000, 10001, 12345} {
		cases[fmt.Sprintf("%d ids", n)] = &plan.Plan{K: 2, Steps: []*plan.Step{step(float64(n), n, n)}}
	}
	for name, p := range cases {
		raw := checkEncoder(t, name, p)
		// Not every case is a plan the readers accept (a nil stage list, an
		// infinite total); those that are go through the reader half too.
		if _, err := plan.ReadJSON(bytes.NewReader(raw)); raw != nil && err == nil {
			checkReader(t, name, raw)
		}
	}
}

// randomPlan draws a structurally valid plan (so the reader half of the
// differential runs too): flat or pipelined, with sparse cuts and strategies
// over a random number of IDs.
func randomPlan(rng *rand.Rand) *plan.Plan {
	axes := []string{"i", "j", "k", "batch", "o<1>", "é"}
	comms := []float64{0, 1, 64, 1e-7, 3.25e-9, 1e21, 2.5e22, 123456.789, 1 << 40}
	p := &plan.Plan{K: 1, Degraded: rng.Intn(4) == 0}
	if rng.Intn(2) == 0 {
		p.Digest = plan.DigestPrefix + fmt.Sprintf("%064x", rng.Uint64())
	}
	nt, nn := rng.Intn(1200), rng.Intn(1200)
	steps := func(stage int) {
		mult := int64(1)
		for n := 1 + rng.Intn(3); n > 0; n-- {
			s := &plan.Step{K: int64(2 + rng.Intn(3)), Multiplier: mult, Stage: stage, Level: rng.Intn(3),
				CommBytes: comms[rng.Intn(len(comms))], TensorCut: make([]int, nt), OpStrategy: make([]partition.Strategy, nn)}
			for i := range s.TensorCut {
				s.TensorCut[i] = rng.Intn(5) - 1
			}
			for i := range s.OpStrategy {
				switch rng.Intn(3) {
				case 0:
					s.OpStrategy[i] = partition.Strategy{Kind: partition.SplitOutput, Axis: axes[rng.Intn(len(axes))], OutDim: rng.Intn(4)}
				case 1:
					s.OpStrategy[i] = partition.Strategy{Kind: partition.SplitReduce, Axis: axes[rng.Intn(len(axes))], OutDim: -1}
				}
			}
			mult *= s.K
			p.Steps = append(p.Steps, s)
		}
		p.K = mult
	}
	if rng.Intn(3) > 0 {
		steps(0)
		return p
	}
	// Pipelined: equal stages, so every stage repeats the first one's factors.
	nStages := 2 + rng.Intn(2)
	steps(0)
	first := p.Steps
	p.Pipeline = &plan.PipelineInfo{Level: 1 + rng.Intn(2)}
	for st := 0; st < nStages; st++ {
		if st > 0 {
			for _, s := range first {
				c := *s
				c.Stage = st
				p.Steps = append(p.Steps, &c)
			}
		}
		info := plan.StageInfo{Groups: [2]int{st * 3, st*3 + 3}, Workers: p.K}
		if st < nStages-1 {
			info.HandoffBytes = comms[rng.Intn(len(comms))]
		}
		p.Pipeline.Stages = append(p.Pipeline.Stages, info)
	}
	p.K *= int64(nStages)
	return p
}

func TestCodecMatchesReferenceOnRandomPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 250; i++ {
		checkCodec(t, fmt.Sprintf("random plan %d", i), randomPlan(rng))
	}
}

// TestWriteJSONBuffers: the encoder hands its writer the whole plan at once,
// never a key at a time — tofu-plan passes it an unbuffered file, and the
// service a bytes.Buffer whose bytes it then keeps.
func TestWriteJSONBuffers(t *testing.T) {
	p := searchPlan(t, coldCases[0][0])
	var w countingWriter
	if err := p.WriteJSON(&w); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("WriteJSON issued %d writes for %d bytes; want 1", w.writes, w.bytes)
	}
	// A bytes.Buffer is appended to in place, after whatever it holds.
	var want, got bytes.Buffer
	if err := plan.ReferenceWriteJSON(p, &want); err != nil {
		t.Fatal(err)
	}
	got.WriteString("prefix")
	if err := p.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != "prefix"+want.String() {
		t.Fatal("WriteJSON into a non-empty bytes.Buffer lost or moved bytes")
	}
}

// TestCodecAllocsConstant: encoding a plan and verifying its bytes allocate a
// handful of objects whatever the plan holds — nothing per step, tensor or
// key — on the 82 KB transformer plan and the 3.2 MB RNN plan alike. (The
// encoder sizes one buffer from an estimate and regrows it at most twice.)
// The ceilings are the measured counts: encode 2-3 (3-4 under -race, whose
// sync.Pool drops buffers at random), verify 5.
func TestCodecAllocsConstant(t *testing.T) {
	bodies := []string{coldCases[0][0], coldCases[0][3]}
	if testing.Short() {
		bodies = bodies[:1]
	}
	for _, body := range bodies {
		p := searchPlan(t, body)
		var raw bytes.Buffer
		if err := p.WriteJSON(&raw); err != nil {
			t.Fatal(err)
		}
		encode := testing.AllocsPerRun(5, func() {
			var out bytes.Buffer
			if err := p.WriteJSON(&out); err != nil {
				t.Fatal(err)
			}
		})
		verify := testing.AllocsPerRun(5, func() {
			if _, err := plan.Verify(raw.Bytes(), p.Digest); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d bytes, encode %.0f allocs, verify %.0f allocs", body, raw.Len(), encode, verify)
		if encode > 4 || verify > 5 {
			t.Errorf("%s: encode allocates %.0f objects and verify %.0f, ceilings 4 and 5", body, encode, verify)
		}
	}
}

type countingWriter struct{ writes, bytes int }

func (w *countingWriter) Write(b []byte) (int, error) {
	w.writes++
	w.bytes += len(b)
	return len(b), nil
}

// BenchmarkPlanCodec measures the three codec entry points on the
// benchmark's largest flat plan and on a pipelined one, and the two readers
// on the plans a store hit reads: the smallest, median, 75th-percentile and
// largest of the repository benchmark's 256 serve-churn plans (9.4, 23, 342
// and 684 KB).
func BenchmarkPlanCodec(b *testing.B) {
	for _, c := range []struct {
		name, body string
		encode     bool
	}{
		{"rnn-10-8192@128", coldCases[0][3], true},
		{"rnn-2-1024@64+pipeline", coldCases[2][3], true},
		{"churn-min-9k", `{"model":{"family":"mlp","depth":2,"width":512,"batch":64}}`, false},
		{"churn-p50-23k", `{"model":{"family":"mlp","depth":6,"width":384,"batch":64},"hw":"dgx1"}`, false},
		{"churn-p75-342k", `{"model":{"family":"rnn","depth":1,"width":384,"batch":64}}`, false},
		{"churn-max-684k", `{"model":{"family":"rnn","depth":1,"width":2048,"batch":128},"hw":"cluster-4x2x8"}`, false},
	} {
		p := searchPlan(b, c.body)
		var buf bytes.Buffer
		if err := p.WriteJSON(&buf); err != nil {
			b.Fatal(err)
		}
		raw := buf.Bytes()
		run := func(op string, f func() error) {
			b.Run(op+"/"+c.name, func(b *testing.B) {
				b.SetBytes(int64(len(raw)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := f(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		if c.encode {
			run("encode", func() error { var out bytes.Buffer; return p.WriteJSON(&out) })
		}
		run("verify", func() error { _, err := plan.Verify(raw, p.Digest); return err })
		run("read", func() error { _, err := plan.ReadJSONExpect(bytes.NewReader(raw), p.Digest); return err })
	}
}
