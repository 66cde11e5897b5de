package recursive

import (
	"bytes"
	"testing"

	"tofu/internal/dp"
	"tofu/internal/models"
)

// planJSON runs the search at a given parallelism and serializes the plan.
func planJSON(t *testing.T, m *models.Model, k int64, par int, cache *dp.PriceCache) []byte {
	return planJSONBeam(t, m, k, par, cache, 0)
}

// planJSONBeam is planJSON with a beam bound on the DP frontier.
func planJSONBeam(t *testing.T, m *models.Model, k int64, par int, cache *dp.PriceCache, maxStates int) []byte {
	t.Helper()
	p, err := Partition(m.G, k, Options{Parallelism: par, Cache: cache, MaxStates: maxStates})
	if err != nil {
		t.Fatalf("parallelism %d: %v", par, err)
	}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelSearchDeterminism asserts the tentpole guarantee: the
// parallel frontier sweep emits a byte-identical plan JSON to the serial
// search for every worker-pool size, on each benchmark model family.
func TestParallelSearchDeterminism(t *testing.T) {
	builds := []struct {
		name  string
		build func() (*models.Model, error)
	}{
		{"mlp", func() (*models.Model, error) { return models.MLP(4, 512, 64) }},
		{"rnn", func() (*models.Model, error) { return models.RNN(2, 1024, 64, 4) }},
		{"wresnet", func() (*models.Model, error) { return models.WResNet(50, 2, 8) }},
	}
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) {
			m, err := b.build()
			if err != nil {
				t.Fatal(err)
			}
			serial := planJSON(t, m, 8, 1, nil)
			if len(serial) == 0 {
				t.Fatal("empty plan JSON")
			}
			// Shared cache across runs must not change the result either.
			cache := dp.NewPriceCache()
			for _, par := range []int{1, 2, 8} {
				got := planJSON(t, m, 8, par, nil)
				if !bytes.Equal(serial, got) {
					t.Errorf("parallelism %d diverged from serial plan:\nserial: %s\npar:    %s",
						par, serial, got)
				}
				got = planJSON(t, m, 8, par, cache)
				if !bytes.Equal(serial, got) {
					t.Errorf("parallelism %d with shared cache diverged from serial plan", par)
				}
			}
			if _, built := cache.Stats(); built == 0 {
				t.Error("shared cache was never populated")
			}
		})
	}
}

// TestBeamSearchDeterminism covers the wide-frontier path: the attention
// fan-out overflows the dense state arrays into the sparse byte-keyed
// frontier, and the beam bound exercises the quickselect pruning — the
// emitted plan must still be byte-identical across worker-pool sizes.
func TestBeamSearchDeterminism(t *testing.T) {
	m, err := models.Transformer(2, 256, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	serial := planJSONBeam(t, m, 8, 1, nil, 64)
	if len(serial) == 0 {
		t.Fatal("empty plan JSON")
	}
	for _, par := range []int{2, 8} {
		if got := planJSONBeam(t, m, 8, par, nil, 64); !bytes.Equal(serial, got) {
			t.Errorf("parallelism %d diverged from serial beam plan", par)
		}
	}
}

// TestDefaultParallelismMatchesSerial locks the default (GOMAXPROCS) path
// to the serial plan as well.
func TestDefaultParallelismMatchesSerial(t *testing.T) {
	m, err := models.MLP(3, 256, 32)
	if err != nil {
		t.Fatal(err)
	}
	serial := planJSON(t, m, 8, 1, nil)
	def := planJSON(t, m, 8, 0, nil)
	if !bytes.Equal(serial, def) {
		t.Fatal("default parallelism diverged from serial plan")
	}
}
