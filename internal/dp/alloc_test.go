package dp

import (
	"testing"

	"tofu/internal/models"
)

// TestPrepareSlotEvalsAllocs is the evaluator builder's allocation ceiling. A
// call that builds every evaluator from a warm PriceCache allocates its three
// slabs and its scratch once, not per slot (the builder it replaced allocated
// three objects per slot).
func TestPrepareSlotEvalsAllocs(t *testing.T) {
	const rebuildCeiling = 16 // alphabets (3), slot list, slotSet, ordered, byGroup, chunk ranges and errors, the worker closure, three slabs, three scratch buffers
	for _, cfg := range []models.Config{
		{Family: "mlp", Depth: 4, Width: 64, Batch: 16},
		{Family: "rnn", Depth: 2, Width: 64, Batch: 16},
		{Family: "wresnet", Depth: 50, Width: 1, Batch: 4},
	} {
		m, err := models.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := problemFor(t, m, 2)
		p.Parallelism = 1
		p.Cache = NewPriceCache()
		first, err := prepareSlotEvals(p)
		if err != nil {
			t.Fatal(err)
		}
		rebuild := testing.AllocsPerRun(10, func() {
			if _, err := prepareSlotEvals(p); err != nil {
				t.Fatal(err)
			}
		})
		if rebuild > rebuildCeiling {
			t.Errorf("%s (%d slots): rebuilding every evaluator allocates %v objects, ceiling %d", cfg, len(first.ordered), rebuild, rebuildCeiling)
		}
		t.Logf("%s: %d slots, rebuild %v", cfg, len(first.ordered), rebuild)
	}
}
