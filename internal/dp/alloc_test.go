package dp

import (
	"runtime"
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

// TestPrepareColdAllocs is Prepare's allocation ceiling against a fresh
// PriceCache — a cold search's first step, which pays for every pricing,
// every table and the class memo — on the two WResNets of cold-flat.
// Before the class memo it allocated 4 248 objects and 767 KiB, and 4 248
// and 1 321 KiB; beside the string-keyed table memo the class memo replaced,
// 3 350 and 626 KiB, and 3 350 and 1 032 KiB (a key string and an entry per
// class).
func TestPrepareColdAllocs(t *testing.T) {
	ceilings := map[string]struct{ objects, kb float64 }{ // measured: 2 873/566, 2 873/972
		"wresnet-50-4@32":  {2900, 585},
		"wresnet-152-10@8": {2900, 990},
	}
	for _, cfg := range []models.Config{
		{Family: "wresnet", Depth: 50, Width: 4, Batch: 32},
		{Family: "wresnet", Depth: 152, Width: 10, Batch: 8},
	} {
		m, err := models.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := problemFor(t, m, 2)
		p.Parallelism = 1
		prepare := func() {
			p.Cache = NewPriceCache()
			if _, err := Prepare(p); err != nil {
				t.Fatal(err)
			}
		}
		objects := testing.AllocsPerRun(5, prepare)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		prepare()
		runtime.ReadMemStats(&after)
		kb := float64(after.TotalAlloc-before.TotalAlloc) / 1024
		c := ceilings[cfg.String()]
		if objects > c.objects || kb > c.kb {
			t.Errorf("%s: a cold Prepare allocates %v objects and %.0f KiB, ceiling %v and %v", cfg, objects, kb, c.objects, c.kb)
		}
		t.Logf("%s: %v objects, %.0f KiB", cfg, objects, kb)
	}
}
