package service

import (
	"sort"
	"sync"

	"tofu/internal/plan"
	"tofu/internal/recursive"
	"tofu/internal/store"
	"tofu/internal/topo"
)

// neighborsPerModel bounds how many cached plans the warm-start index
// retains per model bucket; beyond it the entry furthest (by worker count)
// from the newcomer is dropped. A handful is plenty — seeds only need one
// good ordering, and a poor one costs search effort, never plan bytes.
const neighborsPerModel = 8

// neighborPlan is one cached answer for a model: where it ran and the
// factor-to-level ordering it realized. It is the unit the warm-start
// neighbor index serves — "this model, partitioned elsewhere in the fleet,
// chose this ordering".
type neighborPlan struct {
	digest  string
	workers int64
	steps   []recursive.WarmStep
}

// neighborIndex maps model digests to their cached plans across worker
// counts and machines. Fed by finished searches, store hits, and the boot
// scan of a shared store directory; read on every topology-aware search to
// seed the branch-and-bound incumbent.
type neighborIndex struct {
	mu      sync.Mutex
	byModel map[string][]neighborPlan
}

func newNeighborIndex() *neighborIndex {
	return &neighborIndex{byModel: make(map[string][]neighborPlan)}
}

// add records a plan's realized ordering under its model bucket,
// deduplicating by request digest.
func (ix *neighborIndex) add(modelDigest, digest string, workers int64, steps []recursive.WarmStep) {
	if modelDigest == "" || len(steps) == 0 {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	bucket := ix.byModel[modelDigest]
	for i := range bucket {
		if bucket[i].digest == digest {
			bucket[i].workers = workers
			bucket[i].steps = steps
			return
		}
	}
	bucket = append(bucket, neighborPlan{digest: digest, workers: workers, steps: steps})
	if len(bucket) > neighborsPerModel {
		// Drop the entry whose worker count is furthest from the newcomer
		// (ties: the lexicographically larger digest) — neighbors near the
		// fleet's current scale are the useful seeds.
		ref := workers
		worst := 0
		for i := 1; i < len(bucket); i++ {
			di, dw := absI64(bucket[i].workers-ref), absI64(bucket[worst].workers-ref)
			if di > dw || (di == dw && bucket[i].digest > bucket[worst].digest) {
				worst = i
			}
		}
		bucket = append(bucket[:worst], bucket[worst+1:]...)
	}
	ix.byModel[modelDigest] = bucket
}

// seedFor picks the best neighbor for a request — same model, different
// digest, nearest worker count (ties: lexicographically smallest digest, so
// the choice is deterministic across replicas) — and maps its ordering onto
// the requested machine. nil means "no usable neighbor": the search runs
// cold, exactly as before this index existed.
func (ix *neighborIndex) seedFor(modelDigest, selfDigest string, workers int64, tp topo.Topology) []recursive.WarmStep {
	if modelDigest == "" {
		return nil
	}
	ix.mu.Lock()
	var best *neighborPlan
	for i := range ix.byModel[modelDigest] {
		n := &ix.byModel[modelDigest][i]
		if n.digest == selfDigest {
			continue
		}
		if best == nil {
			best = n
			continue
		}
		dn, db := absI64(n.workers-workers), absI64(best.workers-workers)
		if dn < db || (dn == db && n.digest < best.digest) {
			best = n
		}
	}
	var steps []recursive.WarmStep
	if best != nil {
		steps = append(steps, best.steps...)
	}
	ix.mu.Unlock()
	if steps == nil {
		return nil
	}
	return recursive.WarmOrderFromSteps(tp, steps)
}

// models lists the indexed model digests (sorted; for tests).
func (ix *neighborIndex) models() []string {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	out := make([]string, 0, len(ix.byModel))
	for d := range ix.byModel {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

func absI64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// warmStepsFromMeta converts a store entry's recorded ordering into the
// search layer's seed form.
func warmStepsFromMeta(meta store.Meta) []recursive.WarmStep {
	if len(meta.Steps) == 0 {
		return nil
	}
	out := make([]recursive.WarmStep, len(meta.Steps))
	for i, st := range meta.Steps {
		out[i] = recursive.WarmStep{Factor: st.Factor, Level: st.Level}
	}
	return out
}

// warmStepsFromHeader extracts a verified plan's realized ordering in the
// search layer's seed form.
func warmStepsFromHeader(h plan.Header) []recursive.WarmStep {
	if len(h.Steps) == 0 {
		return nil
	}
	out := make([]recursive.WarmStep, len(h.Steps))
	for i, st := range h.Steps {
		out[i] = recursive.WarmStep{Factor: st.Ways, Level: st.Level}
	}
	return out
}

// storeStepsFromHeader extracts a verified plan's realized ordering in the
// store's header form. Plans that never ran the topology-aware search
// (single-level machines) record their steps too — factor and level are
// still meaningful for the index's bookkeeping.
func storeStepsFromHeader(h plan.Header) []store.Step {
	out := make([]store.Step, len(h.Steps))
	for i, st := range h.Steps {
		out[i] = store.Step{Factor: st.Ways, Level: st.Level}
	}
	return out
}
