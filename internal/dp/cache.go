package dp

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"tofu/internal/graph"
	"tofu/internal/partition"
	"tofu/internal/shape"
)

// PriceCache memoizes the priced strategy enumerations of operator slots.
// By Lemma 1 the DP prices every basic plan at the graph's ORIGINAL shapes,
// so a slot's pricing — the expensive part of each dp.Solve call, one
// symbolic interval analysis per (strategy, worker) — depends only on the
// operator's structural signature (description, attributes, original
// shapes), the step's group count K and the dtype. One cache therefore
// serves every recursive factor step, every baseline variant over the same
// model (per-step strategy filters become cheap Restrict views of the full
// enumeration), and even structurally identical slots of different models.
//
// The zero value is not usable; call NewPriceCache. A nil *PriceCache is a
// valid "no caching" sentinel. All methods are safe for concurrent use.
type PriceCache struct {
	mu sync.Mutex
	m  map[string]*cacheEntry

	// hits/misses count priced() lookups that found an existing entry vs
	// ones that created it — the service's cross-request reuse metric.
	hits, misses atomic.Int64
}

type cacheEntry struct {
	once   sync.Once
	priced *partition.Priced
	err    error
}

// NewPriceCache returns an empty cache.
func NewPriceCache() *PriceCache {
	return &PriceCache{m: map[string]*cacheEntry{}}
}

// priced returns the cached full pricing for key, building it at most once
// (concurrent callers for the same key block on the first build). A nil
// receiver builds without caching.
func (c *PriceCache) priced(key []byte, build func() (*partition.Priced, error)) (*partition.Priced, error) {
	if c == nil {
		return build()
	}
	c.mu.Lock()
	e, ok := c.m[string(key)] // no copy: only a miss keeps the key
	if !ok {
		e = &cacheEntry{}
		c.m[string(key)] = e
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() { e.priced, e.err = build() })
	return e.priced, e.err
}

// Stats reports how many priced() lookups hit an existing entry vs built a
// new one since the cache was created.
func (c *PriceCache) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// Len reports how many distinct slot pricings the cache holds.
func (c *PriceCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// slotKey is the structural signature a pricing is memoized under: operator
// name, sorted attributes, original input/output shapes, dtype and K. Two
// slots with equal keys price identically regardless of which graph, model
// variant or recursive step they come from. Built with plain byte appends
// into the caller's buffer — it runs once per slot per step, inside the
// pooled evaluator build.
func slotKey(buf []byte, rep *graph.Node, k int64, dt shape.DType) []byte {
	buf = append(buf[:0], rep.Op...)
	if len(rep.Attrs) > 0 {
		keys := make([]string, 0, len(rep.Attrs))
		for a := range rep.Attrs {
			keys = append(keys, a)
		}
		sort.Strings(keys)
		for _, a := range keys {
			buf = append(buf, ';')
			buf = append(buf, a...)
			buf = append(buf, '=')
			buf = strconv.AppendInt(buf, rep.Attrs[a], 10)
		}
	}
	appendShape := func(s shape.Shape) {
		buf = append(buf, '(')
		for i := 0; i < s.Rank(); i++ {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, s.Dim(i), 10)
		}
		buf = append(buf, ')')
	}
	for _, in := range rep.Inputs {
		buf = append(buf, '|')
		appendShape(in.Shape)
	}
	buf = append(buf, '>')
	appendShape(rep.Output.Shape)
	buf = append(buf, '@')
	buf = strconv.AppendInt(buf, int64(dt), 10)
	buf = append(buf, '/')
	return strconv.AppendInt(buf, k, 10)
}
