package dp

import (
	"strconv"
	"sync"
	"sync/atomic"

	"tofu/internal/partition"
	"tofu/internal/shape"
)

// PriceCache memoizes the priced strategy enumerations of operator slots.
// By Lemma 1 the DP prices every basic plan at the graph's ORIGINAL shapes,
// so a slot's pricing — every (strategy, worker)'s input regions, evaluated
// through the description's compiled region program and folded into a table
// of fetch terms (partition.Price) — depends only on the operator's
// structural signature (description, attributes, original shapes), the
// step's group count K and the dtype. One cache therefore
// serves every recursive factor step, every baseline variant over the same
// model (per-step strategy filters become cheap Restrict views of the full
// enumeration), and even structurally identical slots of different models.
//
// The cache is a two-level memo. Above the priced enumerations it keeps the
// finished dense slot tables (table.go) under the slot key extended by
// everything else their contents depend on (slotEval.tableKey), so each
// distinct table is filled once however many slots, factor steps, pipeline
// segments or lower-bound queries ask for it. Tables are immutable once
// filled and a retained table is bit-identical to one filled on the spot, so
// what the memo holds can change a search's speed, never its plan.
//
// A search makes its own cache and drops it when done, unless its caller
// passes one in (the paper-artifact experiments share one across cells).
//
// The zero value is not usable; call NewPriceCache. A nil *PriceCache is a
// valid "no caching" sentinel. All methods are safe for concurrent use.
type PriceCache struct {
	mu sync.Mutex
	m  map[string]*cacheEntry
	// tables is the second level; tableBytes the retained tables' footprint,
	// held at or below tableBudget (tableMemoBytes; tests shrink it).
	tables      map[string]*tableEntry
	tableBytes  int64
	tableBudget int64

	// hits/misses count priced() lookups that found an existing entry vs
	// ones that created it (a miss is exactly one new entry).
	// tableHits/tableMisses count table() lookups the same way.
	hits, misses           atomic.Int64
	tableHits, tableMisses atomic.Int64
}

type cacheEntry struct {
	once   sync.Once
	priced *partition.Priced
	err    error
}

type tableEntry struct {
	once sync.Once
	t    *slotTable
	err  error
}

// NewPriceCache returns an empty cache.
func NewPriceCache() *PriceCache {
	return &PriceCache{m: map[string]*cacheEntry{}, tables: map[string]*tableEntry{}, tableBudget: tableMemoBytes}
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

// table returns the dense table of size entries memoized under key, filling
// it at most once (concurrent callers for the same key block on the first
// fill). Past the byte budget a table is filled for the caller alone and
// not retained. A nil receiver fills without caching.
func (c *PriceCache) table(key []byte, size int, fill func() (*slotTable, error)) (*slotTable, error) {
	if c == nil {
		return fill()
	}
	c.mu.Lock()
	e, ok := c.tables[string(key)] // no copy: only a retained miss keeps the key
	if !ok {
		if cost := tableEntryBytes + int64(len(key)) + 12*int64(size); c.tableBytes+cost <= c.tableBudget {
			e = &tableEntry{}
			c.tables[string(key)] = e
			c.tableBytes += cost
		}
	}
	c.mu.Unlock()
	if ok {
		c.tableHits.Add(1)
	} else {
		c.tableMisses.Add(1)
	}
	if e == nil {
		return fill()
	}
	e.once.Do(func() { e.t, e.err = fill() })
	return e.t, e.err
}

// TableStats reports how many dense-table lookups found a memoized table vs
// filled one since the cache was created, and the bytes the retained tables
// occupy.
func (c *PriceCache) TableStats() (hits, misses, bytes int64) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	bytes = c.tableBytes
	c.mu.Unlock()
	return c.tableHits.Load(), c.tableMisses.Load(), bytes
}

// Stats reports how many priced() lookups hit an existing entry vs built a
// new one since the cache was created.
func (c *PriceCache) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// slotKey is the key a pricing is memoized under: the slot's structural
// signature (operator name, sorted attributes, original input/output shapes —
// coarsening interns it per root graph and every slot carries it), dtype and
// K. Two slots with equal keys price identically regardless of which graph,
// model variant or recursive step they come from. Built with plain byte
// appends into the caller's buffer — it runs once per slot per step, inside
// the pooled evaluator build.
//
//tofu:hotpath runs once per slot per Solve/LowerBound; enforced by tofu-vet/hotalloc
func slotKey(buf []byte, sig string, k int64, dt shape.DType) []byte {
	buf = append(buf[:0], sig...)
	buf = append(buf, '@')
	buf = strconv.AppendInt(buf, int64(dt), 10)
	buf = append(buf, '/')
	return strconv.AppendInt(buf, k, 10)
}
