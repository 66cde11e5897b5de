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
// In front of both levels sits a class memo: per scope — one coarsening's
// interned signatures, K and the dtype, for problems without a strategy
// filter — it maps a slot class (the slot's SigID and slotEval.classKey) to
// the retained table its first slot found, so later slots of the class
// build no string key and take no hashed lookup.
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

	// scopes holds the class memo of each scope.
	scopes map[classScope]*classMemo

	// hits/misses count priced() lookups that found an existing entry vs
	// ones that created it (a miss is exactly one new entry).
	// tableHits/tableMisses count table() lookups the same way. A class hit
	// counts as a hit of both: one lookup per slot evaluator.
	// classHits/classMisses count class memo lookups.
	hits, misses           atomic.Int64
	tableHits, tableMisses atomic.Int64
	classHits, classMisses atomic.Int64
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
// fill), and whether the cache retains it. Past the byte budget a table is
// filled for the caller alone and not retained. A nil receiver fills without
// caching.
func (c *PriceCache) table(key []byte, size int, fill func() (*slotTable, error)) (*slotTable, bool, error) {
	if c == nil {
		t, err := fill()
		return t, false, err
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
		t, err := fill()
		return t, false, err
	}
	e.once.Do(func() { e.t, e.err = fill() })
	return e.t, true, e.err
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
// new one since the cache was created. A slot served by the class memo
// counts as a hit.
func (c *PriceCache) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// ClassStats reports how many class memo lookups found their class's table
// vs went on to the string-keyed levels since the cache was created.
func (c *PriceCache) ClassStats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.classHits.Load(), c.classMisses.Load()
}

// countClasses adds one preparation worker's class memo lookups: a hit is
// also a hit of the pricing and the table level.
func (c *PriceCache) countClasses(hits, misses int64) {
	c.hits.Add(hits)
	c.tableHits.Add(hits)
	c.classHits.Add(hits)
	c.classMisses.Add(misses)
}

// classScope is what a class key leaves out: the coarsening whose
// signature table numbers the slots (its first entry stands for the table:
// each Coarsen call interns its own), K and the dtype. The strategy filter is
// not in it because a problem with a filter has no class memo: filters are
// functions, which cannot be compared, and callers share one cache between
// searches with different filters.
type classScope struct {
	sigs *string
	k    int64
	dt   shape.DType
}

// classMemo maps the slot classes of one scope to their tables: classes of
// signature s chain from head[s] through entries (indices plus one, 0 ends
// a chain), each entry's key a window of keys.
type classMemo struct {
	mu      sync.Mutex
	head    []int32
	entries []classEntry
	keys    []byte
}

type classEntry struct {
	next, off, n int32
	t            *slotTable
}

// classKeyBytes is room for one class key in a new memo's key store: a
// multiplicity, a pattern and masks of a few operands.
const classKeyBytes = 8

// classes returns the class memo of p's scope, creating it on first use;
// nil when p has none: no cache, a strategy filter, or a coarsening without
// a signature table.
func (c *PriceCache) classes(p *Problem) *classMemo {
	sigs := p.Coarse.Sigs()
	if c == nil || p.StrategyFilter != nil || len(sigs) == 0 {
		return nil
	}
	sc := classScope{sigs: &sigs[0], k: p.K, dt: p.DType}
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.scopes[sc]
	if m == nil {
		if c.scopes == nil {
			c.scopes = map[classScope]*classMemo{}
		}
		// A scope holds about one class per signature: room for that.
		m = &classMemo{head: make([]int32, len(sigs)), entries: make([]classEntry, 0, len(sigs)),
			keys: make([]byte, 0, classKeyBytes*len(sigs))}
		c.scopes[sc] = m
	}
	return m
}

// get returns the table of the class of signature sig with key, or nil.
//
//tofu:hotpath once per dense slot per Solve/LowerBound; enforced by tofu-vet/hotalloc
func (m *classMemo) get(sig int32, key []byte) *slotTable {
	m.mu.Lock()
	defer m.mu.Unlock()
	if en := m.find(sig, key); en != nil {
		return en.t
	}
	return nil
}

// put records t as the table of the class of signature sig with key, unless
// a concurrent preparation recorded the class first.
func (m *classMemo) put(sig int32, key []byte, t *slotTable) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.find(sig, key) != nil {
		return
	}
	m.entries = append(m.entries, classEntry{next: m.head[sig], off: int32(len(m.keys)), n: int32(len(key)), t: t})
	m.keys = append(m.keys, key...)
	m.head[sig] = int32(len(m.entries))
}

// find returns the entry of the class of signature sig with key, or nil.
// The caller holds m.mu.
//
//tofu:hotpath part of get
func (m *classMemo) find(sig int32, key []byte) *classEntry {
	for e := m.head[sig]; e > 0; e = m.entries[e-1].next {
		if en := &m.entries[e-1]; string(m.keys[en.off:en.off+en.n]) == string(key) {
			return en
		}
	}
	return nil
}

// slotKey appends the key a pricing is memoized under: the slot's structural
// signature (operator name, sorted attributes, original input/output shapes —
// coarsening interns it per root graph and every slot carries it), dtype and
// K. Two slots with equal keys price identically regardless of which graph,
// model variant or recursive step they come from. Built with plain byte
// appends into the caller's buffer — it runs once per slot per step, inside
// the pooled evaluator build.
//
//tofu:hotpath runs once per slot per Solve/LowerBound; enforced by tofu-vet/hotalloc
func slotKey(buf []byte, sig string, k int64, dt shape.DType) []byte {
	buf = append(buf, sig...)
	buf = append(buf, '@')
	buf = strconv.AppendInt(buf, int64(dt), 10)
	buf = append(buf, '/')
	return strconv.AppendInt(buf, k, 10)
}
