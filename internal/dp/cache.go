package dp

import (
	"strconv"
	"sync"
	"sync/atomic"

	"tofu/internal/partition"
	"tofu/internal/shape"
)

// PriceCache memoizes the priced strategy enumerations of operator slots
// and the dense tables filled from them.
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
// The cache holds two memos. The pricing memo (priced) keeps each slot key's
// priced enumeration. The class memo keeps the finished dense slot tables
// (table.go): per scope — one coarsening's interned signatures, K and the
// dtype, for problems without a strategy filter — it maps a slot class (the
// slot's SigID and slotEval.classKey, which fix everything a table is a
// function of) to its table. Each class is claimed at its first lookup and
// filled once, however many slots, factor steps or lower-bound queries of the
// scope ask for it, and later slots of the class build no string key. A
// problem without a class memo fills its tables for itself from the memoized
// pricings. Tables are immutable once filled and a retained table is
// bit-identical to one filled on the spot, so what the memo holds can change
// a search's speed, never its plan.
//
// A search makes its own cache and drops it when done, unless its caller
// passes one in (the paper-artifact experiments share one across cells).
//
// The zero value is not usable; call NewPriceCache. A nil *PriceCache is a
// valid "no caching" sentinel. All methods are safe for concurrent use.
type PriceCache struct {
	mu sync.Mutex
	m  map[string]*cacheEntry
	// scopes holds the class memo of each scope; tableBytes the retained
	// tables' footprint, held at or below tableBudget (tableMemoBytes; tests
	// shrink it).
	scopes      map[classScope]*classMemo
	tableBytes  int64
	tableBudget int64

	// hits/misses count priced() lookups that found an existing entry vs
	// ones that created it (a miss is exactly one new entry); a class hit
	// counts as a hit too: one lookup per slot evaluator.
	// tableHits/tableFills count class memo lookups that found their class
	// vs filled its table.
	hits, misses          atomic.Int64
	tableHits, tableFills atomic.Int64
}

type cacheEntry struct {
	once   sync.Once
	priced *partition.Priced
	err    error
}

// NewPriceCache returns an empty cache.
func NewPriceCache() *PriceCache {
	return &PriceCache{m: map[string]*cacheEntry{}, tableBudget: tableMemoBytes}
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
// new one since the cache was created. A slot served by the class memo
// counts as a hit.
func (c *PriceCache) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// TableStats reports how many class memo lookups found their class's table
// vs filled it since the cache was created, and the bytes the retained
// tables occupy. A problem without a class memo looks nothing up.
func (c *PriceCache) TableStats() (hits, fills, bytes int64) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	bytes = c.tableBytes
	c.mu.Unlock()
	return c.tableHits.Load(), c.tableFills.Load(), bytes
}

// countClasses adds one preparation worker's class memo lookups: a hit is
// also a hit of the pricing memo.
func (c *PriceCache) countClasses(hits, fills int64) {
	c.hits.Add(hits)
	c.tableHits.Add(hits)
	c.tableFills.Add(fills)
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
	entries []*classEntry
	keys    []byte
}

// classEntry is one class: its key window, and its table, filled once by
// whichever slot of the class gets to it first.
type classEntry struct {
	next, off, n int32
	once         sync.Once
	t            slotTable
	err          error
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
		m = &classMemo{head: make([]int32, len(sigs)), entries: make([]*classEntry, 0, len(sigs)),
			keys: make([]byte, 0, classKeyBytes*len(sigs))}
		c.scopes[sc] = m
	}
	return m
}

// claim returns the entry of the class of signature sig with key in m, and
// whether the class was there already. A class met for the first time is
// claimed: its new entry is returned for the caller to fill, unless its
// table of size entries would take the retained tables past the byte budget,
// when claim records nothing and returns nil.
//
//tofu:hotpath once per dense slot per Solve/LowerBound; enforced by tofu-vet/hotalloc
func (c *PriceCache) claim(m *classMemo, sig int32, key []byte, size int) (_ *classEntry, found bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := m.head[sig]; i > 0; {
		e := m.entries[i-1]
		if string(m.keys[e.off:e.off+e.n]) == string(key) {
			return e, true
		}
		i = e.next
	}
	if !c.reserve(tableEntryBytes + int64(len(key)) + 12*int64(size)) {
		return nil, false
	}
	e := &classEntry{next: m.head[sig], off: int32(len(m.keys)), n: int32(len(key))}
	m.entries = append(m.entries, e)
	m.keys = append(m.keys, key...)
	m.head[sig] = int32(len(m.entries))
	return e, false
}

// reserve adds bytes to the retained tables' footprint if that keeps it
// within the budget, and reports whether it did. claim calls it holding a
// class memo's lock: a class memo's lock is taken before c.mu, never after.
func (c *PriceCache) reserve(bytes int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tableBytes+bytes > c.tableBudget {
		return false
	}
	c.tableBytes += bytes
	return true
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
