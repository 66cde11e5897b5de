package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"tofu/internal/dp"
	"tofu/internal/models"
)

// PricingCaches is the cross-request pricing-reuse layer: a bounded LRU of
// dp.PriceCache keyed by model content digest. Slot pricings are keyed
// structurally inside each PriceCache (operator signature, original shapes,
// dtype, per-step K), so a warm request for the same model at a DIFFERENT
// worker count or topology still reuses most pricings — the per-step factors
// of 8-, 64- and 128-GPU machines are all the same small primes. Bucketing
// per model merely bounds memory: evicting one cold model's bucket drops all
// of its pricings at once.
type PricingCaches struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[string]*list.Element

	// modelHits/modelMisses count For() lookups; retiredHits/retiredMisses
	// accumulate the per-entry pricing counters of evicted buckets — and
	// retiredTableHits/retiredTableMisses their dense-table counters — so
	// the metrics survive eviction.
	modelHits, modelMisses               int64
	retiredHits, retiredMisses           int64
	retiredTableHits, retiredTableMisses int64
}

type pricingEntry struct {
	digest string
	cache  *dp.PriceCache
}

// NewPricingCaches returns an LRU holding pricing caches for at most
// capacity models (minimum 1).
func NewPricingCaches(capacity int) *PricingCaches {
	if capacity < 1 {
		capacity = 1
	}
	return &PricingCaches{cap: capacity, order: list.New(), items: make(map[string]*list.Element)}
}

// modelDigest is the bucket key: the sha256 of the model config's canonical
// JSON (the same canonical form the request digest hashes).
func modelDigest(cfg models.Config) (string, error) {
	mj, err := cfg.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(mj)
	return hex.EncodeToString(sum[:]), nil
}

// For returns the pricing cache for a request's model, creating (and, at
// capacity, evicting the least recently used bucket) as needed. A nil
// return (config that cannot canonicalize — already rejected upstream)
// means "search without cross-request reuse".
func (p *PricingCaches) For(cfg models.Config) *dp.PriceCache {
	digest, err := modelDigest(cfg)
	if err != nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if el, ok := p.items[digest]; ok {
		p.order.MoveToFront(el)
		p.modelHits++
		return el.Value.(*pricingEntry).cache
	}
	p.modelMisses++
	cache := dp.NewPriceCache()
	p.items[digest] = p.order.PushFront(&pricingEntry{digest: digest, cache: cache})
	for p.order.Len() > p.cap {
		last := p.order.Back()
		p.order.Remove(last)
		e := last.Value.(*pricingEntry)
		h, m := e.cache.Stats()
		p.retiredHits += h
		p.retiredMisses += m
		th, tm, _ := e.cache.TableStats()
		p.retiredTableHits += th
		p.retiredTableMisses += tm
		delete(p.items, e.digest)
	}
	return cache
}

// Models reports how many model buckets are resident.
func (p *PricingCaches) Models() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.order.Len()
}

// PricingStats aggregates the per-slot pricing hit/miss counters across all
// resident buckets plus everything evicted so far, and the bucket-level
// model hit/miss counts.
func (p *PricingCaches) PricingStats() (hits, misses, modelHits, modelMisses int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	hits, misses = p.retiredHits, p.retiredMisses
	for el := p.order.Front(); el != nil; el = el.Next() {
		h, m := el.Value.(*pricingEntry).cache.Stats()
		hits += h
		misses += m
	}
	return hits, misses, p.modelHits, p.modelMisses
}

// TableStats aggregates the dense slot-table memo counters the same way:
// lookups that found a filled table vs ones that filled it, across all
// resident buckets plus everything evicted so far, and the bytes the
// resident buckets' tables occupy (an evicted bucket's tables are garbage).
func (p *PricingCaches) TableStats() (hits, misses, bytes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	hits, misses = p.retiredTableHits, p.retiredTableMisses
	for el := p.order.Front(); el != nil; el = el.Next() {
		h, m, b := el.Value.(*pricingEntry).cache.TableStats()
		hits += h
		misses += m
		bytes += b
	}
	return hits, misses, bytes
}
