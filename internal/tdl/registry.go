package tdl

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Attrs carries per-instance operator attributes (stride, offset, axis, ...)
// that parameterize the TDL description. Attributes never make an index
// expression non-affine: they only set constant coefficients and offsets.
type Attrs map[string]int64

// Get returns attrs[key] or def when absent.
func (a Attrs) Get(key string, def int64) int64 {
	if a == nil {
		return def
	}
	if v, ok := a[key]; ok {
		return v
	}
	return def
}

// DescFn builds the TDL description of an operator instance from its
// attributes. Most operators ignore attrs entirely.
type DescFn func(attrs Attrs) (*OpDesc, error)

// Registry maps operator names to description builders, the way the Tofu
// prototype keeps one TDL description per MXNet operator. Built
// descriptions are memoized per (name, attrs) — they are immutable once
// validated (RegisterStatic always returned a shared instance), and graph
// passes ask for the same handful of descriptions thousands of times.
type Registry struct {
	mu    sync.RWMutex
	desc  map[string]DescFn
	cache map[descCacheKey]*OpDesc
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{desc: make(map[string]DescFn), cache: make(map[descCacheKey]*OpDesc)}
}

// descCacheKey is the memoization signature of an operator instance: its
// name plus the attribute signature.
type descCacheKey struct {
	name  string
	attrs AttrsKey
}

// AttrsKey is a comparable signature of an attribute set: up to four
// (name, value) pairs inlined in sorted order, so building one never
// allocates; larger sets (none exist in the standard operator library)
// spill deterministically into a sorted string. Shared by every pass that
// buckets operator instances by attributes (the description cache here,
// coarsening's node signatures).
type AttrsKey struct {
	N              int
	K0, K1, K2, K3 string
	V0, V1, V2, V3 int64
	Spill          string
}

// MakeAttrsKey builds the signature of an attribute set.
func MakeAttrsKey(attrs Attrs) AttrsKey {
	key := AttrsKey{N: len(attrs)}
	if len(attrs) == 0 {
		return key
	}
	if len(attrs) > 4 {
		keys := make([]string, 0, len(attrs))
		for k := range attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			sb.WriteString(k)
			sb.WriteByte('=')
			sb.WriteString(strconv.FormatInt(attrs[k], 10))
			sb.WriteByte(';')
		}
		key.Spill = sb.String()
		return key
	}
	var ks [4]string
	var vs [4]int64
	i := 0
	for k, v := range attrs {
		j := i
		for j > 0 && ks[j-1] > k {
			ks[j], vs[j] = ks[j-1], vs[j-1]
			j--
		}
		ks[j], vs[j] = k, v
		i++
	}
	key.K0, key.K1, key.K2, key.K3 = ks[0], ks[1], ks[2], ks[3]
	key.V0, key.V1, key.V2, key.V3 = vs[0], vs[1], vs[2], vs[3]
	return key
}

// Matches reports whether k is the signature of attrs. It reads attrs by
// lookup, one per inlined name, without building attrs' own signature; a
// spilled k compares with MakeAttrsKey(attrs).
func (k *AttrsKey) Matches(attrs Attrs) bool {
	if len(attrs) != k.N {
		return false
	}
	if k.Spill != "" {
		return MakeAttrsKey(attrs).Spill == k.Spill
	}
	names, vals := [4]string{k.K0, k.K1, k.K2, k.K3}, [4]int64{k.V0, k.V1, k.V2, k.V3}
	for i := range k.N {
		if v, ok := attrs[names[i]]; !ok || v != vals[i] {
			return false
		}
	}
	return true
}

// Register installs a description builder; duplicate names are an error so
// operator libraries cannot silently shadow one another.
func (r *Registry) Register(name string, fn DescFn) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.desc[name]; dup {
		return fmt.Errorf("tdl: operator %q already registered", name)
	}
	r.desc[name] = fn
	return nil
}

// MustRegister is Register that panics; for init-time operator tables.
func (r *Registry) MustRegister(name string, fn DescFn) {
	if err := r.Register(name, fn); err != nil {
		panic(err)
	}
}

// RegisterStatic installs a fixed description that ignores attributes.
func (r *Registry) RegisterStatic(d *OpDesc) error {
	return r.Register(d.Name, func(Attrs) (*OpDesc, error) { return d, nil })
}

// MustRegisterStatic is RegisterStatic that panics; for the init-time
// operator tables, where a duplicate name is a programming error that must
// not be silently dropped (tofu-vet's errdrop gate enforces this).
func (r *Registry) MustRegisterStatic(d *OpDesc) {
	if err := r.RegisterStatic(d); err != nil {
		panic(err)
	}
}

// Describe returns the TDL description for an operator instance. The
// returned description is shared and must be treated as read-only.
func (r *Registry) Describe(name string, attrs Attrs) (*OpDesc, error) {
	key := descCacheKey{name: name, attrs: MakeAttrsKey(attrs)}
	r.mu.RLock()
	d, hit := r.cache[key]
	fn, ok := r.desc[name]
	r.mu.RUnlock()
	if hit {
		return d, nil
	}
	if !ok {
		return nil, fmt.Errorf("tdl: operator %q has no TDL description", name)
	}
	d, err := fn(attrs)
	if err != nil {
		return nil, fmt.Errorf("tdl: describing %q: %w", name, err)
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.cache[key] = d
	r.mu.Unlock()
	return d, nil
}

// Has reports whether the operator has a registered description.
func (r *Registry) Has(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.desc[name]
	return ok
}

// Names returns all registered operator names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.desc))
	for n := range r.desc {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Std is the default registry holding the standard operator library; it is
// populated by stdops.go at init time.
var Std = NewRegistry()
