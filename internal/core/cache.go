package core

import (
	"container/list"
	"sync"
)

// LRU is the serving tier's one byte-budgeted cache: a strict-LRU map
// from K to immutable values of type V, evicted by recency of Get/Put
// when the summed entry sizes exceed the budget. Budgets are in bytes
// rather than entries because entry sizes vary by orders of magnitude
// (artifacts across grid resolutions, outcome bodies across traces).
//
// The newest entry is always retained even when it alone exceeds the
// budget: evicting what was just inserted would turn an undersized
// budget into a recompute storm, the exact failure mode the cache
// exists to absorb. An optional admission gate decides whether a key
// not yet resident may enter at all (a resident key is always replaced
// in place); it runs under the cache lock, so it needs none of its own.
//
// Two instantiations exist: NewArtifactCache (compiled artifacts by
// signature hash) and NewOutcomeCache (encoded discovery outcomes by
// OutcomeKey, behind a doorkeeper).
type LRU[K comparable, V any] struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ll     *list.List // front = most recently used
	items  map[K]*list.Element
	admit  func(K) bool // nil admits every key

	hits, misses, evictions, inserts int64
}

type lruEntry[K comparable, V any] struct {
	key  K
	val  V
	size int64
}

// CacheStats is a point-in-time snapshot of cache activity.
type CacheStats struct {
	Hits, Misses, Evictions, Inserts int64
	Entries                          int
	Bytes, Budget                    int64
}

// newLRU creates a cache with the given byte budget; a non-positive
// budget gets def.
func newLRU[K comparable, V any](budget, def int64, admit func(K) bool) *LRU[K, V] {
	if budget <= 0 {
		budget = def
	}
	return &LRU[K, V]{
		budget: budget,
		ll:     list.New(),
		items:  make(map[K]*list.Element),
		admit:  admit,
	}
}

// NewArtifactCache creates the signature-keyed cache of Compiled
// artifacts — the serving tier's defense against paying one compile
// per process per workload. Keys are query-signature hashes (see
// query.Sign/Extend); values are immutable and safe to share across
// any number of concurrent runs, so a hit hands the caller the same
// pointer every other tenant of that signature is using. A
// non-positive budget gets a 256 MiB default.
func NewArtifactCache(budget int64) *LRU[uint64, *Compiled] {
	return newLRU[uint64, *Compiled](budget, 256<<20, nil)
}

// Get returns the cached value for the key, marking it most recently
// used.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// Peek returns the cached value without counting a hit or miss and
// without touching recency. Observability paths (status endpoints,
// snapshot streaming) use it so probes don't skew the cache statistics
// or the eviction order the serving path depends on.
func (c *LRU[K, V]) Peek(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	return el.Value.(*lruEntry[K, V]).val, true
}

// Put offers the value under the key with the given size estimate. A
// resident key is replaced in place; a new key must pass the admission
// gate (admitted=false when it does not, and nothing changes). An
// admitted Put then evicts least-recently-used entries until the cache
// is back within budget, never the entry just written, and returns how
// many it evicted.
func (c *LRU[K, V]) Put(key K, val V, size int64) (evicted int, admitted bool) {
	if size < 0 {
		size = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*lruEntry[K, V])
		c.bytes += size - e.size
		e.val, e.size = val, size
		c.ll.MoveToFront(el)
	} else {
		if c.admit != nil && !c.admit(key) {
			return 0, false
		}
		c.items[key] = c.ll.PushFront(&lruEntry[K, V]{key: key, val: val, size: size})
		c.bytes += size
		c.inserts++
	}
	for c.bytes > c.budget && c.ll.Len() > 1 {
		c.remove(c.ll.Back())
		c.evictions++
		evicted++
	}
	return evicted, true
}

// Evict removes the entry for the key, reporting whether one existed.
// The serving tier's cache-evict chaos sites call this to simulate
// memory pressure deterministically.
func (c *LRU[K, V]) Evict(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.remove(el)
	c.evictions++
	return true
}

func (c *LRU[K, V]) remove(el *list.Element) {
	e := el.Value.(*lruEntry[K, V])
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.size
}

// Len returns the number of cached entries.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots the cache counters and occupancy.
func (c *LRU[K, V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Inserts: c.inserts, Entries: c.ll.Len(),
		Bytes: c.bytes, Budget: c.budget,
	}
}

// EstimateArtifactBytes approximates the resident size of a compiled
// artifact for cache accounting: the per-point plan/cost arrays
// dominate, plus a conservative per-plan allowance for the plan trees
// and planner state. Exactness does not matter — the budget only needs
// a consistent, monotone measure so eviction pressure tracks reality.
func EstimateArtifactBytes(c *Compiled) int64 {
	if c == nil {
		return 0
	}
	g := c.Source.Geometry()
	points := int64(g.NumPoints())
	plans := int64(c.Source.NumPlans())
	const (
		perPoint    = 12  // int32 plan id + float64 cost
		perPlan     = 512 // plan tree + pool bookkeeping
		fixedOverhd = 1 << 14
	)
	return points*perPoint + plans*perPlan + fixedOverhd
}
