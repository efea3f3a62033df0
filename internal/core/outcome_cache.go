package core

import (
	"container/list"
	"math"
	"sync"

	"repro/internal/query"
)

// This file implements the serving tier's deterministic outcome cache.
// Discovery outcomes are bit-for-bit deterministic by construction:
// the same compiled artifact, strategy, grid point, worker count, and
// fault substream produce a deep-equal Outcome (pinned by the
// differential suites), so unlike an ordinary database result cache a
// semantic outcome cache here is *provably* correct — provided the key
// captures every input the execution depends on. OutcomeKey enumerates
// exactly those inputs; anything that can change the outcome must
// appear in it, and the lazy-ESS refinement epoch is the one input that
// mutates behind a stable signature.

// OutcomeKey identifies one deterministic discovery execution. Two
// requests with equal keys are guaranteed to produce deep-equal
// outcomes and byte-identical JSON responses.
type OutcomeKey struct {
	// SigHash is the workload's extended artifact signature
	// (query.Sign + Extend over EPP/res/scale) — it already pins the
	// SQL shape, grid geometry, and catalog scale.
	SigHash uint64
	// Workload is the tenant name the response echoes; two tenants can
	// share a signature (and artifact) yet serve distinct responses.
	Workload string
	// Strategy is the resolved strategy name ("spillbound", "parqo",
	// ...) — algorithm aliases resolve to it before keying.
	Strategy string
	// QA is the grid-point ordinal the discovery targets.
	QA int
	// ExecWorkers is the per-request intra-query worker count (0 =
	// server default). The merged meter is worker-count independent,
	// but exec parallelism degradations are not, so it keys.
	ExecWorkers int
	// FaultSeed and FaultRate pin the deterministic fault substream.
	// Both are zero when the request runs unarmed.
	FaultSeed uint64
	FaultRate float64
	// Lambda is the compiled artifact's cost-model λ.
	Lambda float64
	// Epoch is the workload's ESS refinement epoch at execution time.
	// Lazy-mode online refinement bumps it, invalidating every entry
	// computed against the older contour surface. Eager spaces are
	// frozen at epoch 0.
	Epoch uint64
}

// Hash folds the key into a single 64-bit cache key by extending the
// artifact signature with the request coordinates — the same FNV-1a
// construction query.Signature.Extend uses, so replicas derive
// identical hashes. Collisions are guarded by full-key equality on
// lookup, not by the hash alone.
func (k OutcomeKey) Hash() uint64 {
	return query.Signature{Hash: k.SigHash}.
		Extend(k.Workload, k.Strategy).
		ExtendUint64(
			uint64(int64(k.QA)),
			uint64(int64(k.ExecWorkers)),
			k.FaultSeed,
			math.Float64bits(k.FaultRate),
			math.Float64bits(k.Lambda),
			k.Epoch,
		).Hash
}

// CachedOutcome is one cache value: the exact JSON response bytes
// served for a discovery, so a hit bypasses both the admission-slot
// execution and the re-encode. Body is immutable once cached and must
// never be mutated by readers (it is written to responses directly,
// zero-copy).
type CachedOutcome struct {
	Body []byte
}

// OutcomeCache is a byte-budgeted LRU over deterministic discovery
// outcomes, sibling of ArtifactCache. Keys are OutcomeKey hashes with
// full-key equality verification; values are immutable CachedOutcome
// entries. Like the artifact cache it never evicts the entry just
// inserted, so an undersized budget degrades to single-entry reuse
// rather than thrash.
type OutcomeCache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	ll     *list.List // front = most recently used
	items  map[uint64]*list.Element

	// admit/admitPrev form the doorkeeper: a two-generation set of
	// key hashes that have missed recently. A key is admitted into the
	// cache only on its second miss within the doorkeeper's window, so
	// a stream of never-repeating requests retains nothing — an
	// all-miss workload must not trade its own GC pressure for cache
	// entries nobody will read. Each generation holds admitGen hashes
	// (8 bytes each); when the current one fills it becomes the
	// previous and a fresh one starts, bounding memory while keeping
	// recent history.
	admit, admitPrev map[uint64]struct{}

	hits, misses, evictions, inserts int64
}

// admitGen is the doorkeeper generation size: how many distinct missed
// keys are remembered before the window slides.
const admitGen = 1 << 14

type outcomeEntry struct {
	hash uint64
	key  OutcomeKey
	val  *CachedOutcome
	size int64
}

// NewOutcomeCache creates a cache with the given byte budget. A
// non-positive budget gets a 64 MiB default — outcome entries are far
// smaller than compiled artifacts.
func NewOutcomeCache(budget int64) *OutcomeCache {
	if budget <= 0 {
		budget = 64 << 20
	}
	return &OutcomeCache{
		budget: budget,
		ll:     list.New(),
		items:  make(map[uint64]*list.Element),
		admit:  make(map[uint64]struct{}),
	}
}

// Get returns the cached outcome for the key, marking it most recently
// used. A hash collision with a different full key counts as a miss —
// determinism must never serve a wrong-key body.
func (c *OutcomeCache) Get(key OutcomeKey) (*CachedOutcome, bool) {
	h := key.Hash()
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[h]
	if !ok || el.Value.(*outcomeEntry).key != key {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*outcomeEntry).val, true
}

// Put offers the outcome under the key. A key not seen by the
// doorkeeper yet is recorded and rejected (admitted=false) — it gets
// in on its next miss. An admitted insert evicts least-recently-used
// entries until the cache is back within budget (never the entry just
// inserted); a key already resident is always replaced in place.
func (c *OutcomeCache) Put(key OutcomeKey, val *CachedOutcome) (evicted int, admitted bool) {
	h := key.Hash()
	size := EstimateOutcomeBytes(val)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[h]; ok {
		e := el.Value.(*outcomeEntry)
		c.bytes += size - e.size
		e.key, e.val, e.size = key, val, size
		c.ll.MoveToFront(el)
	} else {
		if !c.doorkeeper(h) {
			return 0, false
		}
		c.items[h] = c.ll.PushFront(&outcomeEntry{hash: h, key: key, val: val, size: size})
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

// doorkeeper reports whether the hash has missed recently (admit it),
// recording it for next time when it has not. Caller holds c.mu.
func (c *OutcomeCache) doorkeeper(h uint64) bool {
	if _, ok := c.admit[h]; ok {
		return true
	}
	if _, ok := c.admitPrev[h]; ok {
		return true
	}
	if len(c.admit) >= admitGen {
		c.admitPrev = c.admit
		c.admit = make(map[uint64]struct{})
	}
	c.admit[h] = struct{}{}
	return false
}

// Evict removes the entry for the key, reporting whether one existed.
// The outcome.evict chaos site calls this to simulate memory pressure
// deterministically.
func (c *OutcomeCache) Evict(key OutcomeKey) bool {
	h := key.Hash()
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[h]
	if !ok || el.Value.(*outcomeEntry).key != key {
		return false
	}
	c.remove(el)
	c.evictions++
	return true
}

func (c *OutcomeCache) remove(el *list.Element) {
	e := el.Value.(*outcomeEntry)
	c.ll.Remove(el)
	delete(c.items, e.hash)
	c.bytes -= e.size
}

// Len returns the number of cached outcomes.
func (c *OutcomeCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots the cache counters and occupancy.
func (c *OutcomeCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Inserts: c.inserts, Entries: c.ll.Len(),
		Bytes: c.bytes, Budget: c.budget,
	}
}

// EstimateOutcomeBytes approximates the resident size of a cached
// outcome for budget accounting: the response body plus a fixed
// per-entry overhead (entry struct, list element, map slot). Like
// EstimateArtifactBytes, only consistency and monotonicity matter, not
// exactness.
func EstimateOutcomeBytes(v *CachedOutcome) int64 {
	if v == nil {
		return 0
	}
	const fixedOverhd = 256
	return int64(len(v.Body)) + fixedOverhd
}
