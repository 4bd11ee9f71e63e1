package engine

import (
	"sync"

	"samplecf/internal/core"
)

// cacheKey identifies one estimation result: everything that changes the
// outcome of a SampleCF run must appear here. Table identity is the
// catalog contract — process-unique instance id plus version epoch — so a
// mutation invalidates every prior entry by key inequality alone, and no
// table content is ever read to build a key.
type cacheKey struct {
	inst     uint64 // catalog.Table.InstanceID
	epoch    uint64 // catalog.Table.Epoch at request time
	columns  string // "\x00"-joined key column names
	codec    string
	fraction float64
	rows     int64
	seed     uint64
	pageSize int
	// fresh separates results computed from a forced direct draw
	// (Request.FreshSample) from maintained-sample results, so a fresh
	// request can never be answered with a maintained-sample estimate.
	fresh bool
	// shard scopes the entry to one shard of a partitioned table (wholeTable
	// for unsharded results). Per-shard entries carry the LOGICAL table's
	// inst, the shard's index, and the shard's own epoch, while fraction,
	// rows, and seed stay request-level: the shard's allocated sub-sample
	// size is a deterministic function of (request, shard-count snapshot),
	// and a cached shard estimate remains a valid unbiased CF_h estimate
	// even when churn elsewhere has shifted the proportional allocation —
	// that is exactly what lets untouched shards keep serving hits while a
	// hot shard's epoch races ahead.
	shard int
	// strata is Request.Strata (0 for unstratified entries): the strata
	// count changes the draw streams and the composed estimate, so it is
	// part of the outcome identity.
	strata int
}

// wholeTable is the cacheKey.shard value of unsharded (whole-table)
// entries; real shard indices are ≥ 0.
const wholeTable = -1

// lru is a fixed-capacity least-recently-used map, the one eviction
// structure behind the engine's result, precision, partition and stale
// caches. A zero capacity disables it: Get always misses and Put
// stores nothing. When clone is set, values are copied on the way in and
// out, so no caller shares a resident value.
type lru[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	clone    func(V) V
	items    map[K]*lruNode[K, V]
	root     lruNode[K, V] // sentinel: root.next is the most recent entry, root.prev the least
}

type lruNode[K comparable, V any] struct {
	key        K
	val        V
	prev, next *lruNode[K, V]
}

func newLRU[K comparable, V any](capacity int, clone func(V) V) *lru[K, V] {
	if capacity < 0 {
		capacity = 0
	}
	c := &lru[K, V]{capacity: capacity, clone: clone, items: make(map[K]*lruNode[K, V], capacity)}
	c.root.next, c.root.prev = &c.root, &c.root
	return c
}

// Get returns key's value when one is resident and accept (nil accepts
// any) takes it; only an accepted value becomes the most recent.
func (c *lru[K, V]) Get(key K, accept func(V) bool) (V, bool) {
	var zero V
	if c.capacity == 0 {
		return zero, false
	}
	c.mu.Lock()
	n, ok := c.items[key]
	if !ok || (accept != nil && !accept(n.val)) {
		c.mu.Unlock()
		return zero, false
	}
	c.moveToFront(n)
	v := n.val
	c.mu.Unlock()
	if c.clone != nil {
		v = c.clone(v)
	}
	return v, true
}

// Put stores v under key, unless a value is resident and keep (nil keeps
// nothing) keeps it; either way key becomes the most recent. keep runs
// under the cache lock, so a check-and-replace is atomic. Put returns the
// number of entries it evicted (0 or 1).
func (c *lru[K, V]) Put(key K, v V, keep func(old V) bool) int {
	if c.capacity == 0 {
		return 0
	}
	if c.clone != nil {
		v = c.clone(v)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n, ok := c.items[key]; ok {
		if keep == nil || !keep(n.val) {
			n.val = v
		}
		c.moveToFront(n)
		return 0
	}
	n := &lruNode[K, V]{key: key, val: v}
	c.items[key] = n
	c.link(n)
	if len(c.items) <= c.capacity {
		return 0
	}
	oldest := c.root.prev
	c.unlink(oldest)
	delete(c.items, oldest.key)
	return 1
}

// Len reports the current entry count.
func (c *lru[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

func (c *lru[K, V]) link(n *lruNode[K, V]) {
	n.prev, n.next = &c.root, c.root.next
	n.next.prev = n
	c.root.next = n
}

func (c *lru[K, V]) unlink(n *lruNode[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
}

func (c *lru[K, V]) moveToFront(n *lruNode[K, V]) {
	c.unlink(n)
	c.link(n)
}

// precisionKey identifies the family of adaptive estimates a cached
// precision entry can answer: everything that changes the estimand, but —
// deliberately — not the sample size, fraction, or seed. A precision-
// targeted request asks for an accuracy, not a specific sample, so any
// entry for the same (instance, epoch, columns, codec, page size,
// freshness) whose achieved interval is at least as tight dominates it.
type precisionKey struct {
	inst     uint64
	epoch    uint64
	columns  string // "\x00"-joined key column names
	codec    string
	pageSize int
	fresh    bool
	// epochs is the packed per-shard epoch vector of a partitioned table
	// ("" for unsharded). The summed epoch alone could alias two distinct
	// vectors (one shard +2 vs. two shards +1 each); the vector cannot.
	epochs string
	// strata is Request.Strata (0 for unstratified entries). Stratified and
	// unstratified adaptive results estimate the same CF, but their CI
	// machinery differs (composed vs. whole-sample variance), so dominance
	// is only claimed within one strata setting.
	strata int
}

// precisionEntry is one cached adaptive outcome. The precision cache is
// the adaptive complement of the result cache: per precisionKey it holds
// the tightest estimate achieved so far, and lookups are by dominance — a
// request is a hit when the stored interval, rescaled to the request's
// confidence, is within the requested target error — so an entry computed
// at ±1% keeps satisfying ±5% traffic without resampling.
type precisionEntry struct {
	est core.Estimate
	// sdScale is the confidence-free size of the achieved interval: the
	// half-width at confidence z is sdScale·z (Theorem 1: 1/(2√r);
	// bootstrap: SD). Storing the scale rather than a half-width lets one
	// entry answer requests at any confidence level.
	sdScale float64
	rounds  int
}

func clonePrecision(p precisionEntry) precisionEntry {
	p.est = cloneEstimate(p.est)
	return p
}

// precisionHit returns the cached entry for key if it dominates a request
// with the given z multiplier and target half-width.
func (e *Engine) precisionHit(key precisionKey, z, targetError float64) (precisionEntry, bool) {
	return e.precision.Get(key, func(p precisionEntry) bool { return p.sdScale*z <= targetError })
}

// publishPrecision stores an adaptive outcome for dominance reuse, stored
// confidence-free (half-width ÷ z) so one entry answers asks at any
// confidence level. A looser result never replaces a tighter resident
// one: dominance is one-directional.
func (e *Engine) publishPrecision(key precisionKey, res core.AdaptiveResult, confidence float64) {
	sdScale := res.AchievedError / zFor(confidence)
	e.precision.Put(key, precisionEntry{est: res.Estimate, sdScale: sdScale, rounds: res.Rounds},
		func(old precisionEntry) bool { return old.sdScale <= sdScale })
}

// cloneEstimate copies the one mutable field of an Estimate (the profile's
// frequency map); everything else is value-typed.
func cloneEstimate(est core.Estimate) core.Estimate {
	f := make(map[int64]int64, len(est.Profile.F))
	for k, v := range est.Profile.F {
		f[k] = v
	}
	est.Profile.F = f
	return est
}
