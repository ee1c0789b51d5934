// Package simcache provides a bounded, concurrency-safe LRU cache of
// per-user similarity: either the whole similarity vector or a smaller
// value derived from it, such as the per-cluster similarity mass a
// cluster release reads (mechanism's fold). Similarity computation is the
// dominant per-request cost when serving recommendations (the sanitized
// release is a table lookup); since the social graph is static for the
// lifetime of an engine (§2.3's snapshot assumption), similarity is
// perfectly cacheable. Caching affects performance only — similarity is
// computed from public data, so no privacy accounting is involved.
package simcache

import (
	"container/list"
	"sync"

	"socialrec/internal/graph"
	"socialrec/internal/similarity"
)

// LRU memoizes, for one (graph, measure) pair, a value derived from each
// user's similarity vector, keeping at most capacity users.
type LRU[V any] struct {
	g        *graph.Social
	m        similarity.Measure
	derive   func(similarity.Scores) V
	capacity int

	mu      sync.Mutex
	order   *list.List // front = most recent; values are *entry[V]
	entries map[int32]*list.Element

	hits, misses, evictions uint64
}

type entry[V any] struct {
	user  int32
	value V
}

// Cache memoizes whole similarity vectors: Measure.Similar results.
type Cache = LRU[similarity.Scores]

// New returns a cache over g and m holding at most capacity vectors;
// capacity < 1 selects 4096.
func New(g *graph.Social, m similarity.Measure, capacity int) *Cache {
	return NewDerived(g, m, capacity, func(s similarity.Scores) similarity.Scores { return s })
}

// NewDerived returns a cache over g and m that keeps derive(sim(u, ·)) for
// at most capacity users instead of the vector itself; capacity < 1
// selects 4096. derive runs once per miss, outside the cache's lock, and
// must not retain the vector if the point is to keep less.
func NewDerived[V any](g *graph.Social, m similarity.Measure, capacity int, derive func(similarity.Scores) V) *LRU[V] {
	if capacity < 1 {
		capacity = 4096
	}
	return &LRU[V]{
		g:        g,
		m:        m,
		derive:   derive,
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[int32]*list.Element, capacity),
	}
}

// Similar returns u's cached value, computing sim(u, ·) and deriving it on
// first use. The returned value must be treated as immutable (it is shared
// between callers).
func (c *LRU[V]) Similar(u int32) V {
	c.mu.Lock()
	if el, ok := c.entries[u]; ok {
		c.order.MoveToFront(el)
		c.hits++
		v := el.Value.(*entry[V]).value
		c.mu.Unlock()
		return v
	}
	c.misses++
	c.mu.Unlock()

	// Compute outside the lock: similarity can be expensive and other
	// users' lookups should not stall behind it. A racing duplicate
	// computation is possible and harmless (both produce the same value).
	v := c.derive(c.m.Similar(c.g, int(u), nil))

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[u]; ok {
		// Lost the race; keep the incumbent.
		c.order.MoveToFront(el)
		return el.Value.(*entry[V]).value
	}
	el := c.order.PushFront(&entry[V]{user: u, value: v})
	c.entries[u] = el
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry[V]).user)
		c.evictions++
	}
	return v
}

// Stats is a point-in-time snapshot of the cache's counters and shape. All
// fields describe cache behaviour only — which users' public similarity is
// resident — so exporting them (e.g. via telemetry gauges) is safe.
type Stats struct {
	// Hits and Misses count Similar calls that found / did not find a
	// cached user.
	Hits, Misses uint64
	// Evictions counts users dropped by the LRU capacity bound.
	Evictions uint64
	// Len is the number of currently cached users; Capacity the bound.
	Len, Capacity int
}

// HitRatio returns Hits / (Hits + Misses), or 0 before any lookups.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats reports the cache's cumulative counters and current occupancy.
func (c *LRU[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Len:       c.order.Len(),
		Capacity:  c.capacity,
	}
}

// Len reports the number of cached users.
func (c *LRU[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
