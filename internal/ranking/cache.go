// Result caching for the batched Recommend pipeline. A Top-k-Pkg result is
// a pure function of (index, weight vector, search options): feedback
// changes which samples are in the pool, not what any vector's top-k is.
// Samples that survive a feedback round therefore reuse last round's
// packages instead of re-searching — the result-reuse observation behind
// §6's incremental maintenance, applied to the serving hot path.
package ranking

import (
	"container/list"
	"sync"

	"toppkg/internal/search"
)

// DefaultCacheSize is the entry bound applied when NewCache is given a
// non-positive capacity.
const DefaultCacheSize = 4096

// Cache is a thread-safe LRU over per-weight-vector search results, shared
// by every engine serving one catalogue (results depend only on the shared
// immutable index). Callers key every entry by the catalogue epoch its
// index was built from (see newSearcher), and that key alone keeps a
// result from being served for another epoch: a cache serves one
// catalogue, whose epoch IDs never repeat, so a Put from a search pinned
// to a superseded epoch lands under keys no later Get asks for. The owner
// of a live catalogue calls Invalidate on every swap only to free the dead
// entries. Cached results are handed out by reference and must be treated
// as immutable by callers.
type Cache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // of *cacheEntry; front = most recently used
	m   map[string]*list.Element

	hits, misses, evictions, invalidationDrops uint64
}

type cacheEntry struct {
	key string
	res search.Result
}

// CacheStats is a point-in-time copy of the cache counters.
type CacheStats struct {
	// Size is the resident entry count; Capacity the LRU bound.
	Size     int `json:"size"`
	Capacity int `json:"capacity"`
	// Hits/Misses count Get outcomes; Evictions counts LRU drops.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// InvalidationDrops counts entries dropped by Invalidate calls. Together
	// with Evictions it accounts for every entry that ever left the cache.
	InvalidationDrops uint64 `json:"invalidation_drops"`
	// Retained, ReconcileDrops and Revived are always zero: the cache no
	// longer carries entries across catalogue epochs. The fields remain only
	// because the frozen bench/run.go still reads them; the next benchmark
	// PR drops those reads and these fields together.
	Retained       uint64 `json:"-"`
	ReconcileDrops uint64 `json:"-"`
	Revived        uint64 `json:"-"`
}

// NewCache returns an empty cache bounded to capacity entries
// (DefaultCacheSize when capacity <= 0).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &Cache{cap: capacity, ll: list.New(), m: make(map[string]*list.Element)}
}

// Invalidate drops every entry, counting them in InvalidationDrops — e.g.
// when the catalogue swaps in a new epoch, whose keys no entry matches.
func (c *Cache) Invalidate() {
	c.mu.Lock()
	c.invalidationDrops += uint64(c.ll.Len())
	c.ll.Init()
	c.m = make(map[string]*list.Element)
	c.mu.Unlock()
}

// Get returns the cached result for key. The result is shared: callers
// must not mutate it or anything it references.
func (c *Cache) Get(key string) (search.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		c.misses++
		return search.Result{}, false
	}
	c.hits++
	c.ll.MoveToFront(e)
	return e.Value.(*cacheEntry).res, true
}

// Put stores a result under key, evicting the least recently used entry
// beyond capacity. The cache takes shared ownership: the caller must not
// mutate res or anything it references afterwards.
func (c *Cache) Put(key string, res search.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		c.ll.MoveToFront(e)
		e.Value.(*cacheEntry).res = res
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		ent := c.ll.Remove(back).(*cacheEntry)
		delete(c.m, ent.key)
		c.evictions++
	}
}

// Len reports the resident entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a point-in-time copy of the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Size:              c.ll.Len(),
		Capacity:          c.cap,
		Hits:              c.hits,
		Misses:            c.misses,
		Evictions:         c.evictions,
		InvalidationDrops: c.invalidationDrops,
	}
}
