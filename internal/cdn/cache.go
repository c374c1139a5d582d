// Package cdn simulates the content delivery network the paper observed:
// geographically distributed edge data centers with configurable caches,
// an origin, video chunking, browser-cache (conditional request)
// semantics, and HTTP response-code behaviour. Replaying a synthetic
// trace through the simulator fills in each record's cache status and
// response code, enabling the paper's §V caching analyses (Figs. 15-16)
// and the cache-optimization ablations the paper proposes.
package cdn

import (
	"fmt"
	"time"
)

// Cache is a byte-capacity-bounded object cache. It names an entry, an
// object or a video chunk, by its slot: its dense position in the CDN's
// slot space (see slotSpace). Implementations are not safe for
// concurrent use; each simulated data center owns one cache and replay
// is single-threaded per DC.
type Cache interface {
	// Access looks up the object, admitting it on a miss (subject to the
	// policy) and evicting as needed. It reports whether the access was
	// a hit. now supports time-based policies.
	Access(slot uint32, size int64, now time.Time) bool
	// Contains reports whether the object is currently cached, without
	// side effects.
	Contains(slot uint32) bool
	// Push inserts the object without counting an access (used for
	// proactive content placement).
	Push(slot uint32, size int64, now time.Time)
}

// at returns &(*s)[i], growing *s with zero values to reach it: to at
// least twice its length, so that growing a slot index to n entries
// allocates O(log n) times.
func at[T any](s *[]T, i uint32) *T {
	if int(i) >= len(*s) {
		grown := make([]T, max(int(i)+1, 2*len(*s), 256))
		copy(grown, *s)
		*s = grown
	}
	return &(*s)[i]
}

// node is one resident object of a queue, linked by slice index.
type node struct {
	size       int64
	slot       uint32
	prev, next int32
}

// queue is the byte-bounded recency list LRU is built on. Nodes live
// in one slice and link by index — nodes[0] is the sentinel, whose next
// is the newest entry and whose prev is the eviction victim — and evicted
// nodes are recycled through a free list threaded along next, so a full
// cache inserts and evicts without allocating. index maps a slot to the
// node holding it, 0 for a slot not resident.
type queue struct {
	capacity int64
	bytes    int64
	nodes    []node
	free     int32 // head of the recycled-node list; 0 when empty
	index    []int32
	resident int
}

func newQueue(capacity int64) queue {
	return queue{capacity: capacity, nodes: make([]node, 1)}
}

// find returns the node holding slot, 0 when it is not resident.
func (q *queue) find(slot uint32) int32 {
	if int(slot) < len(q.index) {
		return q.index[slot]
	}
	return 0
}

// Contains implements Cache.
func (q *queue) Contains(slot uint32) bool { return q.find(slot) != 0 }

// Push implements Cache.
func (q *queue) Push(slot uint32, size int64, _ time.Time) {
	if !q.Contains(slot) {
		q.insert(slot, size)
	}
}

// touch moves slot to the front if resident and reports whether it was.
func (q *queue) touch(slot uint32) bool {
	i := q.find(slot)
	if i != 0 && q.nodes[0].next != i {
		q.unlink(i)
		q.linkFront(i)
	}
	return i != 0
}

// insert admits slot at the front, evicting from the back until it fits;
// objects larger than the whole queue are not admitted.
func (q *queue) insert(slot uint32, size int64) {
	if size > q.capacity {
		return
	}
	for q.bytes+size > q.capacity && q.resident > 0 {
		q.drop(q.nodes[0].prev)
	}
	i := q.free
	if i != 0 {
		q.free = q.nodes[i].next
	} else {
		q.nodes = append(q.nodes, node{})
		i = int32(len(q.nodes) - 1)
	}
	q.nodes[i].slot, q.nodes[i].size = slot, size
	q.linkFront(i)
	*at(&q.index, slot) = i
	q.bytes += size
	q.resident++
}

// drop removes node i from the queue and recycles it.
func (q *queue) drop(i int32) {
	q.unlink(i)
	q.index[q.nodes[i].slot] = 0
	q.bytes -= q.nodes[i].size
	q.resident--
	q.nodes[i].next = q.free
	q.free = i
}

func (q *queue) unlink(i int32) {
	n := &q.nodes[i]
	q.nodes[n.prev].next = n.next
	q.nodes[n.next].prev = n.prev
}

func (q *queue) linkFront(i int32) {
	first := q.nodes[0].next
	q.nodes[i].prev, q.nodes[i].next = 0, first
	q.nodes[first].prev = i
	q.nodes[0].next = i
}

// LRU is a least-recently-used cache.
type LRU struct{ queue }

var _ Cache = (*LRU)(nil)

// NewLRU creates an LRU cache with the given byte capacity.
func NewLRU(capacity int64) *LRU { return &LRU{newQueue(capacity)} }

// Access implements Cache.
func (c *LRU) Access(slot uint32, size int64, _ time.Time) bool {
	if c.touch(slot) {
		return true
	}
	c.insert(slot, size)
	return false
}

// TTLCache wraps another cache with per-entry expiry: an entry older than
// the TTL counts as a miss (revalidation fetch). This models the §V
// suggestion of class-aware revalidation intervals.
type TTLCache struct {
	inner   Cache
	ttl     time.Duration
	expires []deadline // by slot; the zero deadline marks none
}

var _ Cache = (*TTLCache)(nil)

// NewTTLCache wraps inner with the given TTL.
func NewTTLCache(inner Cache, ttl time.Duration) (*TTLCache, error) {
	if ttl <= 0 {
		return nil, fmt.Errorf("cdn: TTL must be positive, got %v", ttl)
	}
	return &TTLCache{inner: inner, ttl: ttl}, nil
}

// Access implements Cache.
func (c *TTLCache) Access(slot uint32, size int64, now time.Time) bool {
	hit := c.inner.Access(slot, size, now)
	exp := at(&c.expires, slot)
	if hit && *exp != (deadline{}) && exp.before(now) {
		hit = false // stale: counts as a revalidation miss
	}
	if !hit {
		*exp = deadlineOf(now.Add(c.ttl))
	}
	return hit
}

// Contains implements Cache.
func (c *TTLCache) Contains(slot uint32) bool { return c.inner.Contains(slot) }

// Push implements Cache.
func (c *TTLCache) Push(slot uint32, size int64, now time.Time) {
	c.inner.Push(slot, size, now)
	if exp := at(&c.expires, slot); *exp == (deadline{}) {
		*exp = deadlineOf(now.Add(c.ttl))
	}
}

// SplitCache routes objects at or below Threshold bytes to the Small
// cache and larger ones to the Large cache — the paper's §IV-B
// implication: "ISPs/CDNs can employ separate caching platforms to
// optimally serve small and large sized objects".
type SplitCache struct {
	Small, Large Cache
	Threshold    int64
}

var _ Cache = (*SplitCache)(nil)

// NewSplitCache builds a split cache with the given size threshold.
func NewSplitCache(small, large Cache, threshold int64) (*SplitCache, error) {
	if threshold <= 0 {
		return nil, fmt.Errorf("cdn: split threshold must be positive, got %d", threshold)
	}
	return &SplitCache{Small: small, Large: large, Threshold: threshold}, nil
}

func (c *SplitCache) pick(size int64) Cache {
	if size <= c.Threshold {
		return c.Small
	}
	return c.Large
}

// Access implements Cache.
func (c *SplitCache) Access(slot uint32, size int64, now time.Time) bool {
	return c.pick(size).Access(slot, size, now)
}

// Contains implements Cache.
func (c *SplitCache) Contains(slot uint32) bool {
	return c.Small.Contains(slot) || c.Large.Contains(slot)
}

// Push implements Cache.
func (c *SplitCache) Push(slot uint32, size int64, now time.Time) {
	c.pick(size).Push(slot, size, now)
}

// TieredCache models an edge cache backed by a regional parent (origin
// shield): an edge miss consults the parent before the origin. Parent
// hits avoid origin traffic but still count as edge misses for the
// edge's own hit ratio — exactly how CDN hierarchies report. So the DC's
// OriginBytes count every byte the edge missed: the origin sent
// OriginBytes − ParentHitBytes of them. The counters are zeroed with the
// DC's stats (CDN.ResetStats).
type TieredCache struct {
	edge, parent Cache
	// ParentHits counts edge misses absorbed by the parent tier, and
	// ParentHitBytes their bytes.
	ParentHits     int64
	ParentHitBytes int64
	// ParentMisses counts requests that fell through to the origin.
	ParentMisses int64
}

var _ Cache = (*TieredCache)(nil)

// NewTieredCache builds a two-tier cache. The parent is typically shared
// across edges; pass the same parent Cache to several TieredCaches to
// model that (single-threaded replay only).
func NewTieredCache(edge, parent Cache) *TieredCache {
	return &TieredCache{edge: edge, parent: parent}
}

// Access implements Cache. The return value reflects the *edge* tier.
func (c *TieredCache) Access(slot uint32, size int64, now time.Time) bool {
	if c.edge.Access(slot, size, now) {
		return true
	}
	if c.parent.Access(slot, size, now) {
		c.ParentHits++
		c.ParentHitBytes += size
	} else {
		c.ParentMisses++
	}
	return false
}

// Contains implements Cache.
func (c *TieredCache) Contains(slot uint32) bool {
	return c.edge.Contains(slot) || c.parent.Contains(slot)
}

// ResetStats zeroes the parent-tier counters.
func (c *TieredCache) ResetStats() {
	c.ParentHits, c.ParentHitBytes, c.ParentMisses = 0, 0, 0
}

// Push implements Cache.
func (c *TieredCache) Push(slot uint32, size int64, now time.Time) {
	c.edge.Push(slot, size, now)
	c.parent.Push(slot, size, now)
}
