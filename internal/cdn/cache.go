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

// Cache is a byte-capacity-bounded object cache. Implementations are not
// safe for concurrent use; each simulated data center owns one cache and
// replay is single-threaded per DC.
type Cache interface {
	// Access looks up the object, admitting it on a miss (subject to the
	// policy) and evicting as needed. It reports whether the access was
	// a hit. now supports time-based policies.
	Access(key Key, size int64, now time.Time) bool
	// Contains reports whether the object is currently cached, without
	// side effects.
	Contains(key Key) bool
	// Push inserts the object without counting an access (used for
	// proactive content placement).
	Push(key Key, size int64, now time.Time)
}

// Key names one cache entry, an object or a video chunk. Slot, its dense
// position in the CDN's slot space (see slotSpace), is what a cache
// indexes its state by: two keys with one Slot are one entry. ID is the
// entry's hashed identity, the object ID or chunkKey's hash of it, which
// a consistent-hash ring places (ShardedCache).
type Key struct {
	ID   uint64
	Slot uint32
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

// queue is the byte-bounded recency list every list-ordered policy is
// built on: LRU, FIFO, both SLRU segments and 2Q's in-queue, main queue
// and ghost history (unit sizes, so its capacity counts keys). Nodes live
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
func (q *queue) Contains(key Key) bool { return q.find(key.Slot) != 0 }

// Push implements Cache.
func (q *queue) Push(key Key, size int64, _ time.Time) {
	if !q.Contains(key) {
		q.insert(key.Slot, size, nil)
	}
}

// Purge removes slot if resident and reports whether it was: SLRU's
// promotion and 2Q's ghost hits move a key out of one queue this way.
func (q *queue) Purge(slot uint32) bool {
	i := q.find(slot)
	if i != 0 {
		q.drop(i)
	}
	return i != 0
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
// objects larger than the whole queue are not admitted. evicted, when
// non-nil, sees each victim's slot.
func (q *queue) insert(slot uint32, size int64, evicted func(slot uint32)) {
	if size > q.capacity {
		return
	}
	for q.bytes+size > q.capacity && q.resident > 0 {
		victim := q.nodes[0].prev
		if evicted != nil {
			evicted(q.nodes[victim].slot)
		}
		q.drop(victim)
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
func (c *LRU) Access(key Key, size int64, _ time.Time) bool {
	if c.touch(key.Slot) {
		return true
	}
	c.insert(key.Slot, size, nil)
	return false
}

// FIFO evicts in insertion order regardless of reuse.
type FIFO struct{ queue }

var _ Cache = (*FIFO)(nil)

// NewFIFO creates a FIFO cache with the given byte capacity.
func NewFIFO(capacity int64) *FIFO { return &FIFO{newQueue(capacity)} }

// Access implements Cache.
func (c *FIFO) Access(key Key, size int64, _ time.Time) bool {
	if c.Contains(key) {
		return true
	}
	c.insert(key.Slot, size, nil)
	return false
}

// heapNode is one resident object of a heapStore.
type heapNode struct {
	size     int64
	freq     float64
	priority float64
	tick     int64 // tie-break: older ticks evict first
	pos      int32 // position in heapStore.heap; on the free list, the next free node
	slot     uint32
}

// heapStore is the byte-bounded priority store both frequency-ordered
// policies are built on, as queue is for the recency-ordered ones: LFU
// and GDSF differ only in the priority they give an object and in what an
// eviction does to later priorities. Nodes live in one slice and a binary
// min-heap of node indices orders them by (priority, tick); every
// operation takes a fresh tick, so the order is total and the victim
// never depends on the heap's layout. Evicted nodes are recycled through
// a free list threaded along pos, so a full cache admits and evicts
// without allocating. index maps a slot to one more than the node
// holding it, 0 for a slot not resident.
type heapStore struct {
	capacity int64
	bytes    int64
	nodes    []heapNode
	heap     []int32 // min-heap of indices into nodes
	free     int32   // head of the recycled-node list; -1 when empty
	index    []int32
	tick     int64
	// priority ranks an object by access frequency and size; the lowest
	// priority is evicted first.
	priority func(freq float64, size int64) float64
	// evicted, when non-nil, sees the priority of each object evicted for
	// space.
	evicted func(priority float64)
}

func newHeapStore(capacity int64, priority func(freq float64, size int64) float64, evicted func(priority float64)) heapStore {
	return heapStore{capacity: capacity, free: -1, priority: priority, evicted: evicted}
}

// find returns the node holding slot, -1 when it is not resident.
func (h *heapStore) find(slot uint32) int32 {
	if int(slot) < len(h.index) {
		return h.index[slot] - 1
	}
	return -1
}

// Access implements Cache.
func (h *heapStore) Access(key Key, size int64, _ time.Time) bool {
	h.tick++
	if i := h.find(key.Slot); i >= 0 {
		n := &h.nodes[i]
		n.freq++
		n.priority = h.priority(n.freq, n.size)
		n.tick = h.tick
		h.fix(int(n.pos))
		return true
	}
	h.insert(key.Slot, size, 1)
	return false
}

// Contains implements Cache.
func (h *heapStore) Contains(key Key) bool { return h.find(key.Slot) >= 0 }

// push admits key, if absent, at the frequency a policy gives an object
// nobody has asked for yet.
func (h *heapStore) push(key Key, size int64, freq float64) {
	h.tick++
	if !h.Contains(key) {
		h.insert(key.Slot, size, freq)
	}
}

// insert admits key, evicting lowest (priority, tick) first until it
// fits; objects larger than the whole store are not admitted. The
// newcomer's priority is taken after the evictions, so a policy whose
// evicted hook moves later priorities (GDSF's inflation) applies to it.
func (h *heapStore) insert(slot uint32, size int64, freq float64) {
	if size > h.capacity {
		return
	}
	for h.bytes+size > h.capacity && len(h.heap) > 0 {
		if h.evicted != nil {
			h.evicted(h.nodes[h.heap[0]].priority)
		}
		h.remove(0)
	}
	i := h.free
	if i >= 0 {
		h.free = h.nodes[i].pos
	} else {
		h.nodes = append(h.nodes, heapNode{})
		i = int32(len(h.nodes) - 1)
	}
	h.nodes[i] = heapNode{size: size, freq: freq, priority: h.priority(freq, size), tick: h.tick, pos: int32(len(h.heap)), slot: slot}
	h.heap = append(h.heap, i)
	h.up(len(h.heap) - 1)
	*at(&h.index, slot) = i + 1
	h.bytes += size
}

// remove takes the node at heap position pos out of the store and
// recycles it.
func (h *heapStore) remove(pos int) {
	last := len(h.heap) - 1
	h.swap(pos, last)
	i := h.heap[last]
	h.heap = h.heap[:last]
	if pos != last {
		h.fix(pos)
	}
	n := &h.nodes[i]
	h.index[n.slot] = 0
	h.bytes -= n.size
	n.pos = h.free
	h.free = i
}

func (h *heapStore) less(a, b int32) bool {
	x, y := &h.nodes[a], &h.nodes[b]
	if x.priority != y.priority {
		return x.priority < y.priority
	}
	return x.tick < y.tick
}

// fix restores heap order after the node at pos alone changed rank.
func (h *heapStore) fix(pos int) {
	h.down(pos)
	h.up(pos) // no-op if down moved it: what came up ranked above its subtree already
}

func (h *heapStore) swap(a, b int) {
	h.heap[a], h.heap[b] = h.heap[b], h.heap[a]
	h.nodes[h.heap[a]].pos, h.nodes[h.heap[b]].pos = int32(a), int32(b)
}

func (h *heapStore) up(pos int) {
	for pos > 0 {
		parent := (pos - 1) / 2
		if !h.less(h.heap[pos], h.heap[parent]) {
			return
		}
		h.swap(pos, parent)
		pos = parent
	}
}

func (h *heapStore) down(pos int) {
	for {
		least := pos
		for child := 2*pos + 1; child <= 2*pos+2 && child < len(h.heap); child++ {
			if h.less(h.heap[child], h.heap[least]) {
				least = child
			}
		}
		if least == pos {
			return
		}
		h.swap(pos, least)
		pos = least
	}
}

// LFU is a least-frequently-used cache with LRU tie-breaking: an
// object's priority is its access count (exact as a float64 far beyond
// any replay's length).
type LFU struct{ heapStore }

var _ Cache = (*LFU)(nil)

// NewLFU creates an LFU cache with the given byte capacity.
func NewLFU(capacity int64) *LFU {
	return &LFU{newHeapStore(capacity, func(freq float64, _ int64) float64 { return freq }, nil)}
}

// Push implements Cache: a pushed object ranks below every accessed one.
func (c *LFU) Push(key Key, size int64, _ time.Time) { c.push(key, size, 0) }

// SLRU is a segmented LRU: objects enter a probationary segment and are
// promoted to a protected segment on re-reference; scans of one-hit
// objects cannot flush popular content.
type SLRU struct {
	probation, protected queue
}

var _ Cache = (*SLRU)(nil)

// NewSLRU creates a segmented LRU with the given total byte capacity;
// protectedFrac of it (typically 0.8) forms the protected segment.
func NewSLRU(capacity int64, protectedFrac float64) (*SLRU, error) {
	if protectedFrac <= 0 || protectedFrac >= 1 {
		return nil, fmt.Errorf("cdn: protectedFrac %v outside (0,1)", protectedFrac)
	}
	prot := int64(float64(capacity) * protectedFrac)
	return &SLRU{
		probation: newQueue(capacity - prot),
		protected: newQueue(prot),
	}, nil
}

// Access implements Cache.
func (c *SLRU) Access(key Key, size int64, _ time.Time) bool {
	if c.protected.touch(key.Slot) {
		return true
	}
	if c.probation.Purge(key.Slot) {
		c.protected.insert(key.Slot, size, nil) // promote on re-reference
		return true
	}
	c.probation.insert(key.Slot, size, nil)
	return false
}

// Contains implements Cache.
func (c *SLRU) Contains(key Key) bool {
	return c.probation.Contains(key) || c.protected.Contains(key)
}

// Push implements Cache.
func (c *SLRU) Push(key Key, size int64, now time.Time) {
	if c.Contains(key) {
		return
	}
	c.probation.Push(key, size, now)
}

// TTLCache wraps another cache with per-entry expiry: an entry older than
// the TTL counts as a miss (revalidation fetch). This models the §V
// suggestion of class-aware revalidation intervals.
type TTLCache struct {
	inner   Cache
	ttl     time.Duration
	expires map[uint32]time.Time // by slot
}

var _ Cache = (*TTLCache)(nil)

// NewTTLCache wraps inner with the given TTL.
func NewTTLCache(inner Cache, ttl time.Duration) (*TTLCache, error) {
	if ttl <= 0 {
		return nil, fmt.Errorf("cdn: TTL must be positive, got %v", ttl)
	}
	return &TTLCache{inner: inner, ttl: ttl, expires: map[uint32]time.Time{}}, nil
}

// Access implements Cache.
func (c *TTLCache) Access(key Key, size int64, now time.Time) bool {
	hit := c.inner.Access(key, size, now)
	if hit {
		if exp, ok := c.expires[key.Slot]; ok && now.After(exp) {
			hit = false // stale: counts as a revalidation miss
		}
	}
	if !hit {
		c.expires[key.Slot] = now.Add(c.ttl)
	}
	return hit
}

// Contains implements Cache.
func (c *TTLCache) Contains(key Key) bool { return c.inner.Contains(key) }

// Push implements Cache.
func (c *TTLCache) Push(key Key, size int64, now time.Time) {
	c.inner.Push(key, size, now)
	if _, ok := c.expires[key.Slot]; !ok {
		c.expires[key.Slot] = now.Add(c.ttl)
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
func (c *SplitCache) Access(key Key, size int64, now time.Time) bool {
	return c.pick(size).Access(key, size, now)
}

// Contains implements Cache.
func (c *SplitCache) Contains(key Key) bool {
	return c.Small.Contains(key) || c.Large.Contains(key)
}

// Push implements Cache.
func (c *SplitCache) Push(key Key, size int64, now time.Time) {
	c.pick(size).Push(key, size, now)
}
