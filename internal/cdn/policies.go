package cdn

import (
	"fmt"
	"strings"
	"time"
)

// PolicyNames lists the eviction-policy names PolicyFactory accepts, in
// display order.
func PolicyNames() []string {
	return []string{"lru", "lfu", "fifo", "slru", "gdsf", "2q", "split"}
}

// PolicyFactory returns a constructor for the named eviction policy at
// the given per-cache byte capacity — the shared backend for every tool
// that takes a -policy/-policies flag. Composite policies use the same
// fixed parameters throughout the repository: slru protects 80% of
// capacity, 2q probations 25% with a 4096-key ghost list, split routes
// <=1 MiB objects to a 1/12-capacity small-object cache.
func PolicyFactory(name string, capacity int64) (func() Cache, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cdn: cache capacity must be positive, got %d", capacity)
	}
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "lru":
		return func() Cache { return NewLRU(capacity) }, nil
	case "lfu":
		return func() Cache { return NewLFU(capacity) }, nil
	case "fifo":
		return func() Cache { return NewFIFO(capacity) }, nil
	case "slru":
		if _, err := NewSLRU(capacity, 0.8); err != nil {
			return nil, err
		}
		return func() Cache {
			c, _ := NewSLRU(capacity, 0.8) // validated above
			return c
		}, nil
	case "gdsf":
		return func() Cache { return NewGDSF(capacity) }, nil
	case "2q":
		if _, err := NewTwoQ(capacity, 0.25, 4096); err != nil {
			return nil, err
		}
		return func() Cache {
			c, _ := NewTwoQ(capacity, 0.25, 4096) // validated above
			return c
		}, nil
	case "split":
		mk := func() (Cache, error) {
			small := NewLRU(capacity / 12)
			large := NewLRU(capacity - capacity/12)
			return NewSplitCache(small, large, 1<<20)
		}
		if _, err := mk(); err != nil {
			return nil, err
		}
		return func() Cache {
			c, _ := mk() // validated above
			return c
		}, nil
	default:
		return nil, fmt.Errorf("cdn: unknown policy %q (want %s)", name, strings.Join(PolicyNames(), ", "))
	}
}

// GDSF is a Greedy-Dual-Size-Frequency cache: eviction priority is
// inflation + frequency/size, so small, frequently-used objects are
// protected from large one-shot objects — the classic web-cache policy
// for the mixed image/video workloads this repository studies.
type GDSF struct {
	heapStore
	inflate float64 // L: priority floor, raised to each eviction's priority
}

var _ Cache = (*GDSF)(nil)

// NewGDSF creates a GDSF cache with the given byte capacity.
func NewGDSF(capacity int64) *GDSF {
	c := &GDSF{}
	c.heapStore = newHeapStore(capacity, c.priority, c.evicted)
	return c
}

// priority computes L + freq/size (sizes in KiB so priorities stay in a
// numerically comfortable range).
func (c *GDSF) priority(freq float64, size int64) float64 {
	kb := float64(size) / 1024
	if kb < 0.001 {
		kb = 0.001
	}
	return c.inflate + freq/kb
}

// evicted is the inflation step: future insertions compete against the
// value of what was just evicted.
func (c *GDSF) evicted(priority float64) {
	if priority > c.inflate {
		c.inflate = priority
	}
}

// Push implements Cache: a pushed object starts at half an access.
func (c *GDSF) Push(key uint64, size int64, _ time.Time) { c.push(key, size, 0.5) }

// Name implements Cache.
func (c *GDSF) Name() string { return "gdsf" }

// TwoQ is the 2Q cache: a FIFO "in" queue absorbs first-time accesses, a
// ghost "out" queue remembers recently evicted keys (no bytes), and only
// objects re-referenced while in the ghost queue enter the main LRU.
// Like SLRU it resists one-hit scans, but with an explicit ghost history.
type TwoQ struct {
	in, main queue
	ghost    queue // keys only: unit sizes, so capacity bounds the key count
}

var _ Cache = (*TwoQ)(nil)

// NewTwoQ creates a 2Q cache: inFrac of the capacity forms the probation
// FIFO (typically 0.25), ghostN bounds the ghost-key history.
func NewTwoQ(capacity int64, inFrac float64, ghostN int) (*TwoQ, error) {
	if inFrac <= 0 || inFrac >= 1 {
		return nil, fmt.Errorf("cdn: 2Q inFrac %v outside (0,1)", inFrac)
	}
	if ghostN < 1 {
		return nil, fmt.Errorf("cdn: 2Q ghostN %d < 1", ghostN)
	}
	inCap := int64(float64(capacity) * inFrac)
	return &TwoQ{
		in:    newQueue(inCap),
		main:  newQueue(capacity - inCap),
		ghost: newQueue(int64(ghostN)),
	}, nil
}

// Access implements Cache.
func (c *TwoQ) Access(key uint64, size int64, _ time.Time) bool {
	if c.main.touch(key) {
		return true
	}
	if c.in.Contains(key) {
		// 2Q-simplified: a re-reference within the in-queue stays there
		// (hot-for-a-moment objects don't pollute main).
		return true
	}
	if c.ghost.Purge(key) {
		c.main.insert(key, size, nil)
		return false // the bytes were not cached; it is a miss
	}
	// First sight: into the FIFO in-queue; remember evictions as ghosts.
	c.in.insert(key, size, c.addGhost)
	return false
}

func (c *TwoQ) addGhost(key uint64) { c.ghost.Push(key, 1, time.Time{}) }

// Contains implements Cache.
func (c *TwoQ) Contains(key uint64) bool {
	return c.in.Contains(key) || c.main.Contains(key)
}

// Push implements Cache.
func (c *TwoQ) Push(key uint64, size int64, now time.Time) {
	if c.Contains(key) {
		return
	}
	c.main.Push(key, size, now)
}

// Len implements Cache.
func (c *TwoQ) Len() int { return c.in.Len() + c.main.Len() }

// Bytes implements Cache.
func (c *TwoQ) Bytes() int64 { return c.in.Bytes() + c.main.Bytes() }

// Capacity implements Cache.
func (c *TwoQ) Capacity() int64 { return c.in.Capacity() + c.main.Capacity() }

// Name implements Cache.
func (c *TwoQ) Name() string { return "2q" }

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
func (c *TieredCache) Access(key uint64, size int64, now time.Time) bool {
	if c.edge.Access(key, size, now) {
		return true
	}
	if c.parent.Access(key, size, now) {
		c.ParentHits++
		c.ParentHitBytes += size
	} else {
		c.ParentMisses++
	}
	return false
}

// Contains implements Cache.
func (c *TieredCache) Contains(key uint64) bool {
	return c.edge.Contains(key) || c.parent.Contains(key)
}

// ResetStats zeroes the parent-tier counters.
func (c *TieredCache) ResetStats() {
	c.ParentHits, c.ParentHitBytes, c.ParentMisses = 0, 0, 0
}

// Push implements Cache.
func (c *TieredCache) Push(key uint64, size int64, now time.Time) {
	c.edge.Push(key, size, now)
	c.parent.Push(key, size, now)
}

// Len implements Cache.
func (c *TieredCache) Len() int { return c.edge.Len() + c.parent.Len() }

// Bytes implements Cache.
func (c *TieredCache) Bytes() int64 { return c.edge.Bytes() + c.parent.Bytes() }

// Capacity implements Cache.
func (c *TieredCache) Capacity() int64 { return c.edge.Capacity() + c.parent.Capacity() }

// Name implements Cache.
func (c *TieredCache) Name() string {
	return "tiered(" + c.edge.Name() + "<-" + c.parent.Name() + ")"
}
