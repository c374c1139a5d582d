package cdn

import (
	"math/rand"
	"testing"
	"time"
)

func TestGDSFFavorsSmallFrequent(t *testing.T) {
	c := NewGDSF(1000)
	// Small object with repeated use.
	for i := 0; i < 5; i++ {
		c.Access(entry(1), 10, t0)
	}
	// Large one-shot objects that would flush an LRU.
	for k := uint64(100); k < 110; k++ {
		c.Access(entry(k), 400, t0)
	}
	if !c.Contains(entry(1)) {
		t.Error("GDSF evicted the small frequent object during a large-object scan")
	}
	if !c.Access(entry(1), 10, t0) {
		t.Error("small frequent object should hit")
	}
	size := func(k uint64) int64 {
		if k == 1 {
			return 10
		}
		return 400
	}
	if _, bytes := resident(c, 110, size); bytes > 1000 {
		t.Errorf("holds %d bytes, capacity 1000", bytes)
	}
}

func TestGDSFOversizedAndPush(t *testing.T) {
	c := NewGDSF(100)
	c.Access(entry(1), 500, t0)
	if c.Contains(entry(1)) {
		t.Error("oversized admitted")
	}
	c.Push(entry(2), 50, t0)
	if !c.Contains(entry(2)) {
		t.Error("push missing")
	}
	c.Push(entry(2), 50, t0) // idempotent
	c.Push(entry(3), 50, t0)
	if !c.Contains(entry(2)) || !c.Contains(entry(3)) {
		t.Error("double push inflated the bytes: two 50-byte objects no longer fit 100")
	}
}

func TestGDSFInflationAllowsNewContent(t *testing.T) {
	c := NewGDSF(100)
	// Fill with a high-frequency object, then churn: inflation must let
	// newer objects eventually displace stale high-priority residents.
	for i := 0; i < 50; i++ {
		c.Access(entry(1), 60, t0)
	}
	for k := uint64(10); k < 200; k++ {
		for i := 0; i < 3; i++ {
			c.Access(entry(k), 60, t0)
		}
	}
	// After massive churn the cache must still be functional and within
	// capacity; the stale object 1 should have been displaced.
	if _, bytes := resident(c, 200, sized(60)); bytes > 100 {
		t.Errorf("holds %d bytes, capacity 100", bytes)
	}
	if c.Contains(entry(1)) {
		t.Error("inflation failed: stale object survived unbounded churn")
	}
}

func TestTwoQScanResistance(t *testing.T) {
	c, err := NewTwoQ(1000, 0.25, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Promote object 1 to main: in -> evicted to ghost -> re-access.
	c.Access(entry(1), 100, t0)
	for k := uint64(50); k < 55; k++ {
		c.Access(entry(k), 100, t0) // flushes 1 out of the 250-byte in-queue
	}
	if c.Contains(entry(1)) {
		t.Fatal("object 1 should have left the in-queue")
	}
	c.Access(entry(1), 100, t0) // ghost hit -> main
	if !c.Contains(entry(1)) {
		t.Fatal("ghost re-reference should admit to main")
	}
	// A long one-hit scan must not evict object 1 from main.
	for k := uint64(1000); k < 1100; k++ {
		c.Access(entry(k), 100, t0)
	}
	if !c.Contains(entry(1)) {
		t.Error("scan evicted the main-queue resident")
	}
}

func TestTwoQValidationAndBasics(t *testing.T) {
	if _, err := NewTwoQ(100, 0, 10); err == nil {
		t.Error("inFrac 0 should error")
	}
	if _, err := NewTwoQ(100, 1, 10); err == nil {
		t.Error("inFrac 1 should error")
	}
	if _, err := NewTwoQ(100, 0.5, 0); err == nil {
		t.Error("ghostN 0 should error")
	}
	c, _ := NewTwoQ(1000, 0.25, 4)
	c.Push(entry(7), 10, t0)
	if !c.Contains(entry(7)) {
		t.Error("push")
	}
	// In-queue re-access hits without promotion.
	c.Access(entry(8), 10, t0)
	if !c.Access(entry(8), 10, t0) {
		t.Error("in-queue re-access should hit")
	}
	// Ghost list stays bounded.
	for k := uint64(100); k < 200; k++ {
		c.Access(entry(k), 240, t0)
	}
	if n := c.ghost.resident; n > 4 {
		t.Errorf("ghost grew to %d", n)
	}
}

func TestTieredCacheParentAbsorbsEdgeMisses(t *testing.T) {
	edge := NewLRU(100)
	parent := NewLRU(10000)
	c := NewTieredCache(edge, parent)
	// Miss everywhere: parent records a miss (origin fetch).
	if c.Access(entry(1), 50, t0) {
		t.Error("cold access hit")
	}
	if c.ParentMisses != 1 || c.ParentHits != 0 {
		t.Errorf("parent stats: %d/%d", c.ParentHits, c.ParentMisses)
	}
	// Evict from the tiny edge, keep in parent.
	c.Access(entry(2), 60, t0) // evicts 1 from edge (100-byte capacity)
	if edge.Contains(entry(1)) {
		t.Fatal("edge should have evicted 1")
	}
	// Edge miss, parent hit.
	if c.Access(entry(1), 50, t0) {
		t.Error("edge-level verdict should be MISS")
	}
	if c.ParentHits != 1 {
		t.Errorf("ParentHits = %d, want 1", c.ParentHits)
	}
	if !c.Contains(entry(2)) {
		t.Error("Contains should cover both tiers")
	}
	c.Push(entry(9), 10, t0)
	if !edge.Contains(entry(9)) || !parent.Contains(entry(9)) {
		t.Error("push should warm both tiers")
	}
}

func TestSharedParentAcrossEdges(t *testing.T) {
	parent := NewLRU(10000)
	e1 := NewTieredCache(NewLRU(100), parent)
	e2 := NewTieredCache(NewLRU(100), parent)
	e1.Access(entry(1), 50, t0) // fills the shared parent
	if e2.Access(entry(1), 50, t0) {
		t.Error("edge 2 verdict should be MISS")
	}
	if e2.ParentHits != 1 {
		t.Errorf("shared parent should absorb edge-2 miss, hits=%d", e2.ParentHits)
	}
}

// The other policies and the composite caches obey the capacity bound
// under random workloads: bounds names each cache whose contents it
// reads (a composite's parts, where one key can sit in two) and its
// capacity. An object has one size, as in a trace.
func TestNewPolicyInvariants(t *testing.T) {
	factories := map[string]func() (c Cache, bounds map[Cache]int64){
		"gdsf": func() (Cache, map[Cache]int64) { c := NewGDSF(500); return c, map[Cache]int64{c: 500} },
		"2q": func() (Cache, map[Cache]int64) {
			c, _ := NewTwoQ(500, 0.25, 64)
			return c, map[Cache]int64{c: 500}
		},
		"tiered": func() (Cache, map[Cache]int64) {
			edge, parent := NewLRU(200), NewLRU(300)
			return NewTieredCache(edge, parent), map[Cache]int64{edge: 200, parent: 300}
		},
		"ttl": func() (Cache, map[Cache]int64) {
			c, _ := NewTTLCache(NewLFU(500), time.Minute)
			return c, map[Cache]int64{c: 500}
		},
		"split": func() (Cache, map[Cache]int64) {
			small := NewLRU(200)
			large, _ := NewSLRU(300, 0.8)
			c, _ := NewSplitCache(small, large, 60)
			return c, map[Cache]int64{small: 200, large: 300}
		},
		"sharded": func() (Cache, map[Cache]int64) {
			bounds := map[Cache]int64{}
			c, _ := NewShardedCache(4, 32, func() Cache { s := NewFIFO(125); bounds[s] = 125; return s })
			return c, bounds
		},
	}
	rng := rand.New(rand.NewSource(9))
	var sizes [64]int64
	for k := range sizes {
		sizes[k] = rng.Int63n(120) + 1
	}
	size := func(k uint64) int64 { return sizes[k] }
	for name, mk := range factories {
		c, bounds := mk()
		for i := 0; i < 5000; i++ {
			key := rng.Uint64() % 64
			c.Access(entry(key), size(key), t0.Add(time.Duration(i)*time.Second))
			for part, capacity := range bounds {
				if _, bytes := resident(part, 64, size); bytes > capacity {
					t.Fatalf("%s: holds %d bytes, capacity %d", name, bytes, capacity)
				}
			}
		}
	}
}
