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
		c.Access(1, 10, t0)
	}
	// Large one-shot objects that would flush an LRU.
	for k := uint64(100); k < 110; k++ {
		c.Access(k, 400, t0)
	}
	if !c.Contains(1) {
		t.Error("GDSF evicted the small frequent object during a large-object scan")
	}
	if !c.Access(1, 10, t0) {
		t.Error("small frequent object should hit")
	}
	if c.Name() != "gdsf" {
		t.Error("name")
	}
	if c.Bytes() > c.Capacity() {
		t.Error("capacity exceeded")
	}
}

func TestGDSFOversizedAndPush(t *testing.T) {
	c := NewGDSF(100)
	c.Access(1, 500, t0)
	if c.Len() != 0 {
		t.Error("oversized admitted")
	}
	c.Push(2, 50, t0)
	if !c.Contains(2) {
		t.Error("push missing")
	}
	c.Push(2, 50, t0) // idempotent
	if c.Bytes() != 50 {
		t.Errorf("bytes = %d", c.Bytes())
	}
}

func TestGDSFInflationAllowsNewContent(t *testing.T) {
	c := NewGDSF(100)
	// Fill with a high-frequency object, then churn: inflation must let
	// newer objects eventually displace stale high-priority residents.
	for i := 0; i < 50; i++ {
		c.Access(1, 60, t0)
	}
	for k := uint64(10); k < 200; k++ {
		for i := 0; i < 3; i++ {
			c.Access(k, 60, t0)
		}
	}
	// After massive churn the cache must still be functional and within
	// capacity; the stale object 1 should have been displaced.
	if c.Bytes() > c.Capacity() {
		t.Error("capacity exceeded")
	}
	if c.Contains(1) {
		t.Error("inflation failed: stale object survived unbounded churn")
	}
}

func TestTwoQScanResistance(t *testing.T) {
	c, err := NewTwoQ(1000, 0.25, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Promote object 1 to main: in -> evicted to ghost -> re-access.
	c.Access(1, 100, t0)
	for k := uint64(50); k < 55; k++ {
		c.Access(k, 100, t0) // flushes 1 out of the 250-byte in-queue
	}
	if c.Contains(1) {
		t.Fatal("object 1 should have left the in-queue")
	}
	c.Access(1, 100, t0) // ghost hit -> main
	if !c.Contains(1) {
		t.Fatal("ghost re-reference should admit to main")
	}
	// A long one-hit scan must not evict object 1 from main.
	for k := uint64(1000); k < 1100; k++ {
		c.Access(k, 100, t0)
	}
	if !c.Contains(1) {
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
	if c.Name() != "2q" {
		t.Error("name")
	}
	c.Push(7, 10, t0)
	if !c.Contains(7) {
		t.Error("push")
	}
	// In-queue re-access hits without promotion.
	c.Access(8, 10, t0)
	if !c.Access(8, 10, t0) {
		t.Error("in-queue re-access should hit")
	}
	// Ghost list stays bounded.
	for k := uint64(100); k < 200; k++ {
		c.Access(k, 240, t0)
	}
	if c.ghost.Len() > 4 {
		t.Errorf("ghost grew to %d", c.ghost.Len())
	}
}

func TestTieredCacheParentAbsorbsEdgeMisses(t *testing.T) {
	edge := NewLRU(100)
	parent := NewLRU(10000)
	c := NewTieredCache(edge, parent)
	// Miss everywhere: parent records a miss (origin fetch).
	if c.Access(1, 50, t0) {
		t.Error("cold access hit")
	}
	if c.ParentMisses != 1 || c.ParentHits != 0 {
		t.Errorf("parent stats: %d/%d", c.ParentHits, c.ParentMisses)
	}
	// Evict from the tiny edge, keep in parent.
	c.Access(2, 60, t0) // evicts 1 from edge (100-byte capacity)
	if edge.Contains(1) {
		t.Fatal("edge should have evicted 1")
	}
	// Edge miss, parent hit.
	if c.Access(1, 50, t0) {
		t.Error("edge-level verdict should be MISS")
	}
	if c.ParentHits != 1 {
		t.Errorf("ParentHits = %d, want 1", c.ParentHits)
	}
	if !c.Contains(2) {
		t.Error("Contains should cover both tiers")
	}
	c.Push(9, 10, t0)
	if !edge.Contains(9) || !parent.Contains(9) {
		t.Error("push should warm both tiers")
	}
	if c.Name() != "tiered(lru<-lru)" {
		t.Errorf("name = %s", c.Name())
	}
}

func TestSharedParentAcrossEdges(t *testing.T) {
	parent := NewLRU(10000)
	e1 := NewTieredCache(NewLRU(100), parent)
	e2 := NewTieredCache(NewLRU(100), parent)
	e1.Access(1, 50, t0) // fills the shared parent
	if e2.Access(1, 50, t0) {
		t.Error("edge 2 verdict should be MISS")
	}
	if e2.ParentHits != 1 {
		t.Errorf("shared parent should absorb edge-2 miss, hits=%d", e2.ParentHits)
	}
}

// All new policies obey the capacity bound and hit on immediate
// re-access under random workloads.
func TestNewPolicyInvariants(t *testing.T) {
	factories := map[string]func() Cache{
		"gdsf": func() Cache { return NewGDSF(500) },
		"2q":   func() Cache { c, _ := NewTwoQ(500, 0.25, 64); return c },
		"tiered": func() Cache {
			return NewTieredCache(NewLRU(200), NewLRU(300))
		},
	}
	rng := rand.New(rand.NewSource(9))
	for name, mk := range factories {
		c := mk()
		for i := 0; i < 5000; i++ {
			key := rng.Uint64() % 64
			size := rng.Int63n(120) + 1
			c.Access(key, size, t0.Add(time.Duration(i)*time.Second))
			if c.Bytes() > c.Capacity() {
				t.Fatalf("%s: bytes %d > capacity %d", name, c.Bytes(), c.Capacity())
			}
		}
	}
}
