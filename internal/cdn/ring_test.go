package cdn

import (
	"math/rand"
	"testing"
)

// shardOf is the shard that owns key on r.
func shardOf(r *HashRing, key uint64) int { return r.points[r.owner(key)].shard }

func TestNewHashRingValidation(t *testing.T) {
	if _, err := NewHashRing(0, 10); err == nil {
		t.Error("0 shards should error")
	}
	if _, err := NewHashRing(4, 0); err == nil {
		t.Error("0 vnodes should error")
	}
}

func TestHashRingDeterministicAndInRange(t *testing.T) {
	r, err := NewHashRing(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		key := rng.Uint64()
		s := shardOf(r, key)
		if s < 0 || s >= 8 {
			t.Fatalf("shard %d out of range", s)
		}
		if shardOf(r, key) != s {
			t.Fatal("owner not deterministic")
		}
	}
}

func TestHashRingBalance(t *testing.T) {
	r, _ := NewHashRing(4, 128)
	counts := make([]int, 4)
	rng := rand.New(rand.NewSource(2))
	n := 40000
	for i := 0; i < n; i++ {
		counts[shardOf(r, rng.Uint64())]++
	}
	for s, c := range counts {
		frac := float64(c) / float64(n)
		if frac < 0.15 || frac > 0.35 {
			t.Errorf("shard %d holds %.1f%% of keys, want ~25%%", s, frac*100)
		}
	}
}

func TestHashRingMinimalRemapping(t *testing.T) {
	// Growing from 4 to 5 shards should remap roughly 1/5 of keys, far
	// from the ~4/5 a modulo scheme would remap.
	r4, _ := NewHashRing(4, 128)
	r5, _ := NewHashRing(5, 128)
	rng := rand.New(rand.NewSource(3))
	n := 20000
	moved := 0
	for i := 0; i < n; i++ {
		key := rng.Uint64()
		if shardOf(r4, key) != shardOf(r5, key) {
			moved++
		}
	}
	frac := float64(moved) / float64(n)
	if frac > 0.40 {
		t.Errorf("grow 4->5 moved %.1f%% of keys, consistent hashing should move ~20%%", frac*100)
	}
}

// With >= 128 vnodes per shard the ring's load split must stay tight:
// the most loaded shard may not exceed the mean by more than 30%, across
// several independent key populations.
func TestHashRingSkewBoundAcrossSeeds(t *testing.T) {
	const (
		shards  = 8
		vnodes  = 128
		keys    = 100_000
		maxSkew = 1.30 // max/mean bound
	)
	r, err := NewHashRing(shards, vnodes)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 7, 42, 1337, 99991} {
		counts := make([]int, shards)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < keys; i++ {
			counts[shardOf(r, rng.Uint64())]++
		}
		mean := float64(keys) / shards
		for s, c := range counts {
			if skew := float64(c) / mean; skew > maxSkew {
				t.Errorf("seed %d: shard %d holds %.2fx the mean load (bound %.2fx)",
					seed, s, skew, maxSkew)
			}
		}
	}
}

// Removing one shard must remap only ~1/n of keys: every key on the
// removed shard moves (its owner is gone), and nearly nothing else does.
// Ring point hashes depend only on (shard, vnode), so a ring built over
// n-1 shards IS the n-shard ring with the last shard's points removed.
func TestHashRingRemoveShardRemapping(t *testing.T) {
	const (
		shards = 8
		vnodes = 128
		keys   = 50_000
	)
	rn, err := NewHashRing(shards, vnodes)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := NewHashRing(shards-1, vnodes)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	var moved, onRemoved int
	for i := 0; i < keys; i++ {
		key := rng.Uint64()
		before := shardOf(rn, key)
		after := shardOf(rm, key)
		if before == shards-1 {
			onRemoved++
			continue // must move; its shard no longer exists
		}
		if before != after {
			moved++
		}
	}
	// Keys not owned by the removed shard should essentially never move.
	if frac := float64(moved) / float64(keys); frac > 0.01 {
		t.Errorf("%.2f%% of keys on surviving shards moved; consistent hashing should move none", frac*100)
	}
	// The removed shard held ~1/n of keys, so total remapping is ~1/n.
	fracRemoved := float64(onRemoved) / float64(keys)
	want := 1.0 / shards
	if fracRemoved < want/2 || fracRemoved > want*2 {
		t.Errorf("removed shard held %.1f%% of keys, want ~%.1f%%", fracRemoved*100, want*100)
	}
}

func TestHashRingShardOrderAppend(t *testing.T) {
	r, _ := NewHashRing(5, 64)
	rng := rand.New(rand.NewSource(4))
	var buf []int
	for i := 0; i < 500; i++ {
		key := rng.Uint64()
		buf = r.ShardOrderAppend(buf[:0], key)
		if len(buf) != 5 {
			t.Fatalf("order length %d, want 5", len(buf))
		}
		if buf[0] != shardOf(r, key) {
			t.Fatalf("order head %d, want owner %d", buf[0], shardOf(r, key))
		}
		seen := map[int]bool{}
		for _, s := range buf {
			if s < 0 || s >= 5 || seen[s] {
				t.Fatalf("order %v not a permutation of 0..4", buf)
			}
			seen[s] = true
		}
		// Deterministic for a given ring and key.
		again := r.ShardOrderAppend(nil, key)
		for j := range buf {
			if again[j] != buf[j] {
				t.Fatalf("order not deterministic: %v vs %v", buf, again)
			}
		}
	}
	// Appends after existing contents without disturbing them.
	pre := []int{77}
	out := r.ShardOrderAppend(pre, 123)
	if out[0] != 77 || len(out) != 6 {
		t.Fatalf("append mode broke prefix: %v", out)
	}
	// A prefix that happens to contain a valid shard index must not
	// suppress that shard from the appended order: dedup is scoped to
	// the appended suffix, never the caller's existing contents.
	for key := uint64(0); key < 50; key++ {
		out := r.ShardOrderAppend([]int{2}, key)
		if out[0] != 2 {
			t.Fatalf("key %d: prefix clobbered: %v", key, out)
		}
		suffix := out[1:]
		if len(suffix) != 5 {
			t.Fatalf("key %d: suffix length %d, want 5: %v", key, len(suffix), out)
		}
		if suffix[0] != shardOf(r, key) {
			t.Fatalf("key %d: suffix head %d, want owner %d", key, suffix[0], shardOf(r, key))
		}
		seen := map[int]bool{}
		for _, s := range suffix {
			if s < 0 || s >= 5 || seen[s] {
				t.Fatalf("key %d: suffix %v not a permutation of 0..4", key, suffix)
			}
			seen[s] = true
		}
	}
}

func TestHashRingShardOrderFailover(t *testing.T) {
	// The failover property: if the owner disappears, the second shard
	// in the order is the consistent next owner — i.e. it matches the
	// owner computed on a ring without that shard's points. We can't
	// delete points from HashRing directly, so check the weaker but
	// operationally sufficient property used by the router: the
	// preference order is stable, so every key has one well-defined
	// fallback chain.
	r, _ := NewHashRing(3, 64)
	counts := make([]int, 3)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		order := r.ShardOrderAppend(nil, rng.Uint64())
		counts[order[1]]++
	}
	// Fallback load must spread over all shards, not pile on one.
	for s, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d never a fallback: %v", s, counts)
		}
	}
}
