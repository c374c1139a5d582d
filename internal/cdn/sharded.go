package cdn

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"trafficscope/internal/sketch"
)

// HashRing is a consistent-hash ring mapping object keys to shard
// indices. Each shard gets vnodes virtual points on the ring, smoothing
// the load split; adding or removing a shard only remaps ~1/n of keys —
// the property CDN clusters rely on to survive server churn without mass
// cache invalidation.
type HashRing struct {
	points []ringPoint // sorted by hash
	shards int
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewHashRing builds a ring over the given number of shards with vnodes
// virtual points each.
func NewHashRing(shards, vnodes int) (*HashRing, error) {
	if shards < 1 {
		return nil, fmt.Errorf("cdn: hash ring needs >= 1 shard, got %d", shards)
	}
	if vnodes < 1 {
		return nil, fmt.Errorf("cdn: hash ring needs >= 1 vnode, got %d", vnodes)
	}
	r := &HashRing{shards: shards}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "shard-%d-vnode-%d", s, v)
			// FNV clusters on structured inputs; finalize with a
			// splitmix64 round for uniform ring placement.
			r.points = append(r.points, ringPoint{hash: sketch.Hash64(h.Sum64()), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r, nil
}

// Shard maps an object key to its shard.
func (r *HashRing) Shard(key uint64) int {
	kh := sketch.Hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kh })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// ShardOrderAppend appends the key's shard preference order to dst and
// returns the extended slice: the owning shard first, then the remaining
// shards in ring-walk order. The order is stable for a given ring and
// key, and removing the first shard leaves the second as the consistent
// next owner — the property a routing tier needs to fail a request over
// to the next backend without re-shuffling every other key.
func (r *HashRing) ShardOrderAppend(dst []int, key uint64) []int {
	start := len(dst)
	kh := sketch.Hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kh })
	if i == len(r.points) {
		i = 0
	}
	for n := 0; n < len(r.points) && len(dst)-start < r.shards; n++ {
		s := r.points[(i+n)%len(r.points)].shard
		if !containsInt(dst[start:], s) {
			dst = append(dst, s)
		}
	}
	return dst
}

// containsInt reports whether v occurs in s (the candidate lists walked
// here are a handful of backends, so a linear scan beats a set).
func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// ShardedCache distributes objects over several cache servers with
// consistent hashing — one simulated CDN data center is in reality a
// cluster of such servers, and sharding determines both load balance and
// the effective per-object cache capacity.
type ShardedCache struct {
	ring   *HashRing
	shards []Cache
}

var _ Cache = (*ShardedCache)(nil)

// NewShardedCache builds a sharded cache; newShard creates each server's
// local cache.
func NewShardedCache(shards, vnodes int, newShard func() Cache) (*ShardedCache, error) {
	ring, err := NewHashRing(shards, vnodes)
	if err != nil {
		return nil, err
	}
	sc := &ShardedCache{ring: ring, shards: make([]Cache, shards)}
	for i := range sc.shards {
		sc.shards[i] = newShard()
	}
	return sc, nil
}

// Access implements Cache. The ring places the key by its hashed ID.
func (c *ShardedCache) Access(key Key, size int64, now time.Time) bool {
	return c.shards[c.ring.Shard(key.ID)].Access(key, size, now)
}

// Contains implements Cache.
func (c *ShardedCache) Contains(key Key) bool {
	return c.shards[c.ring.Shard(key.ID)].Contains(key)
}

// Push implements Cache.
func (c *ShardedCache) Push(key Key, size int64, now time.Time) {
	c.shards[c.ring.Shard(key.ID)].Push(key, size, now)
}
