package cdn

import (
	"fmt"
	"hash/fnv"
	"sort"

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

// owner returns the index of the ring point that owns key: the first
// point at or after the key's hash, wrapping past the last to the first.
func (r *HashRing) owner(key uint64) int {
	kh := sketch.Hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kh })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// ShardOrderAppend appends the key's shard preference order to dst and
// returns the extended slice: the owning shard first, then the remaining
// shards in ring-walk order. The order is stable for a given ring and
// key, and removing the first shard leaves the second as the consistent
// next owner — the property a routing tier needs to fail a request over
// to the next backend without re-shuffling every other key.
func (r *HashRing) ShardOrderAppend(dst []int, key uint64) []int {
	start, i := len(dst), r.owner(key)
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
