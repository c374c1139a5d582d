package cdn

import (
	"container/list"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2015, 10, 3, 0, 0, 0, 0, time.UTC)

// resident reads what c holds of the slots [0, n) through Contains, the
// one view a Cache gives of its contents: how many, and their bytes at
// size(slot) each.
func resident(c Cache, n uint32, size func(slot uint32) int64) (objects int, bytes int64) {
	for k := uint32(0); k < n; k++ {
		if c.Contains(k) {
			objects++
			bytes += size(k)
		}
	}
	return objects, bytes
}

// sized gives every slot one size.
func sized(size int64) func(uint32) int64 { return func(uint32) int64 { return size } }

func TestLRUBasics(t *testing.T) {
	c := NewLRU(100)
	if c.Access(1, 40, t0) {
		t.Error("first access should miss")
	}
	if !c.Access(1, 40, t0) {
		t.Error("second access should hit")
	}
	c.Access(2, 40, t0)
	if n, bytes := resident(c, 3, sized(40)); bytes != 80 || n != 2 {
		t.Errorf("bytes/len = %d/%d", bytes, n)
	}
	// Touch 1 so 2 is the LRU victim, then overflow.
	c.Access(1, 40, t0)
	c.Access(3, 40, t0)
	if !c.Contains(1) {
		t.Error("recently used 1 was evicted")
	}
	if c.Contains(2) {
		t.Error("LRU victim 2 should be gone")
	}
}

func TestLRUOversizedObject(t *testing.T) {
	c := NewLRU(10)
	c.Access(1, 100, t0) // larger than cache: not admitted
	if c.Contains(1) {
		t.Error("oversized object was admitted")
	}
	if c.Access(1, 100, t0) {
		t.Error("oversized object can never hit")
	}
}

func TestLRUPush(t *testing.T) {
	c := NewLRU(100)
	c.Push(1, 50, t0)
	if !c.Contains(1) {
		t.Error("pushed object missing")
	}
	c.Push(1, 50, t0) // idempotent
	c.Push(2, 50, t0)
	if !c.Contains(1) || !c.Contains(2) {
		t.Error("double push inflated the bytes: two 50-byte objects no longer fit 100")
	}
	if !c.Access(1, 50, t0) {
		t.Error("pushed object should hit")
	}
}

func TestTTLCacheExpiry(t *testing.T) {
	inner := NewLRU(1000)
	c, err := NewTTLCache(inner, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	c.Access(1, 10, t0)
	if !c.Access(1, 10, t0.Add(30*time.Minute)) {
		t.Error("fresh entry should hit")
	}
	if c.Access(1, 10, t0.Add(3*time.Hour)) {
		t.Error("stale entry should miss (revalidation)")
	}
	// After revalidation the entry is fresh again.
	if !c.Access(1, 10, t0.Add(3*time.Hour+time.Minute)) {
		t.Error("revalidated entry should hit")
	}
	if _, err := NewTTLCache(inner, 0); err == nil {
		t.Error("zero TTL should error")
	}
}

func TestSplitCacheRouting(t *testing.T) {
	small, large := NewLRU(100), NewLRU(1000)
	c, err := NewSplitCache(small, large, 50)
	if err != nil {
		t.Fatal(err)
	}
	c.Access(1, 10, t0)  // small
	c.Access(2, 500, t0) // large
	if !small.Contains(1) || large.Contains(1) {
		t.Error("small object misrouted")
	}
	if !large.Contains(2) || small.Contains(2) {
		t.Error("large object misrouted")
	}
	size := func(k uint32) int64 {
		if k == 1 {
			return 10
		}
		return 500
	}
	if n, bytes := resident(c, 3, size); n != 2 || bytes != 510 {
		t.Errorf("resident: len=%d bytes=%d", n, bytes)
	}
	if !c.Contains(1) || !c.Contains(2) {
		t.Error("Contains should check both")
	}
	c.Push(3, 20, t0)
	if !small.Contains(3) {
		t.Error("push misrouted")
	}
	if _, err := NewSplitCache(small, large, 0); err == nil {
		t.Error("zero threshold should error")
	}
}

// caches builds every cache the CDN model composes at a total byte
// capacity: the LRU, and the split, TTL and tiered caches the §V table
// and the study run over LRUs. bounds names each LRU whose contents the
// invariants read (a composite's parts, where one slot can sit in two)
// and its capacity.
func caches(capacity int64) map[string]func() (c Cache, bounds map[Cache]int64) {
	part := func(bounds map[Cache]int64, capacity int64) Cache {
		c := NewLRU(capacity)
		bounds[c] = capacity
		return c
	}
	small := capacity * 2 / 5
	return map[string]func() (Cache, map[Cache]int64){
		"lru": func() (Cache, map[Cache]int64) {
			b := map[Cache]int64{}
			return part(b, capacity), b
		},
		"split": func() (Cache, map[Cache]int64) {
			b := map[Cache]int64{}
			c, _ := NewSplitCache(part(b, small), part(b, capacity-small), 60)
			return c, b
		},
		"ttl": func() (Cache, map[Cache]int64) {
			b := map[Cache]int64{}
			c, _ := NewTTLCache(part(b, capacity), time.Minute)
			return c, b
		},
		"tiered": func() (Cache, map[Cache]int64) {
			b := map[Cache]int64{}
			return NewTieredCache(part(b, small), part(b, capacity-small)), b
		},
	}
}

// Property: under any access sequence, the bytes every cache holds stay
// within its capacity. An object has one size, as in a trace.
func TestCacheInvariantsProperty(t *testing.T) {
	for name, mk := range caches(500) {
		t.Run(name, func(t *testing.T) {
			f := func(keys []uint8, sizes [32]uint8) bool {
				c, _ := mk()
				size := func(k uint32) int64 { return int64(sizes[k]%200) + 1 }
				for _, k := range keys {
					c.Access(uint32(k%32), size(uint32(k%32)), t0)
					if _, bytes := resident(c, 32, size); bytes > 500 {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
				t.Error(err)
			}
		})
	}
}

// Every part of a composite cache obeys its own capacity under a long
// random workload whose accesses are a second apart, so TTL entries
// expire. An object has one size, as in a trace.
func TestNewPolicyInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var sizes [64]int64
	for k := range sizes {
		sizes[k] = rng.Int63n(120) + 1
	}
	size := func(k uint32) int64 { return sizes[k] }
	for name, mk := range caches(500) {
		c, bounds := mk()
		for i := 0; i < 5000; i++ {
			key := uint32(rng.Intn(64))
			c.Access(key, size(key), t0.Add(time.Duration(i)*time.Second))
			for part, capacity := range bounds {
				if _, bytes := resident(part, 64, size); bytes > capacity {
					t.Fatalf("%s: holds %d bytes, capacity %d", name, bytes, capacity)
				}
			}
		}
	}
}

// Property: an object just accessed (and admissible) is a hit when
// re-accessed immediately, for every cache.
func TestImmediateReaccessHits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, mk := range caches(1000) {
		c, _ := mk()
		for i := 0; i < 200; i++ {
			key := uint32(rng.Intn(64))
			size := rng.Int63n(100) + 1
			c.Access(key, size, t0)
			if !c.Access(key, size, t0) {
				t.Errorf("%s: immediate re-access missed", name)
				break
			}
		}
	}
}

func TestZeroCapacityCacheNeverAdmits(t *testing.T) {
	for name, mk := range caches(0) {
		c, _ := mk()
		c.Access(1, 1, t0)
		if c.Contains(1) {
			t.Errorf("%s: zero-capacity cache admitted an object", name)
		}
		if c.Access(1, 1, t0) {
			t.Errorf("%s: zero-capacity cache hit", name)
		}
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

// refList is the container/list LRU the queue replaced, kept as the
// reference model.
type refList struct {
	capacity, bytes int64
	ll              *list.List // front = most recent
	items           map[uint32]*list.Element
}

type refEntry struct {
	key  uint32
	size int64
}

func newRefList(capacity int64) *refList {
	return &refList{capacity: capacity, ll: list.New(), items: map[uint32]*list.Element{}}
}

func (c *refList) Contains(key uint32) bool { _, ok := c.items[key]; return ok }

func (c *refList) Access(key uint32, size int64) bool {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return true
	}
	c.insert(key, size)
	return false
}

func (c *refList) Push(key uint32, size int64) {
	if !c.Contains(key) {
		c.insert(key, size)
	}
}

func (c *refList) insert(key uint32, size int64) {
	if size > c.capacity {
		return
	}
	for c.bytes+size > c.capacity && c.ll.Len() > 0 {
		back := c.ll.Remove(c.ll.Back()).(refEntry)
		delete(c.items, back.key)
		c.bytes -= back.size
	}
	c.items[key] = c.ll.PushFront(refEntry{key: key, size: size})
	c.bytes += size
}

func (c *refList) keys() []uint32 {
	var out []uint32
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(refEntry).key)
	}
	return out
}

// keys lists the queue front (newest) to back (next victim).
func (q *queue) keys() []uint32 {
	var out []uint32
	for i := q.nodes[0].next; i != 0; i = q.nodes[i].next {
		out = append(out, q.nodes[i].slot)
	}
	return out
}

// TestQueuePoliciesMatchListReference drives the LRU and its
// container/list reference with the same seeded operation stream and
// requires the same answers and the same list contents, front to back,
// and the same object count and bytes after every step — hit ratios
// reported anywhere in the repository come out of this list, so the
// rewrite must be indistinguishable.
func TestQueuePoliciesMatchListReference(t *testing.T) {
	const opsPerCapacity = 30_000 // × 4 capacities = 1.2e5 operations
	for _, capacity := range []int64{0, 1, 1000, 4096} {
		got, want := NewLRU(capacity), newRefList(capacity)
		rng := rand.New(rand.NewSource(capacity + 7))
		for step := 0; step < opsPerCapacity; step++ {
			key := uint32(rng.Intn(96))
			var size int64
			switch rng.Intn(10) {
			case 0: // stays 0
			case 1:
				size = capacity
			case 2:
				size = capacity + 1 + int64(rng.Intn(50))
			default:
				size = 1 + int64(rng.Intn(400))
			}
			op := rng.Intn(10)
			var g, w bool
			switch {
			case op < 6:
				g, w = got.Access(key, size, t0), want.Access(key, size)
			case op < 7:
				got.Push(key, size, t0)
				want.Push(key, size)
			default:
				g, w = got.Contains(key), want.Contains(key)
			}
			if g != w {
				t.Fatalf("cap %d step %d: op %d key %d size %d = %v, reference %v", capacity, step, op, key, size, g, w)
			}
			if gl, wl := got.keys(), want.keys(); !reflect.DeepEqual(gl, wl) {
				t.Fatalf("cap %d step %d: list %v, reference %v", capacity, step, gl, wl)
			}
			if got.resident != want.ll.Len() || got.bytes != want.bytes {
				t.Fatalf("cap %d step %d: Len/Bytes %d/%d, reference %d/%d", capacity, step, got.resident, got.bytes, want.ll.Len(), want.bytes)
			}
		}
	}
}

// TestQueueRecyclesNodes: once the cache is full every insert reuses an
// evicted node, so the node slice stops growing.
func TestQueueRecyclesNodes(t *testing.T) {
	c := NewLRU(100 * 10)
	for key := uint32(0); key < 100; key++ {
		c.Access(key, 10, t0)
	}
	full := len(c.nodes)
	if full != 101 {
		t.Fatalf("full cache holds %d nodes, want 100 + sentinel", full)
	}
	for key := uint32(100); key < 50_000; key++ {
		c.Access(key, 10, t0)
		if i := c.find(key - 5); key%3 == 0 && i != 0 {
			c.drop(i)
		}
	}
	if len(c.nodes) != full {
		t.Errorf("node slice grew from %d to %d under churn", full, len(c.nodes))
	}
}
