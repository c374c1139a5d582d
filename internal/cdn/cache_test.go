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

// resident reads what c holds of the keys [0, n) through Contains, the
// one view a Cache gives of its contents: how many, and their bytes at
// size(key) each.
// entry is the key of object n in the tests that drive a cache directly:
// ID n, slot n.
func entry(n uint64) Key { return Key{ID: n, Slot: uint32(n)} }

func resident(c Cache, n uint64, size func(key uint64) int64) (objects int, bytes int64) {
	for k := uint64(0); k < n; k++ {
		if c.Contains(entry(k)) {
			objects++
			bytes += size(k)
		}
	}
	return objects, bytes
}

// sized gives every key one size.
func sized(size int64) func(uint64) int64 { return func(uint64) int64 { return size } }

func TestLRUBasics(t *testing.T) {
	c := NewLRU(100)
	if c.Access(entry(1), 40, t0) {
		t.Error("first access should miss")
	}
	if !c.Access(entry(1), 40, t0) {
		t.Error("second access should hit")
	}
	c.Access(entry(2), 40, t0)
	if n, bytes := resident(c, 3, sized(40)); bytes != 80 || n != 2 {
		t.Errorf("bytes/len = %d/%d", bytes, n)
	}
	// Touch 1 so 2 is the LRU victim, then overflow.
	c.Access(entry(1), 40, t0)
	c.Access(entry(3), 40, t0)
	if !c.Contains(entry(1)) {
		t.Error("recently used 1 was evicted")
	}
	if c.Contains(entry(2)) {
		t.Error("LRU victim 2 should be gone")
	}
}

func TestLRUOversizedObject(t *testing.T) {
	c := NewLRU(10)
	c.Access(entry(1), 100, t0) // larger than cache: not admitted
	if c.Contains(entry(1)) {
		t.Error("oversized object was admitted")
	}
	if c.Access(entry(1), 100, t0) {
		t.Error("oversized object can never hit")
	}
}

func TestLRUPush(t *testing.T) {
	c := NewLRU(100)
	c.Push(entry(1), 50, t0)
	if !c.Contains(entry(1)) {
		t.Error("pushed object missing")
	}
	c.Push(entry(1), 50, t0) // idempotent
	c.Push(entry(2), 50, t0)
	if !c.Contains(entry(1)) || !c.Contains(entry(2)) {
		t.Error("double push inflated the bytes: two 50-byte objects no longer fit 100")
	}
	if !c.Access(entry(1), 50, t0) {
		t.Error("pushed object should hit")
	}
}

func TestFIFOEvictsInsertionOrder(t *testing.T) {
	c := NewFIFO(100)
	c.Access(entry(1), 40, t0)
	c.Access(entry(2), 40, t0)
	// Re-access 1: FIFO does not refresh recency.
	c.Access(entry(1), 40, t0)
	c.Access(entry(3), 40, t0) // evicts 1 (oldest insertion)
	if c.Contains(entry(1)) {
		t.Error("FIFO should evict oldest insertion")
	}
	if !c.Contains(entry(2)) || !c.Contains(entry(3)) {
		t.Error("wrong FIFO eviction")
	}
}

func TestLFUKeepsFrequent(t *testing.T) {
	c := NewLFU(100)
	for i := 0; i < 5; i++ {
		c.Access(entry(1), 40, t0) // freq 5
	}
	c.Access(entry(2), 40, t0) // freq 1
	c.Access(entry(3), 40, t0) // evicts 2 (lowest freq)
	if c.Contains(entry(2)) {
		t.Error("LFU should evict the low-frequency object")
	}
	if !c.Contains(entry(1)) || !c.Contains(entry(3)) {
		t.Error("wrong LFU eviction")
	}
}

func TestSLRUScanResistance(t *testing.T) {
	c, err := NewSLRU(100, 0.6) // 40 probation, 60 protected
	if err != nil {
		t.Fatal(err)
	}
	// Make 1 popular: two accesses promote it to protected.
	c.Access(entry(1), 30, t0)
	c.Access(entry(1), 30, t0)
	if !c.Contains(entry(1)) {
		t.Fatal("popular object missing")
	}
	// Scan of one-hit wonders through probation.
	for k := uint64(10); k < 20; k++ {
		c.Access(entry(k), 30, t0)
	}
	if !c.Contains(entry(1)) {
		t.Error("scan evicted the protected object")
	}
	if !c.Access(entry(1), 30, t0) {
		t.Error("protected object should hit")
	}
	if _, err := NewSLRU(100, 1.5); err == nil {
		t.Error("bad protectedFrac should error")
	}
	c.Push(entry(42), 10, t0)
	if !c.Contains(entry(42)) {
		t.Error("push should insert")
	}
}

func TestTTLCacheExpiry(t *testing.T) {
	inner := NewLRU(1000)
	c, err := NewTTLCache(inner, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	c.Access(entry(1), 10, t0)
	if !c.Access(entry(1), 10, t0.Add(30*time.Minute)) {
		t.Error("fresh entry should hit")
	}
	if c.Access(entry(1), 10, t0.Add(3*time.Hour)) {
		t.Error("stale entry should miss (revalidation)")
	}
	// After revalidation the entry is fresh again.
	if !c.Access(entry(1), 10, t0.Add(3*time.Hour+time.Minute)) {
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
	c.Access(entry(1), 10, t0)  // small
	c.Access(entry(2), 500, t0) // large
	if !small.Contains(entry(1)) || large.Contains(entry(1)) {
		t.Error("small object misrouted")
	}
	if !large.Contains(entry(2)) || small.Contains(entry(2)) {
		t.Error("large object misrouted")
	}
	size := func(k uint64) int64 {
		if k == 1 {
			return 10
		}
		return 500
	}
	if n, bytes := resident(c, 3, size); n != 2 || bytes != 510 {
		t.Errorf("resident: len=%d bytes=%d", n, bytes)
	}
	if !c.Contains(entry(1)) || !c.Contains(entry(2)) {
		t.Error("Contains should check both")
	}
	c.Push(entry(3), 20, t0)
	if !small.Contains(entry(3)) {
		t.Error("push misrouted")
	}
	if _, err := NewSplitCache(small, large, 0); err == nil {
		t.Error("zero threshold should error")
	}
}

// Property: under any access sequence, the bytes every policy holds stay
// within its capacity. An object has one size, as in a trace.
func TestCacheInvariantsProperty(t *testing.T) {
	mk := map[string]func() Cache{
		"lru":  func() Cache { return NewLRU(500) },
		"fifo": func() Cache { return NewFIFO(500) },
		"lfu":  func() Cache { return NewLFU(500) },
		"slru": func() Cache { c, _ := NewSLRU(500, 0.8); return c },
	}
	for name, factory := range mk {
		t.Run(name, func(t *testing.T) {
			f := func(keys []uint8, sizes [32]uint8) bool {
				c := factory()
				size := func(k uint64) int64 { return int64(sizes[k]%200) + 1 }
				for _, k := range keys {
					c.Access(entry(uint64(k%32)), size(uint64(k%32)), t0)
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

// Property: an object just accessed (and admissible) is a hit when
// re-accessed immediately, for every policy.
func TestImmediateReaccessHits(t *testing.T) {
	slru, _ := NewSLRU(1000, 0.8)
	caches := map[string]Cache{"lru": NewLRU(1000), "fifo": NewFIFO(1000), "lfu": NewLFU(1000), "slru": slru}
	rng := rand.New(rand.NewSource(1))
	for name, c := range caches {
		for i := 0; i < 200; i++ {
			key := rng.Uint64() % 64
			size := rng.Int63n(100) + 1
			c.Access(entry(key), size, t0)
			if !c.Access(entry(key), size, t0) {
				t.Errorf("%s: immediate re-access missed", name)
				break
			}
		}
	}
}

func TestZeroCapacityCacheNeverAdmits(t *testing.T) {
	for name, c := range map[string]Cache{"lru": NewLRU(0), "fifo": NewFIFO(0), "lfu": NewLFU(0)} {
		c.Access(entry(1), 1, t0)
		if c.Contains(entry(1)) {
			t.Errorf("%s: zero-capacity cache admitted an object", name)
		}
		if c.Access(entry(1), 1, t0) {
			t.Errorf("%s: zero-capacity cache hit", name)
		}
	}
}

// refList is the container/list cache the queue replaced, kept as the
// reference model: touch selects LRU (move to front on hit) over FIFO.
type refList struct {
	capacity, bytes int64
	touch           bool
	ll              *list.List // front = most recent
	items           map[uint64]*list.Element
}

type refEntry struct {
	key  uint64
	size int64
}

func newRefList(capacity int64, touch bool) *refList {
	return &refList{capacity: capacity, touch: touch, ll: list.New(), items: map[uint64]*list.Element{}}
}

func (c *refList) Contains(key uint64) bool { _, ok := c.items[key]; return ok }

func (c *refList) Access(key uint64, size int64) bool {
	if el, ok := c.items[key]; ok {
		if c.touch {
			c.ll.MoveToFront(el)
		}
		return true
	}
	c.insert(key, size)
	return false
}

func (c *refList) Push(key uint64, size int64) {
	if !c.Contains(key) {
		c.insert(key, size)
	}
}

// insert returns the evicted keys, oldest first.
func (c *refList) insert(key uint64, size int64) []uint64 {
	if size > c.capacity {
		return nil
	}
	var evicted []uint64
	for c.bytes+size > c.capacity {
		back := c.ll.Back()
		if back == nil {
			break
		}
		evicted = append(evicted, back.Value.(refEntry).key)
		c.Purge(back.Value.(refEntry).key)
	}
	c.items[key] = c.ll.PushFront(refEntry{key: key, size: size})
	c.bytes += size
	return evicted
}

func (c *refList) Purge(key uint64) bool {
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.ll.Remove(el)
	delete(c.items, key)
	c.bytes -= el.Value.(refEntry).size
	return true
}

func (c *refList) keys() []uint64 {
	var out []uint64
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(refEntry).key)
	}
	return out
}

// keys lists the queue front (newest) to back (next victim).
func (q *queue) keys() []uint64 {
	var out []uint64
	for i := q.nodes[0].next; i != 0; i = q.nodes[i].next {
		out = append(out, uint64(q.nodes[i].slot))
	}
	return out
}

// cacheModel is one policy under differential test: the operations both
// sides answer, and every internal list front to back.
type cacheModel struct {
	access   func(key uint64, size int64) bool
	push     func(key uint64, size int64)
	purge    func(key uint64) bool
	contains func(key uint64) bool
	lists    func() [][]uint64
	occupied func() (objects int, bytes int64)
}

// occupancy sums the resident segments of a reference policy.
func occupancy(segments ...*refList) func() (int, int64) {
	return func() (n int, bytes int64) {
		for _, s := range segments {
			n += s.ll.Len()
			bytes += s.bytes
		}
		return n, bytes
	}
}

func refSingle(capacity int64, touch bool) cacheModel {
	ref := newRefList(capacity, touch)
	return cacheModel{
		access:   ref.Access,
		push:     ref.Push,
		purge:    ref.Purge,
		contains: ref.Contains,
		lists:    func() [][]uint64 { return [][]uint64{ref.keys()} },
		occupied: occupancy(ref),
	}
}

func refSLRU(capacity int64, frac float64) cacheModel {
	prot := int64(float64(capacity) * frac)
	probation, protected := newRefList(capacity-prot, true), newRefList(prot, true)
	contains := func(key uint64) bool { return probation.Contains(key) || protected.Contains(key) }
	return cacheModel{
		access: func(key uint64, size int64) bool {
			if protected.Contains(key) {
				return protected.Access(key, size)
			}
			if probation.Purge(key) {
				protected.Push(key, size)
				protected.Access(key, size)
				return true
			}
			return probation.Access(key, size)
		},
		push: func(key uint64, size int64) {
			if !contains(key) {
				probation.Push(key, size)
			}
		},
		contains: contains,
		lists:    func() [][]uint64 { return [][]uint64{probation.keys(), protected.keys()} },
		occupied: occupancy(probation, protected),
	}
}

func refTwoQ(capacity int64, inFrac float64, ghostN int) cacheModel {
	inCap := int64(float64(capacity) * inFrac)
	in, main := newRefList(inCap, false), newRefList(capacity-inCap, true)
	ghost := newRefList(int64(ghostN), false) // unit sizes: capacity counts keys
	contains := func(key uint64) bool { return in.Contains(key) || main.Contains(key) }
	return cacheModel{
		access: func(key uint64, size int64) bool {
			if main.Contains(key) {
				return main.Access(key, size)
			}
			if in.Contains(key) {
				return true
			}
			if ghost.Purge(key) {
				return main.Access(key, size)
			}
			for _, ek := range in.insert(key, size) {
				ghost.Push(ek, 1)
			}
			return false
		},
		push: func(key uint64, size int64) {
			if !contains(key) {
				main.Push(key, size)
			}
		},
		contains: contains,
		lists:    func() [][]uint64 { return [][]uint64{in.keys(), main.keys(), ghost.keys()} },
		occupied: occupancy(in, main),
	}
}

// queued sums the resident queues of a policy: their counters are what
// eviction reads, so they must equal the reference's to the byte.
func queued(qs ...*queue) func() (int, int64) {
	return func() (n int, bytes int64) {
		for _, q := range qs {
			n += q.resident
			bytes += q.bytes
		}
		return n, bytes
	}
}

func modelOf(c Cache, lists func() [][]uint64, occupied func() (int, int64)) cacheModel {
	m := cacheModel{
		access:   func(key uint64, size int64) bool { return c.Access(entry(key), size, t0) },
		push:     func(key uint64, size int64) { c.Push(entry(key), size, t0) },
		contains: func(key uint64) bool { return c.Contains(entry(key)) },
		lists:    lists,
		occupied: occupied,
	}
	if p, ok := c.(interface{ Purge(uint32) bool }); ok {
		m.purge = func(key uint64) bool { return p.Purge(uint32(key)) } // the queue's, promoted to LRU and FIFO
	}
	return m
}

// TestQueuePoliciesMatchListReference drives every queue-backed policy
// and its container/list reference with the same seeded operation stream
// and requires the same answers and the same list contents, front to
// back, and the same Len and Bytes after every step — hit ratios reported anywhere in the repository
// come out of these lists, so the rewrite must be indistinguishable.
func TestQueuePoliciesMatchListReference(t *testing.T) {
	policies := map[string]func(capacity int64) (got, want cacheModel){
		"lru": func(capacity int64) (cacheModel, cacheModel) {
			c := NewLRU(capacity)
			return modelOf(c, func() [][]uint64 { return [][]uint64{c.keys()} }, queued(&c.queue)), refSingle(capacity, true)
		},
		"fifo": func(capacity int64) (cacheModel, cacheModel) {
			c := NewFIFO(capacity)
			return modelOf(c, func() [][]uint64 { return [][]uint64{c.keys()} }, queued(&c.queue)), refSingle(capacity, false)
		},
		"slru": func(capacity int64) (cacheModel, cacheModel) {
			c, err := NewSLRU(capacity, 0.8)
			if err != nil {
				t.Fatal(err)
			}
			return modelOf(c, func() [][]uint64 { return [][]uint64{c.probation.keys(), c.protected.keys()} },
					queued(&c.probation, &c.protected)),
				refSLRU(capacity, 0.8)
		},
		"2q": func(capacity int64) (cacheModel, cacheModel) {
			c, err := NewTwoQ(capacity, 0.25, 8)
			if err != nil {
				t.Fatal(err)
			}
			return modelOf(c, func() [][]uint64 { return [][]uint64{c.in.keys(), c.main.keys(), c.ghost.keys()} },
					queued(&c.in, &c.main)),
				refTwoQ(capacity, 0.25, 8)
		},
	}
	const opsPerCapacity = 30_000 // × 4 capacities = 1.2e5 operations a policy
	for name, mk := range policies {
		for _, capacity := range []int64{0, 1, 1000, 4096} {
			got, want := mk(capacity)
			rng := rand.New(rand.NewSource(capacity + 7))
			for step := 0; step < opsPerCapacity; step++ {
				key := uint64(rng.Intn(96))
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
					g, w = got.access(key, size), want.access(key, size)
				case op < 7:
					got.push(key, size)
					want.push(key, size)
				case op < 8 && got.purge != nil:
					g, w = got.purge(key), want.purge(key)
				default:
					g, w = got.contains(key), want.contains(key)
				}
				if g != w {
					t.Fatalf("%s cap %d step %d: op %d key %d size %d = %v, reference %v", name, capacity, step, op, key, size, g, w)
				}
				if gl, wl := got.lists(), want.lists(); !reflect.DeepEqual(gl, wl) {
					t.Fatalf("%s cap %d step %d: lists %v, reference %v", name, capacity, step, gl, wl)
				}
				gn, gb := got.occupied()
				if wn, wb := want.occupied(); gn != wn || gb != wb {
					t.Fatalf("%s cap %d step %d: Len/Bytes %d/%d, reference %d/%d", name, capacity, step, gn, gb, wn, wb)
				}
			}
		}
	}
}

// TestQueueRecyclesNodes: once the cache is full every insert reuses an
// evicted node, so the node slice stops growing.
func TestQueueRecyclesNodes(t *testing.T) {
	c := NewLRU(100 * 10)
	for key := uint64(0); key < 100; key++ {
		c.Access(entry(key), 10, t0)
	}
	full := len(c.nodes)
	if full != 101 {
		t.Fatalf("full cache holds %d nodes, want 100 + sentinel", full)
	}
	for key := uint64(100); key < 50_000; key++ {
		c.Access(entry(key), 10, t0)
		if key%3 == 0 {
			c.Purge(uint32(key - 5))
		}
	}
	if len(c.nodes) != full {
		t.Errorf("node slice grew from %d to %d under churn", full, len(c.nodes))
	}
}
