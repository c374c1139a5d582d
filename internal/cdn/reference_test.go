package cdn

import (
	"container/heap"
	"math/rand"
	"testing"
)

// The container/heap LFU and GDSF the heapStore replaced, kept verbatim
// (types renamed ref*, the unused time argument dropped) as the reference
// model of TestHeapPoliciesMatchReference.

// refLFUItem is a heap node ordered by (frequency, last access tick).
type refLFUItem struct {
	key   uint64
	size  int64
	freq  int64
	tick  int64 // tie-break: older ticks evict first
	index int
}

type refLFUHeap []*refLFUItem

func (h refLFUHeap) Len() int { return len(h) }
func (h refLFUHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].tick < h[j].tick
}
func (h refLFUHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refLFUHeap) Push(x any) {
	it := x.(*refLFUItem)
	it.index = len(*h)
	*h = append(*h, it)
}
func (h *refLFUHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

type refLFU struct {
	capacity int64
	bytes    int64
	items    map[uint64]*refLFUItem
	heap     refLFUHeap
	tick     int64
}

func newRefLFU(capacity int64) *refLFU {
	return &refLFU{capacity: capacity, items: map[uint64]*refLFUItem{}}
}

func (c *refLFU) Access(key uint64, size int64) bool {
	c.tick++
	if it, ok := c.items[key]; ok {
		it.freq++
		it.tick = c.tick
		heap.Fix(&c.heap, it.index)
		return true
	}
	c.insert(key, size, 1)
	return false
}

func (c *refLFU) Contains(key uint64) bool { _, ok := c.items[key]; return ok }

func (c *refLFU) Push(key uint64, size int64) {
	c.tick++
	if _, ok := c.items[key]; ok {
		return
	}
	c.insert(key, size, 0)
}

func (c *refLFU) insert(key uint64, size int64, freq int64) {
	if size > c.capacity {
		return
	}
	for c.bytes+size > c.capacity && len(c.heap) > 0 {
		ev := heap.Pop(&c.heap).(*refLFUItem)
		delete(c.items, ev.key)
		c.bytes -= ev.size
	}
	it := &refLFUItem{key: key, size: size, freq: freq, tick: c.tick}
	heap.Push(&c.heap, it)
	c.items[key] = it
	c.bytes += size
}

type refGDSF struct {
	capacity int64
	bytes    int64
	items    map[uint64]*refGDSFItem
	heap     refGDSFHeap
	inflate  float64 // L: priority floor, raised to each eviction's priority
	tick     int64
}

type refGDSFItem struct {
	key      uint64
	size     int64
	freq     float64
	priority float64
	tick     int64
	index    int
}

type refGDSFHeap []*refGDSFItem

func (h refGDSFHeap) Len() int { return len(h) }
func (h refGDSFHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority < h[j].priority
	}
	return h[i].tick < h[j].tick
}
func (h refGDSFHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refGDSFHeap) Push(x any) {
	it := x.(*refGDSFItem)
	it.index = len(*h)
	*h = append(*h, it)
}
func (h *refGDSFHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

func newRefGDSF(capacity int64) *refGDSF {
	return &refGDSF{capacity: capacity, items: map[uint64]*refGDSFItem{}}
}

// priority computes L + freq/size (sizes in KiB so priorities stay in a
// numerically comfortable range).
func (c *refGDSF) priority(freq float64, size int64) float64 {
	kb := float64(size) / 1024
	if kb < 0.001 {
		kb = 0.001
	}
	return c.inflate + freq/kb
}

func (c *refGDSF) Access(key uint64, size int64) bool {
	c.tick++
	if it, ok := c.items[key]; ok {
		it.freq++
		it.priority = c.priority(it.freq, it.size)
		it.tick = c.tick
		heap.Fix(&c.heap, it.index)
		return true
	}
	c.insert(key, size, 1)
	return false
}

func (c *refGDSF) Contains(key uint64) bool { _, ok := c.items[key]; return ok }

func (c *refGDSF) Push(key uint64, size int64) {
	c.tick++
	if _, ok := c.items[key]; ok {
		return
	}
	c.insert(key, size, 0.5)
}

func (c *refGDSF) insert(key uint64, size int64, freq float64) {
	if size > c.capacity {
		return
	}
	for c.bytes+size > c.capacity && len(c.heap) > 0 {
		ev := heap.Pop(&c.heap).(*refGDSFItem)
		delete(c.items, ev.key)
		c.bytes -= ev.size
		// Inflation: future insertions compete against the value of
		// what was just evicted.
		if ev.priority > c.inflate {
			c.inflate = ev.priority
		}
	}
	it := &refGDSFItem{key: key, size: size, freq: freq, tick: c.tick}
	it.priority = c.priority(freq, size)
	heap.Push(&c.heap, it)
	c.items[key] = it
	c.bytes += size
}

// TestHeapPoliciesMatchReference drives LFU and GDSF and their
// container/heap references with the same seeded stream of accesses,
// pushes and residency probes over mixed sizes (zero, exactly the
// capacity, larger than it) and requires the same answer to every
// operation and the same Len, Bytes and per-key Contains after it. The
// victim of an eviction is the minimum of (priority, tick) — ticks are
// unique, so the order is total — and residency after every step pins it:
// the stream keeps the caches full, so a different victim shows as a
// different resident set at once.
func TestHeapPoliciesMatchReference(t *testing.T) {
	stored := func(h *heapStore) func() (int, int64) {
		return func() (int, int64) { return len(h.index), h.bytes }
	}
	policies := map[string]func(capacity int64) (got, want cacheModel){
		"lfu": func(capacity int64) (cacheModel, cacheModel) {
			ref := newRefLFU(capacity)
			c := NewLFU(capacity)
			return modelOf(c, nil, stored(&c.heapStore)), cacheModel{
				access: ref.Access, push: ref.Push, contains: ref.Contains,
				occupied: func() (int, int64) { return len(ref.items), ref.bytes },
			}
		},
		"gdsf": func(capacity int64) (cacheModel, cacheModel) {
			ref := newRefGDSF(capacity)
			c := NewGDSF(capacity)
			return modelOf(c, nil, stored(&c.heapStore)), cacheModel{
				access: ref.Access, push: ref.Push, contains: ref.Contains,
				occupied: func() (int, int64) { return len(ref.items), ref.bytes },
			}
		},
	}
	const (
		keys           = 96
		opsPerCapacity = 30_000 // × 4 capacities = 1.2e5 operations a policy
	)
	for name, mk := range policies {
		for _, capacity := range []int64{0, 1, 1000, 4096} {
			got, want := mk(capacity)
			rng := rand.New(rand.NewSource(capacity + 11))
			for step := 0; step < opsPerCapacity; step++ {
				key := uint64(rng.Intn(keys))
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
				case op < 8:
					got.push(key, size)
					want.push(key, size)
				default:
					g, w = got.contains(key), want.contains(key)
				}
				if g != w {
					t.Fatalf("%s cap %d step %d: op %d key %d size %d = %v, reference %v", name, capacity, step, op, key, size, g, w)
				}
				gn, gb := got.occupied()
				if wn, wb := want.occupied(); gn != wn || gb != wb {
					t.Fatalf("%s cap %d step %d: Len/Bytes %d/%d, reference %d/%d", name, capacity, step, gn, gb, wn, wb)
				}
				for k := uint64(0); k < keys; k++ {
					if got.contains(k) != want.contains(k) {
						t.Fatalf("%s cap %d step %d: Contains(%d) = %v, reference %v", name, capacity, step, k, got.contains(k), want.contains(k))
					}
				}
			}
		}
	}
}
