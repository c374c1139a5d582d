// Package analysis implements the paper's measurement pipeline: one
// analysis per figure of the evaluation (Figs. 1-16), each expressed as a
// streaming accumulator over trace records plus a typed result.
//
// Analyses are grouped per publisher (site), matching the paper's
// per-site presentation.
package analysis

import (
	"trafficscope/internal/sketch"
	"trafficscope/internal/trace"
)

// CategoryBreakdown carries one site's per-category totals.
type CategoryBreakdown struct {
	// Objects counts distinct objects per category (Fig. 1).
	Objects map[trace.Category]int64
	// Requests counts requests per category (Fig. 2a).
	Requests map[trace.Category]int64
	// Bytes sums requested object sizes per category (Fig. 2b,
	// "request size": the total size of objects requested).
	Bytes map[trace.Category]int64
}

// newCategoryBreakdown allocates empty maps.
func newCategoryBreakdown() *CategoryBreakdown {
	return &CategoryBreakdown{
		Objects:  map[trace.Category]int64{},
		Requests: map[trace.Category]int64{},
		Bytes:    map[trace.Category]int64{},
	}
}

// TotalObjects sums distinct objects across categories.
func (b *CategoryBreakdown) TotalObjects() int64 {
	var n int64
	for _, v := range b.Objects {
		n += v
	}
	return n
}

// TotalRequests sums requests across categories.
func (b *CategoryBreakdown) TotalRequests() int64 {
	var n int64
	for _, v := range b.Requests {
		n += v
	}
	return n
}

// TotalBytes sums requested bytes across categories.
func (b *CategoryBreakdown) TotalBytes() int64 {
	var n int64
	for _, v := range b.Bytes {
		n += v
	}
	return n
}

// ObjectFrac returns the category's share of distinct objects.
func (b *CategoryBreakdown) ObjectFrac(c trace.Category) float64 {
	t := b.TotalObjects()
	if t == 0 {
		return 0
	}
	return float64(b.Objects[c]) / float64(t)
}

// RequestFrac returns the category's share of requests.
func (b *CategoryBreakdown) RequestFrac(c trace.Category) float64 {
	t := b.TotalRequests()
	if t == 0 {
		return 0
	}
	return float64(b.Requests[c]) / float64(t)
}

// ByteFrac returns the category's share of requested bytes.
func (b *CategoryBreakdown) ByteFrac(c trace.Category) float64 {
	t := b.TotalBytes()
	if t == 0 {
		return 0
	}
	return float64(b.Bytes[c]) / float64(t)
}

// compSite is the mutable per-site state of a Composition.
type compSite struct {
	requests [numCats]int64
	bytes    [numCats]int64
	// firstCat, by object slot, is one more than the catIndex the object
	// was first seen under (exact mode); zero for an object not seen yet.
	firstCat []uint8
	// objHLL is the distinct-object cardinality per category (bounded
	// mode); nil for a category without requests.
	objHLL [numCats]*sketch.HLL
}

// Composition accumulates Figs. 1, 2a and 2b: per-site object, request
// and byte composition by content category; exact mode tracks object
// identity. Bounded mode (Params.MemoryBudget > 0) replaces
// the per-object category with one HyperLogLog per site and category —
// a fixed 16 KiB each, relative standard error ~0.8% on object counts —
// while request and byte totals stay exact in both modes. An object
// requested under two categories counts toward each in bounded mode
// (exact mode keeps first-seen only); such conflicts do not occur in
// generated traces, where an object's category is a function of its ID.
type Composition struct {
	perSite[compSite]
	budget int
}

// newComposition creates an empty accumulator; budget 0 is exact, any
// positive budget switches distinct-object counting to HyperLogLog.
func newComposition(budget int) *Composition {
	c := &Composition{budget: budget}
	c.needs = exactNeeds(budget, needObjects)
	return c
}

// Add folds one record.
func (c *Composition) Add(r *trace.Record) { c.add(r, c.resolve(r)) }

func (c *Composition) add(r *trace.Record, k *recKey) {
	st := c.site(k.site)
	st.requests[k.cat]++
	st.bytes[k.cat] += r.ObjectSize
	if c.budget > 0 {
		if st.objHLL[k.cat] == nil {
			st.objHLL[k.cat] = sketch.NewHLL(0)
		}
		st.objHLL[k.cat].Add(k.objHash)
		return
	}
	if first := at(&st.firstCat, k.obj); *first == 0 {
		*first = k.cat + 1
	}
}

// Site returns the breakdown for one site, or nil if unseen.
func (c *Composition) Site(name string) *CategoryBreakdown {
	_, st := c.find(name)
	if st == nil {
		return nil
	}
	b := newCategoryBreakdown()
	for i, n := range st.requests {
		if n == 0 {
			continue
		}
		cat := category(uint8(i))
		b.Requests[cat] = n
		b.Bytes[cat] = st.bytes[i]
		if h := st.objHLL[i]; h != nil {
			b.Objects[cat] = int64(h.Estimate() + 0.5)
		}
	}
	for _, cat := range st.firstCat {
		if cat != 0 {
			b.Objects[category(cat-1)]++
		}
	}
	return b
}
