package analysis

import (
	"slices"
	"sort"
	"sync"

	"trafficscope/internal/trace"
)

// Addiction accumulates Figs. 13 and 14: repeated per-user access to the
// same object. Fig. 13 scatters per-object total requests against
// distinct users; Fig. 14 is the CDF of requests per (user, object) pair,
// which separates "viral" objects (many users, few repeats) from
// "addictive" ones (few users, many repeats).
//
// Both need a request count per (object, user) pair, and the pairs grow
// with the trace. Rather than count them in a map, which allocates at
// every growth, Addiction logs one 8-byte key per request and counts the
// pairs at the first query, as Sessions orders its events: folding
// appends, and the fold worker sorts each chunk of the log as it fills;
// the first query sorts the last chunk and merges them all, a run of one
// key being one pair and a run of one object one object. What the
// queries read is kept per object until the next record is folded.
//
// Bounded mode (Params.MemoryBudget > 0) samples *objects*: all (user,
// object) pairs of a uniformly sampled object subset are kept exactly,
// so per-object statistics (Scatter points) are exact for the sampled
// objects and the object-level fractions (FracObjectsAbove) are unbiased
// estimates with relative standard error ~ 1/sqrt(budget).
type Addiction struct {
	perSite[[numCats]addictionCat]
	budget int
	// mu guards the lazy count, so that concurrent queries stay as safe
	// as they were when queries only read.
	mu sync.Mutex
}

// addictionCat is the state of one (site, category) population.
type addictionCat struct {
	// log holds pairKey(object slot, user slot) per request; every full
	// chunk is sorted.
	log chunkLog[uint64]
	// objs is the log's count per object slot, current while
	// log.settled.
	objs []objectPairs
	// In bounded mode the object slots are those of the population's
	// sample, and the user slots those of a table of its own holding
	// only the users of sampled objects.
	keys  boundedKeys
	users idTable
	live  []bool // compact's scratch: by user slot, the user keeps a pair
}

// objectPairs counts one object's pairs: its requests, its distinct
// users and the most requests any one user issued for it.
type objectPairs struct {
	requests, users, maxPerUser int64
}

func pairKey(obj, user uint32) uint64 { return uint64(obj)<<32 | uint64(user) }

// newAddiction creates an empty accumulator; budget 0 is exact, a
// positive budget caps tracked objects per site and category.
func newAddiction(budget int) *Addiction {
	a := &Addiction{budget: budget}
	a.needs = exactNeeds(budget, needObjects|needUsers)
	return a
}

// Add folds one record.
func (a *Addiction) Add(r *trace.Record) { a.add(r, a.resolve(r)) }

func (a *Addiction) add(r *trace.Record, k *recKey) {
	c := &a.site(k.site)[k.cat]
	obj, user := k.obj, k.user
	if a.budget > 0 {
		var ok bool
		if obj, ok = c.keys.admit(a.budget, r.ObjectID, k.objHash, c.compact); !ok {
			return
		}
		user = c.users.slot(r.UserID)
	}
	c.append(pairKey(obj, user))
}

// append logs one request, sorting the chunk it fills.
func (c *addictionCat) append(k uint64) {
	if full := c.log.append(k); full != nil {
		slices.Sort(full)
	}
}

// compact drops the pairs of evicted objects, renumbers the rest and
// forgets users left without a pair, after the sample shrank. The log
// and the user table are rebuilt in their own storage: the users that
// stay keep their order, and every chunk is sorted again.
func (c *addictionCat) compact(evict []uint32) {
	c.live = slices.Grow(c.live[:0], len(c.users.keys))[:len(c.users.keys)]
	clear(c.live)
	c.log.filter(func(k *uint64) bool {
		obj := evict[*k>>32]
		if obj == noSlot {
			return false
		}
		c.live[uint32(*k)] = true
		*k = pairKey(obj, uint32(*k))
		return true
	})
	users := c.users.compact(func(s int, _ uint64) bool { return c.live[s] })
	for _, chunk := range c.log.chunks {
		for i, k := range chunk {
			chunk[i] = pairKey(uint32(k>>32), users[uint32(k)])
		}
		slices.Sort(chunk)
	}
}

// count returns the population's pairs counted per object slot, merging
// the log if anything was folded since the last query.
func (a *Addiction) count(c *addictionCat) []objectPairs {
	a.mu.Lock()
	defer a.mu.Unlock()
	if c.log.settled {
		return c.objs
	}
	slots := 0
	for i, chunk := range c.log.chunks {
		if i == len(c.log.chunks)-1 {
			slices.Sort(chunk) // the one chunk that may have room
		}
		if len(chunk) > 0 {
			slots = max(slots, int(chunk[len(chunk)-1]>>32)+1)
		}
	}
	c.objs = slices.Grow(c.objs[:0], slots)[:slots]
	clear(c.objs)
	eachRun(c.log.chunks, func(k uint64, n int64) {
		p := &c.objs[k>>32]
		p.requests += n
		p.users++
		p.maxPerUser = max(p.maxPerUser, n)
	})
	c.log.settled = true
	return c.objs
}

// eachRun calls fn once per distinct value of the sorted runs, in
// ascending order, with the number of times it occurs in them all: a
// k-way merge over a min-heap of the runs, ordered by their first
// values.
func eachRun(runs [][]uint64, fn func(v uint64, n int64)) {
	h := make([][]uint64, 0, len(runs))
	for _, r := range runs {
		if len(r) > 0 {
			h = append(h, r)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	var cur uint64
	var n int64
	for len(h) > 0 {
		r := h[0]
		j := 1
		for j < len(r) && r[j] == r[0] {
			j++
		}
		if n > 0 && r[0] != cur {
			fn(cur, n)
			n = 0
		}
		cur, n = r[0], n+int64(j)
		if h[0] = r[j:]; j == len(r) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	if n > 0 {
		fn(cur, n)
	}
}

// siftDown restores the min-heap order of h below i.
func siftDown(h [][]uint64, i int) {
	for {
		least := i
		if l := 2*i + 1; l < len(h) && h[l][0] < h[least][0] {
			least = l
		}
		if r := 2*i + 2; r < len(h) && h[r][0] < h[least][0] {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// ObjectPoint is one object in the Fig. 13 scatter.
type ObjectPoint struct {
	Object   uint64
	Requests int64
	Users    int64
}

// population returns the state of one (site, category) population and
// the slot → ID list of its objects; c is nil when there is none.
func (a *Addiction) population(site string, cat trace.Category) (c *addictionCat, ids []uint64) {
	si, st := a.find(site)
	ci, ok := catIndex(cat)
	if st == nil || !ok {
		return nil, nil
	}
	return &st[ci], a.objectIDs(si, st[ci].keys.keys)
}

// Scatter returns (requests, users) per object for the site and category.
func (a *Addiction) Scatter(site string, cat trace.Category) []ObjectPoint {
	c, ids := a.population(site, cat)
	if c == nil {
		return nil
	}
	objs := a.count(c)
	out := make([]ObjectPoint, 0, len(objs))
	for slot, p := range objs {
		if p.users > 0 {
			out = append(out, ObjectPoint{Object: ids[slot], Requests: p.requests, Users: p.users})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Requests > out[j].Requests })
	return out
}

// FracObjectsAbove returns the fraction of objects whose per-user repeat
// maximum exceeds the threshold.
func (a *Addiction) FracObjectsAbove(site string, cat trace.Category, threshold int64) float64 {
	c, _ := a.population(site, cat)
	if c == nil {
		return 0
	}
	var above, objects int
	for _, p := range a.count(c) {
		if p.users == 0 {
			continue
		}
		objects++
		if p.maxPerUser > threshold {
			above++
		}
	}
	if objects == 0 {
		return 0
	}
	return float64(above) / float64(objects)
}
