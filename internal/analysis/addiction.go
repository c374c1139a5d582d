package analysis

import (
	"cmp"
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
// every growth, Addiction logs one 8-byte pair per request in a
// chunkLog, as Sessions logs its events: folding appends, and the first
// query after a fold merges the log once, a run of one pair being one
// pair and a run of one object one object, into per-object counts that
// the next queries read until a record is folded again.
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
	// log holds the (object slot, user slot) pair of every request.
	log chunkLog[pair]
	// objs is the log's count per object slot, as of log generation gen.
	objs []objectPairs
	gen  uint64
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

// pair is a chunkLog entry ordered by object slot, then user slot.
type pair uint64

func pairOf(obj, user uint32) pair { return pair(obj)<<32 | pair(user) }

func (p pair) compare(q pair) int { return cmp.Compare(p, q) }

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
	c.log.append(pairOf(obj, user))
}

// compact drops the pairs of evicted objects, renumbers the rest and
// forgets users left without a pair, after the sample shrank. The log
// and the user table are rebuilt in their own storage, and the users
// that stay keep their order.
func (c *addictionCat) compact(evict []uint32) {
	c.live = slices.Grow(c.live[:0], len(c.users.keys))[:len(c.users.keys)]
	clear(c.live)
	for _, chunk := range c.log.chunks {
		for _, p := range chunk {
			if evict[p>>32] != noSlot {
				c.live[uint32(p)] = true
			}
		}
	}
	users := c.users.compact(func(s int, _ uint64) bool { return c.live[s] })
	c.log.filter(func(p *pair) bool {
		obj := evict[*p>>32]
		if obj == noSlot {
			return false
		}
		*p = pairOf(obj, users[uint32(*p)])
		return true
	})
}

// count returns the population's pairs counted per object slot, merging
// the log if anything was folded since the last query.
func (a *Addiction) count(c *addictionCat) []objectPairs {
	a.mu.Lock()
	defer a.mu.Unlock()
	if c.gen == c.log.gen {
		return c.objs
	}
	c.objs = c.objs[:0]
	var cur pair
	var n int64
	flush := func() {
		o := at(&c.objs, uint32(cur>>32))
		o.requests += n
		o.users++
		o.maxPerUser = max(o.maxPerUser, n)
	}
	c.log.inOrder(func(p pair) {
		if n > 0 && p != cur {
			flush()
			n = 0
		}
		cur, n = p, n+1
	})
	if n > 0 {
		flush()
	}
	c.gen = c.log.gen
	return c.objs
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
