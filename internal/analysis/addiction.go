package analysis

import (
	"sort"

	"trafficscope/internal/trace"
)

// Addiction accumulates Figs. 13 and 14: repeated per-user access to the
// same object. Fig. 13 scatters per-object total requests against
// distinct users; Fig. 14 is the CDF of requests per (user, object) pair,
// which separates "viral" objects (many users, few repeats) from
// "addictive" ones (few users, many repeats).
//
// Bounded mode (Params.MemoryBudget > 0) samples *objects*: all (user,
// object) pairs of a uniformly sampled object subset are kept exactly,
// so per-object statistics (Scatter points) are exact for the sampled
// objects and the object-level fractions (FracObjectsAbove) are unbiased
// estimates with relative standard error ~ 1/sqrt(budget).
type Addiction struct {
	perSite[[numCats]addictionCat]
	budget int
}

// addictionCat is the state of one (site, category) population.
type addictionCat struct {
	// pairs counts requests per (object slot, user slot), packed by
	// pairKey.
	pairs map[uint64]int64
	// In bounded mode the object slots are those of the population's
	// sample, and the user slots those of a table of its own holding
	// only the users of sampled objects.
	keys  boundedKeys
	users idTable
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
	if c.pairs == nil {
		c.pairs = map[uint64]int64{}
	}
	c.pairs[pairKey(obj, user)]++
}

// absorb folds o's pairs in, objs and users mapping o's slots to c's.
func (c *addictionCat) absorb(o *addictionCat, objs, users []uint32) {
	if c.pairs == nil {
		c.pairs = make(map[uint64]int64, len(o.pairs))
	}
	for k, n := range o.pairs {
		if obj := objs[k>>32]; obj != noSlot {
			c.pairs[pairKey(obj, users[uint32(k)])] += n
		}
	}
}

// absorbSampled is absorb in bounded mode, where each side has its own
// user table: the users of o's surviving pairs join c's first.
func (c *addictionCat) absorbSampled(o *addictionCat, objs []uint32) {
	users := make([]uint32, len(o.users.keys))
	for k := range o.pairs {
		if u := uint32(k); objs[k>>32] != noSlot {
			users[u] = c.users.slot(o.users.keys[u])
		}
	}
	c.absorb(o, objs, users)
}

// compact drops the pairs of evicted objects, renumbers the rest and
// forgets users left without a pair, after the sample shrank.
func (c *addictionCat) compact(evict []uint32) {
	old := addictionCat{pairs: c.pairs, users: c.users}
	c.pairs, c.users = nil, idTable{}
	c.absorbSampled(&old, evict)
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
	pts := make([]ObjectPoint, len(ids))
	for k, n := range c.pairs {
		p := &pts[k>>32]
		p.Requests += n
		p.Users++
	}
	out := pts[:0]
	for slot, p := range pts {
		if p.Users > 0 {
			p.Object = ids[slot]
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Requests > out[j].Requests })
	return out
}

// maxPerUser returns, by object slot, the maximum number of requests any
// single user issued for the object; zero for a slot without requests.
func (c *addictionCat) maxPerUser(slots int) []int64 {
	out := make([]int64, slots)
	for k, n := range c.pairs {
		if n > out[k>>32] {
			out[k>>32] = n
		}
	}
	return out
}

// FracObjectsAbove returns the fraction of objects whose per-user repeat
// maximum exceeds the threshold.
func (a *Addiction) FracObjectsAbove(site string, cat trace.Category, threshold int64) float64 {
	c, ids := a.population(site, cat)
	if c == nil {
		return 0
	}
	var above, objects int
	for _, n := range c.maxPerUser(len(ids)) {
		if n == 0 {
			continue
		}
		objects++
		if n > threshold {
			above++
		}
	}
	if objects == 0 {
		return 0
	}
	return float64(above) / float64(objects)
}
