package analysis

import (
	"cmp"
	"slices"

	"trafficscope/internal/stats"
	"trafficscope/internal/trace"
)

// Caching accumulates Figs. 15 and 16 from a CDN-replayed trace: per-
// object cache hit ratios and HTTP response-code counts per category.
//
// Bounded mode (Params.MemoryBudget > 0) samples objects: per-object
// hit-ratio shapes (HitRatioCDF, the decile curve, the Spearman
// correlation) come from a uniform object sample of at most the budget
// per site, with sampling error ~ 1/sqrt(budget). The site-level
// request-weighted totals behind WeightedHitRatio are kept in exact
// scalar counters in both modes, and the per-category response-code
// table is tiny and always exact.
type Caching struct {
	perSite[cachingSite]
	budget int
}

type cachingSite struct {
	keys boundedKeys // bounded mode: the site's object sample
	// objs, by object slot, counts only records with a cache verdict.
	objs []objLookups
	// response code counts per category
	codes [numCats][]codeCount
	// exact site-wide totals (independent of object sampling)
	totalLookups int64
	totalHits    int64
}

// objLookups is one object's cache outcomes; lookups is zero for an
// object without a verdict yet.
type objLookups struct {
	lookups, hits int64
	cat           trace.Category // of the object's first verdict
}

// codeCount counts one response code. A category sees a handful of
// codes, so a scanned slice beats a map.
type codeCount struct {
	code int
	n    int64
}

// addCode adds n responses with the given code.
func addCode(codes *[]codeCount, code int, n int64) {
	for i := range *codes {
		if (*codes)[i].code == code {
			(*codes)[i].n += n
			return
		}
	}
	*codes = append(*codes, codeCount{code, n})
}

// newCaching creates an empty accumulator; budget 0 is exact, a
// positive budget caps tracked objects per site.
func newCaching(budget int) *Caching {
	c := &Caching{budget: budget}
	c.needs = exactNeeds(budget, needObjects)
	return c
}

// Add folds one record.
func (c *Caching) Add(r *trace.Record) { c.add(r, c.resolve(r)) }

func (c *Caching) add(r *trace.Record, k *recKey) {
	st := c.site(k.site)
	addCode(&st.codes[k.cat], r.StatusCode, 1)
	if r.Cache == trace.CacheUnknown {
		return
	}
	st.totalLookups++
	if r.Cache == trace.CacheHit {
		st.totalHits++
	}
	slot := k.obj
	if c.budget > 0 {
		var ok bool
		if slot, ok = st.keys.admit(c.budget, r.ObjectID, k.objHash, st.compact); !ok {
			return
		}
	}
	o := at(&st.objs, slot)
	if o.lookups == 0 {
		o.cat = category(k.cat)
	}
	o.lookups++
	if r.Cache == trace.CacheHit {
		o.hits++
	}
}

// absorb folds o's per-object state in, rm mapping o's slots to st's.
func (st *cachingSite) absorb(o *cachingSite, rm []uint32) {
	for slot, from := range o.objs {
		if rm[slot] == noSlot || from.lookups == 0 {
			continue
		}
		to := at(&st.objs, rm[slot])
		if to.lookups == 0 {
			to.cat = from.cat
		}
		to.lookups += from.lookups
		to.hits += from.hits
	}
}

// compact renumbers the tracked objects after the sample shrank.
func (st *cachingSite) compact(evict []uint32) {
	old := cachingSite{objs: st.objs}
	st.objs = nil
	st.absorb(&old, evict)
}

// hitRatios lists the lookups and hit ratio of every tracked object of
// the site, optionally only those of one category.
func (st *cachingSite) hitRatios(only trace.Category) (lookups, ratios []float64) {
	keep := func(o objLookups) bool { return o.lookups != 0 && (only == 0 || o.cat == only) }
	n := 0
	for _, o := range st.objs {
		if keep(o) {
			n++
		}
	}
	lookups, ratios = make([]float64, 0, n), make([]float64, 0, n)
	for _, o := range st.objs {
		if keep(o) {
			lookups = append(lookups, float64(o.lookups))
			ratios = append(ratios, float64(o.hits)/float64(o.lookups))
		}
	}
	return lookups, ratios
}

// HitRatioCDF returns the ECDF of per-object hit ratios for the site and
// category (Fig. 15). Objects without cache-annotated requests are
// excluded.
func (c *Caching) HitRatioCDF(site string, cat trace.Category) *stats.ECDF {
	_, st := c.find(site)
	if st == nil || cat == 0 {
		return nil
	}
	_, sample := st.hitRatios(cat)
	if len(sample) == 0 {
		return nil
	}
	return stats.MustECDF(sample)
}

// Verdicts returns how many of the site's requests carry a cache verdict.
func (c *Caching) Verdicts(site string) int64 {
	if _, st := c.find(site); st != nil {
		return st.totalLookups
	}
	return 0
}

// WeightedHitRatio returns the site's request-weighted hit ratio across
// all categories ("overall CDN cache hit ratios range between 80-90%").
// The ratio comes from exact site-wide counters, so it carries no
// sampling error in bounded mode.
func (c *Caching) WeightedHitRatio(site string) float64 {
	_, st := c.find(site)
	if st == nil || st.totalLookups == 0 {
		return 0
	}
	return float64(st.totalHits) / float64(st.totalLookups)
}

// PopularityHitCorrelation returns the Spearman correlation between
// per-object request counts and hit ratios ("popular objects tend to have
// higher hit ratios (more than 0.9 correlation coefficient)"). Rank
// correlation is used because popularity is heavy-tailed.
func (c *Caching) PopularityHitCorrelation(site string) float64 {
	_, st := c.find(site)
	if st == nil {
		return 0
	}
	return stats.Spearman(st.hitRatios(0))
}

// HitRatioByPopularityDecile buckets the site's objects into popularity
// deciles (decile 0 = least requested tenth) and returns the mean hit
// ratio per decile — the mechanism behind the paper's >0.9 popularity-
// hit correlation claim, shown as a curve rather than one coefficient.
func (c *Caching) HitRatioByPopularityDecile(site string) []float64 {
	si, st := c.find(site)
	if st == nil {
		return nil
	}
	ids := c.objectIDs(si, st.keys.keys)
	type obj struct {
		id      uint64
		lookups int64
		ratio   float64
	}
	var objs []obj
	for slot, o := range st.objs {
		if o.lookups == 0 {
			continue
		}
		objs = append(objs, obj{id: ids[slot], lookups: o.lookups, ratio: float64(o.hits) / float64(o.lookups)})
	}
	if len(objs) < 10 {
		return nil
	}
	// Tie-break equal lookup counts by id: slot order is the order the
	// objects were first requested in, and without a total order
	// equal-popularity objects would land in deciles that depend on it.
	slices.SortFunc(objs, func(a, b obj) int {
		return cmp.Or(cmp.Compare(a.lookups, b.lookups), cmp.Compare(a.id, b.id))
	})
	out := make([]float64, 10)
	for d := 0; d < 10; d++ {
		lo := d * len(objs) / 10
		hi := (d + 1) * len(objs) / 10
		if hi <= lo {
			hi = lo + 1
		}
		var sum float64
		for _, o := range objs[lo:hi] {
			sum += o.ratio
		}
		out[d] = sum / float64(hi-lo)
	}
	return out
}

// ResponseCodes returns the site's status-code counts for a category
// (Fig. 16).
func (c *Caching) ResponseCodes(site string, cat trace.Category) map[int]int64 {
	_, st := c.find(site)
	if st == nil {
		return nil
	}
	out := map[int]int64{}
	if ci, ok := catIndex(cat); ok {
		for _, cc := range st.codes[ci] {
			out[cc.code] = cc.n
		}
	}
	return out
}

// CodeFrac returns the fraction of the site's category requests with the
// given status code.
func (c *Caching) CodeFrac(site string, cat trace.Category, code int) float64 {
	codes := c.ResponseCodes(site, cat)
	var total, n int64
	for code2, cnt := range codes {
		total += cnt
		if code2 == code {
			n = cnt
		}
	}
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total)
}
