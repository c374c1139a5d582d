package analysis

// The map-based accumulators the slot-indexed analyzers replaced, kept
// (exact mode only) as the reference the differential test folds the
// same records into: one map per site keyed by real object and user
// IDs, every key hashed by every analyzer.

import (
	"math"
	"sort"
	"time"

	"trafficscope/internal/stats"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

type refSessions struct {
	timeout time.Duration
	sites   map[string]map[uint64][]int64
}

// newRefSessions creates an accumulator with the given session timeout
// (zero defaults to 10 minutes).
func newRefSessions(timeout time.Duration) *refSessions {
	if timeout <= 0 {
		timeout = DefaultSessionTimeout
	}
	return &refSessions{timeout: timeout, sites: map[string]map[uint64][]int64{}}
}

// Add folds one record.
func (s *refSessions) Add(r *trace.Record) {
	site, ok := s.sites[r.Publisher]
	if !ok {
		site = map[uint64][]int64{}
		s.sites[r.Publisher] = site
	}
	site[r.UserID] = append(site[r.UserID], r.Timestamp.UnixNano())
}

// Merge folds another accumulator in.
func (s *refSessions) Merge(o *refSessions) {
	for site, users := range o.sites {
		mine, ok := s.sites[site]
		if !ok {
			mine = map[uint64][]int64{}
			s.sites[site] = mine
		}
		for u, ts := range users {
			mine[u] = append(mine[u], ts...)
		}
	}
}

// Sites returns the analyzed site names, sorted.
func (s *refSessions) Sites() []string {
	out := make([]string, 0, len(s.sites))
	for site := range s.sites {
		out = append(out, site)
	}
	sort.Strings(out)
	return out
}

// IATSeconds returns every consecutive same-user request gap for the
// site, in seconds (Fig. 11).
func (s *refSessions) IATSeconds(site string) []float64 {
	users, ok := s.sites[site]
	if !ok {
		return nil
	}
	var out []float64
	for _, ts := range users {
		if len(ts) < 2 {
			continue
		}
		sorted := sortedTimes(ts)
		for i := 1; i < len(sorted); i++ {
			out = append(out, time.Duration(sorted[i]-sorted[i-1]).Seconds())
		}
	}
	return out
}

// IATCDF returns the ECDF of same-user request gaps in seconds, or nil
// when no user has two requests.
func (s *refSessions) IATCDF(site string) *stats.ECDF {
	iats := s.IATSeconds(site)
	if len(iats) == 0 {
		return nil
	}
	return stats.MustECDF(iats)
}

// SessionsOf reconstructs the site's sessions: consecutive same-user
// requests within the timeout belong to one session (Fig. 12).
func (s *refSessions) SessionsOf(site string) []Session {
	users, ok := s.sites[site]
	if !ok {
		return nil
	}
	var out []Session
	for u, ts := range users {
		sorted := sortedTimes(ts)
		start := sorted[0]
		last := sorted[0]
		n := 1
		for i := 1; i < len(sorted); i++ {
			if time.Duration(sorted[i]-last) > s.timeout {
				out = append(out, Session{User: u, Start: time.Unix(0, start).UTC(), Length: time.Duration(last - start), Requests: n})
				start = sorted[i]
				n = 0
			}
			last = sorted[i]
			n++
		}
		out = append(out, Session{User: u, Start: time.Unix(0, start).UTC(), Length: time.Duration(last - start), Requests: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].User < out[j].User // deterministic tiebreak
	})
	return out
}

// SessionLengthCDF returns the ECDF of session lengths in seconds.
func (s *refSessions) SessionLengthCDF(site string) *stats.ECDF {
	sess := s.SessionsOf(site)
	if len(sess) == 0 {
		return nil
	}
	sample := make([]float64, len(sess))
	for i, ses := range sess {
		sample[i] = ses.Length.Seconds()
	}
	return stats.MustECDF(sample)
}

// MeanRequestsPerSession returns the average session size.
func (s *refSessions) MeanRequestsPerSession(site string) float64 {
	sess := s.SessionsOf(site)
	if len(sess) == 0 {
		return 0
	}
	var total float64
	for _, ses := range sess {
		total += float64(ses.Requests)
	}
	return total / float64(len(sess))
}

// TimeoutKnee estimates the session-timeout knee of a site's IAT
// distribution: the sparsest point (in log-time) between the
// within-session mode (seconds to minutes) and the cross-session mode
// (hours to days). The paper picks its 10-minute timeout this way ("We
// set the timeout value for user sessions at 10 minutes based on our
// earlier analysis of user request IAT distributions"). Returns zero
// when the distribution has no usable gap.
func (s *refSessions) TimeoutKnee(site string) time.Duration {
	iats := s.IATSeconds(site)
	if len(iats) < 20 {
		return 0
	}
	// Log-spaced histogram from 1 second to 1 week.
	const bins = 36
	lo, hi := math.Log(1.0), math.Log(7*24*3600.0)
	counts := make([]float64, bins)
	for _, x := range iats {
		if x < 1 {
			x = 1
		}
		b := int((math.Log(x) - lo) / (hi - lo) * bins)
		if b < 0 {
			b = 0
		}
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	// Peak below ~30 min and peak above; knee = sparsest bin between.
	cut := int((math.Log(1800.0) - lo) / (hi - lo) * bins)
	peakA, peakB := 0, cut
	for b := 1; b < cut; b++ {
		if counts[b] > counts[peakA] {
			peakA = b
		}
	}
	for b := cut; b < bins; b++ {
		if counts[b] > counts[peakB] {
			peakB = b
		}
	}
	if peakB <= peakA+1 || counts[peakA] == 0 || counts[peakB] == 0 {
		return 0
	}
	// Sparsest density between the modes; with ties (typically a run of
	// empty bins) take the center of the widest minimal run, which is
	// the most robust cut point.
	minCount := counts[peakA+1]
	for b := peakA + 1; b < peakB; b++ {
		if counts[b] < minCount {
			minCount = counts[b]
		}
	}
	bestStart, bestLen := -1, 0
	runStart := -1
	for b := peakA + 1; b <= peakB; b++ {
		if b < peakB && counts[b] == minCount {
			if runStart < 0 {
				runStart = b
			}
			continue
		}
		if runStart >= 0 {
			if l := b - runStart; l > bestLen {
				bestStart, bestLen = runStart, l
			}
			runStart = -1
		}
	}
	if bestStart < 0 {
		return 0
	}
	knee := float64(bestStart) + float64(bestLen)/2
	center := math.Exp(lo + knee/bins*(hi-lo))
	return time.Duration(center * float64(time.Second))
}

func sortedTimes(ts []int64) []int64 {
	out := make([]int64, len(ts))
	copy(out, ts)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

type refAddiction struct {
	sites map[string]map[trace.Category]map[refPairKey]int64
}

type refPairKey struct {
	obj  uint64
	user uint64
}

// newRefAddiction creates an empty accumulator.
func newRefAddiction() *refAddiction {
	return &refAddiction{sites: map[string]map[trace.Category]map[refPairKey]int64{}}
}

// Add folds one record.
func (a *refAddiction) Add(r *trace.Record) {
	site, ok := a.sites[r.Publisher]
	if !ok {
		site = map[trace.Category]map[refPairKey]int64{}
		a.sites[r.Publisher] = site
	}
	cat := r.Category()
	pairs, ok := site[cat]
	if !ok {
		pairs = map[refPairKey]int64{}
		site[cat] = pairs
	}
	pairs[refPairKey{obj: r.ObjectID, user: r.UserID}]++
}

// Merge folds another accumulator in.
func (a *refAddiction) Merge(o *refAddiction) {
	for site, cats := range o.sites {
		mine, ok := a.sites[site]
		if !ok {
			mine = map[trace.Category]map[refPairKey]int64{}
			a.sites[site] = mine
		}
		for cat, pairs := range cats {
			m, ok := mine[cat]
			if !ok {
				m = map[refPairKey]int64{}
				mine[cat] = m
			}
			for k, n := range pairs {
				m[k] += n
			}
		}
	}
}

// Sites returns the analyzed site names, sorted.
func (a *refAddiction) Sites() []string {
	out := make([]string, 0, len(a.sites))
	for s := range a.sites {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Scatter returns (requests, users) per object for the site and category.
func (a *refAddiction) Scatter(site string, cat trace.Category) []ObjectPoint {
	site2, ok := a.sites[site]
	if !ok {
		return nil
	}
	agg := map[uint64]*ObjectPoint{}
	for k, n := range site2[cat] {
		p, ok := agg[k.obj]
		if !ok {
			p = &ObjectPoint{Object: k.obj}
			agg[k.obj] = p
		}
		p.Requests += n
		p.Users++
	}
	out := make([]ObjectPoint, 0, len(agg))
	for _, p := range agg {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Requests > out[j].Requests })
	return out
}

// MaxRequestsPerUser returns, per object, the maximum number of requests
// any single user issued for it.
func (a *refAddiction) MaxRequestsPerUser(site string, cat trace.Category) map[uint64]int64 {
	site2, ok := a.sites[site]
	if !ok {
		return nil
	}
	out := map[uint64]int64{}
	for k, n := range site2[cat] {
		if n > out[k.obj] {
			out[k.obj] = n
		}
	}
	return out
}

// FracObjectsAbove returns the fraction of objects whose per-user repeat
// maximum exceeds the threshold.
func (a *refAddiction) FracObjectsAbove(site string, cat trace.Category, threshold int64) float64 {
	maxes := a.MaxRequestsPerUser(site, cat)
	if len(maxes) == 0 {
		return 0
	}
	var above int
	for _, n := range maxes {
		if n > threshold {
			above++
		}
	}
	return float64(above) / float64(len(maxes))
}

type refAging struct {
	week  timeutil.Week
	sites map[string]map[uint64]*[7]bool // site -> object -> requested-on-day
}

// newRefAging creates an accumulator over the given trace week.
func newRefAging(week timeutil.Week) *refAging {
	return &refAging{week: week, sites: map[string]map[uint64]*[7]bool{}}
}

// Add folds one record; records outside the week are ignored.
func (a *refAging) Add(r *trace.Record) {
	hour := hourIndex(a.week, r.Timestamp)
	if hour < 0 {
		return
	}
	day := hour / 24
	site, ok := a.sites[r.Publisher]
	if !ok {
		site = map[uint64]*[7]bool{}
		a.sites[r.Publisher] = site
	}
	days, ok := site[r.ObjectID]
	if !ok {
		days = &[7]bool{}
		site[r.ObjectID] = days
	}
	days[day] = true
}

// Merge folds another accumulator in.
func (a *refAging) Merge(o *refAging) {
	for site, objs := range o.sites {
		mine, ok := a.sites[site]
		if !ok {
			mine = map[uint64]*[7]bool{}
			a.sites[site] = mine
		}
		for id, days := range objs {
			m, ok := mine[id]
			if !ok {
				m = &[7]bool{}
				mine[id] = m
			}
			for d, hit := range days {
				if hit {
					m[d] = true
				}
			}
		}
	}
}

// Sites returns the analyzed site names, sorted.
func (a *refAging) Sites() []string {
	out := make([]string, 0, len(a.sites))
	for s := range a.sites {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Curve returns, for ages 1..7, the fraction of the site's objects
// requested at that age. Index 0 is age 1 (always 1.0 by construction:
// every object is requested on its first-seen day).
func (a *refAging) Curve(site string) [7]float64 {
	var curve [7]float64
	objs, ok := a.sites[site]
	if !ok {
		return curve
	}
	var requested, observable [7]int64
	for _, days := range objs {
		first := -1
		for d, hit := range days {
			if hit {
				first = d
				break
			}
		}
		if first < 0 {
			continue
		}
		for age := 0; age < 7; age++ {
			day := first + age
			if day >= 7 {
				break // age not observable within the trace
			}
			observable[age]++
			if days[day] {
				requested[age]++
			}
		}
	}
	for age := 0; age < 7; age++ {
		if observable[age] > 0 {
			curve[age] = float64(requested[age]) / float64(observable[age])
		}
	}
	return curve
}

// FracAliveAllWeek returns the fraction of the site's requested objects
// that received requests on every day of the week ("only about 10% of
// objects are requested throughout the trace duration of one week").
func (a *refAging) FracAliveAllWeek(site string) float64 {
	objs, ok := a.sites[site]
	if !ok || len(objs) == 0 {
		return 0
	}
	var alive int64
	for _, days := range objs {
		all := true
		for _, hit := range days {
			if !hit {
				all = false
				break
			}
		}
		if all {
			alive++
		}
	}
	return float64(alive) / float64(len(objs))
}

type refCaching struct {
	sites map[string]*refCachingSite
}

type refCachingSite struct {
	// per object: lookups and hits (only records with a cache verdict)
	lookups map[uint64]int64
	hits    map[uint64]int64
	objCat  map[uint64]trace.Category
	// response code counts per category
	codes map[trace.Category]map[int]int64
	// exact site-wide totals (independent of object sampling)
	totalLookups int64
	totalHits    int64
}

func newRefCachingSite() *refCachingSite {
	return &refCachingSite{
		lookups: map[uint64]int64{},
		hits:    map[uint64]int64{},
		objCat:  map[uint64]trace.Category{},
		codes:   map[trace.Category]map[int]int64{},
	}
}

// newRefCaching creates an empty accumulator.
func newRefCaching() *refCaching {
	return &refCaching{sites: map[string]*refCachingSite{}}
}

// Add folds one record.
func (c *refCaching) Add(r *trace.Record) {
	s, ok := c.sites[r.Publisher]
	if !ok {
		s = newRefCachingSite()
		c.sites[r.Publisher] = s
	}
	cat := r.Category()
	codes, ok := s.codes[cat]
	if !ok {
		codes = map[int]int64{}
		s.codes[cat] = codes
	}
	codes[r.StatusCode]++
	if r.Cache == trace.CacheUnknown {
		return
	}
	s.totalLookups++
	if r.Cache == trace.CacheHit {
		s.totalHits++
	}
	s.lookups[r.ObjectID]++
	if r.Cache == trace.CacheHit {
		s.hits[r.ObjectID]++
	}
	if _, seen := s.objCat[r.ObjectID]; !seen {
		s.objCat[r.ObjectID] = cat
	}
}

// Merge folds another accumulator in.
func (c *refCaching) Merge(o *refCaching) {
	for site, os := range o.sites {
		s, ok := c.sites[site]
		if !ok {
			s = newRefCachingSite()
			c.sites[site] = s
		}
		s.totalLookups += os.totalLookups
		s.totalHits += os.totalHits
		for id, n := range os.lookups {
			s.lookups[id] += n
		}
		for id, n := range os.hits {
			s.hits[id] += n
		}
		for id, cat := range os.objCat {
			if _, seen := s.objCat[id]; !seen {
				s.objCat[id] = cat
			}
		}
		for cat, codes := range os.codes {
			mine, ok := s.codes[cat]
			if !ok {
				mine = map[int]int64{}
				s.codes[cat] = mine
			}
			for code, n := range codes {
				mine[code] += n
			}
		}
	}
}

// Sites returns the analyzed site names, sorted.
func (c *refCaching) Sites() []string {
	out := make([]string, 0, len(c.sites))
	for s := range c.sites {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// HitRatioCDF returns the ECDF of per-object hit ratios for the site and
// category (Fig. 15). Objects without cache-annotated requests are
// excluded.
func (c *refCaching) HitRatioCDF(site string, cat trace.Category) *stats.ECDF {
	s, ok := c.sites[site]
	if !ok {
		return nil
	}
	var sample []float64
	for id, lookups := range s.lookups {
		if s.objCat[id] != cat || lookups == 0 {
			continue
		}
		sample = append(sample, float64(s.hits[id])/float64(lookups))
	}
	if len(sample) == 0 {
		return nil
	}
	return stats.MustECDF(sample)
}

// WeightedHitRatio returns the site's request-weighted hit ratio across
// all categories ("overall CDN cache hit ratios range between 80-90%").
// The ratio comes from exact site-wide counters, so it carries no
// sampling error in bounded mode.
func (c *refCaching) WeightedHitRatio(site string) float64 {
	s, ok := c.sites[site]
	if !ok || s.totalLookups == 0 {
		return 0
	}
	return float64(s.totalHits) / float64(s.totalLookups)
}

// PopularityHitCorrelation returns the Spearman correlation between
// per-object request counts and hit ratios ("popular objects tend to have
// higher hit ratios (more than 0.9 correlation coefficient)"). Rank
// correlation is used because popularity is heavy-tailed.
func (c *refCaching) PopularityHitCorrelation(site string) float64 {
	s, ok := c.sites[site]
	if !ok {
		return 0
	}
	var pops, ratios []float64
	for id, lookups := range s.lookups {
		if lookups == 0 {
			continue
		}
		pops = append(pops, float64(lookups))
		ratios = append(ratios, float64(s.hits[id])/float64(lookups))
	}
	return stats.Spearman(pops, ratios)
}

// HitRatioByPopularityDecile buckets the site's objects into popularity
// deciles (decile 0 = least requested tenth) and returns the mean hit
// ratio per decile — the mechanism behind the paper's >0.9 popularity-
// hit correlation claim, shown as a curve rather than one coefficient.
func (c *refCaching) HitRatioByPopularityDecile(site string) []float64 {
	s, ok := c.sites[site]
	if !ok || len(s.lookups) == 0 {
		return nil
	}
	type obj struct {
		id      uint64
		lookups int64
		ratio   float64
	}
	objs := make([]obj, 0, len(s.lookups))
	for id, lookups := range s.lookups {
		if lookups == 0 {
			continue
		}
		objs = append(objs, obj{id: id, lookups: lookups, ratio: float64(s.hits[id]) / float64(lookups)})
	}
	if len(objs) < 10 {
		return nil
	}
	// Tie-break equal lookup counts by id: objs comes from map iteration,
	// and without a total order equal-popularity objects would land in
	// different deciles from run to run.
	sort.Slice(objs, func(i, j int) bool {
		if objs[i].lookups != objs[j].lookups {
			return objs[i].lookups < objs[j].lookups
		}
		return objs[i].id < objs[j].id
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
func (c *refCaching) ResponseCodes(site string, cat trace.Category) map[int]int64 {
	s, ok := c.sites[site]
	if !ok {
		return nil
	}
	codes := s.codes[cat]
	out := make(map[int]int64, len(codes))
	for code, n := range codes {
		out[code] = n
	}
	return out
}

// CodeFrac returns the fraction of the site's category requests with the
// given status code.
func (c *refCaching) CodeFrac(site string, cat trace.Category, code int) float64 {
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

type refPopularity struct {
	sites map[string]map[trace.Category]map[uint64]int64
}

// newRefPopularity creates an empty accumulator.
func newRefPopularity() *refPopularity {
	return &refPopularity{sites: map[string]map[trace.Category]map[uint64]int64{}}
}

// Add folds one record.
func (p *refPopularity) Add(r *trace.Record) {
	site, ok := p.sites[r.Publisher]
	if !ok {
		site = map[trace.Category]map[uint64]int64{}
		p.sites[r.Publisher] = site
	}
	cat := r.Category()
	objs, ok := site[cat]
	if !ok {
		objs = map[uint64]int64{}
		site[cat] = objs
	}
	objs[r.ObjectID]++
}

// Merge folds another accumulator in.
func (p *refPopularity) Merge(o *refPopularity) {
	for site, cats := range o.sites {
		mine, ok := p.sites[site]
		if !ok {
			mine = map[trace.Category]map[uint64]int64{}
			p.sites[site] = mine
		}
		for cat, objs := range cats {
			m, ok := mine[cat]
			if !ok {
				m = map[uint64]int64{}
				mine[cat] = m
			}
			for id, n := range objs {
				m[id] += n
			}
		}
	}
}

// Sites returns the analyzed site names, sorted.
func (p *refPopularity) Sites() []string {
	out := make([]string, 0, len(p.sites))
	for site := range p.sites {
		out = append(out, site)
	}
	sort.Strings(out)
	return out
}

// Counts returns the per-object request counts for the site and category,
// sorted descending (rank order).
func (p *refPopularity) Counts(site string, cat trace.Category) []int64 {
	site2, ok := p.sites[site]
	if !ok {
		return nil
	}
	objs := site2[cat]
	out := make([]int64, 0, len(objs))
	for _, n := range objs {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	return out
}

// RequestCounts returns per-object request counts keyed by object ID,
// summed over the categories an object is served under.
func (p *refPopularity) RequestCounts(site string) map[uint64]int64 {
	site2, ok := p.sites[site]
	if !ok {
		return nil
	}
	out := map[uint64]int64{}
	for _, objs := range site2 {
		for id, n := range objs {
			out[id] += n
		}
	}
	return out
}

// CDF returns the ECDF of per-object request counts, the paper's Fig. 6
// presentation.
func (p *refPopularity) CDF(site string, cat trace.Category) *stats.ECDF {
	counts := p.Counts(site, cat)
	if len(counts) == 0 {
		return nil
	}
	sample := make([]float64, len(counts))
	for i, n := range counts {
		sample[i] = float64(n)
	}
	return stats.MustECDF(sample)
}

// ZipfExponent fits the popularity skew of the site's category.
func (p *refPopularity) ZipfExponent(site string, cat trace.Category) float64 {
	return stats.FitZipf(p.Counts(site, cat))
}

// TopShare returns the fraction of requests absorbed by the most popular
// frac of objects (e.g. TopShare(site, cat, 0.1) = share of the top 10%),
// quantifying the long tail.
func (p *refPopularity) TopShare(site string, cat trace.Category, frac float64) float64 {
	counts := p.Counts(site, cat)
	if len(counts) == 0 || frac <= 0 {
		return 0
	}
	k := int(float64(len(counts)) * frac)
	if k < 1 {
		k = 1
	}
	if k > len(counts) {
		k = len(counts)
	}
	var top, total int64
	for i, n := range counts {
		total += n
		if i < k {
			top += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(top) / float64(total)
}
