package analysis

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"trafficscope/internal/stats"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// foreignRecords draws n records no generator of this repository would
// emit: publishers the profiles do not know, timestamps before and after
// the week, one object ID served under two categories, records without
// a cache verdict, users and objects shared between sites, regions and
// status codes outside the defined sets.
func foreignRecords(rng *rand.Rand, n int) []trace.Record {
	sites := []string{"V-1", "P-2", "unknown.example", "zz", "another-publisher-with-a-long-name"}
	types := []trace.FileType{trace.FileMP4, trace.FileFLV, trace.FileJPG, trace.FileGIF, trace.FileJS, trace.FileHTML, "bin"}
	agents := []string{
		"Mozilla/5.0 (Windows NT 6.1) AppleWebKit/537.36 Chrome/45.0.2454.101 Safari/537.36",
		"Mozilla/5.0 (Linux; Android 5.1.1; Nexus 5) AppleWebKit/537.36 Chrome/45.0.2454.94 Mobile Safari/537.36",
		"Mozilla/5.0 (iPhone; CPU iPhone OS 9_0 like Mac OS X) AppleWebKit/601.1.46 Version/9.0 Mobile/13A344 Safari/601.1",
		"curl/7.43.0",
		"",
	}
	codes := []int{200, 200, 200, 206, 304, 403, 416, 204, 500, 999}
	recs := make([]trace.Record, n)
	for i := range recs {
		r := &recs[i]
		site := rng.Intn(len(sites))
		r.Publisher = sites[site]
		// Zipf-ish object and user draws from small pools, so that pairs,
		// sessions and multi-day objects occur. A fifth of the IDs are
		// shared by every site; the rest are offset per site.
		r.ObjectID = uint64(rng.ExpFloat64() * 300)
		r.UserID = uint64(rng.ExpFloat64() * 150)
		if r.ObjectID%5 != 0 {
			r.ObjectID += uint64(site) << 20
		}
		if r.UserID%5 != 0 {
			r.UserID += uint64(site) << 20
		}
		// An object keeps its file type, except every seventh, which is
		// served as video or image depending on the requesting user.
		r.FileType = types[r.ObjectID%uint64(len(types))]
		if r.ObjectID%7 == 0 {
			r.FileType = types[(r.ObjectID+r.UserID%2*2)%uint64(len(types))]
		}
		r.ObjectSize = int64(r.ObjectID%1000) * 1000
		r.BytesServed = r.ObjectSize
		r.UserAgent = agents[(r.UserID+uint64(rng.Intn(20)/19))%uint64(len(agents))]
		r.Region = timeutil.Region(rng.Intn(6)) // 0 and 5 are no region
		r.StatusCode = codes[rng.Intn(len(codes))]
		r.Cache = trace.CacheStatus(rng.Intn(3))
		// Nine in ten inside the week, in bursts so that sessions form;
		// the rest up to a week before or after, a few decades away.
		at := time.Duration(rng.Int63n(int64(timeutil.HoursPerWeek * time.Hour)))
		switch rng.Intn(40) {
		case 0, 1:
			at -= timeutil.HoursPerWeek * time.Hour
		case 2, 3:
			at += timeutil.HoursPerWeek * time.Hour
		case 4:
			at += 30 * 365 * 24 * time.Hour
		}
		if i > 0 && rng.Intn(3) > 0 {
			prev := &recs[i-1]
			r.Publisher, r.UserID, r.UserAgent = prev.Publisher, prev.UserID, prev.UserAgent
			at = prev.Timestamp.Sub(week.Start) + time.Duration(rng.Int63n(int64(15*time.Minute)))
		}
		r.Timestamp = week.Start.Add(at)
	}
	return recs
}

// refSet is the map-based reference for the analyzers that keep
// per-object or per-user state.
type refSet struct {
	sessions   *refSessions
	addiction  *refAddiction
	aging      *refAging
	caching    *refCaching
	popularity *refPopularity
}

func newRefSet() *refSet {
	return &refSet{newRefSessions(0), newRefAddiction(), newRefAging(week), newRefCaching(), newRefPopularity()}
}

func (s *refSet) add(r *trace.Record) {
	s.sessions.Add(r)
	s.addiction.Add(r)
	s.aging.Add(r)
	s.caching.Add(r)
	s.popularity.Add(r)
}

func (s *refSet) merge(o *refSet) {
	s.sessions.Merge(o.sessions)
	s.addiction.Merge(o.addiction)
	s.aging.Merge(o.aging)
	s.caching.Merge(o.caching)
	s.popularity.Merge(o.popularity)
}

// newSet is the same five analyzers of this package used stand-alone,
// each resolving through its private keyspace and merging by adoption.
type newSet struct {
	sessions   *Sessions
	addiction  *Addiction
	aging      *Aging
	caching    *Caching
	popularity *Popularity
}

func newNewSet(budget int) *newSet {
	return &newSet{newSessions(0, budget), newAddiction(budget), newAging(week, budget), newCaching(budget), newPopularity()}
}

func (s *newSet) add(r *trace.Record) {
	s.sessions.Add(r)
	s.addiction.Add(r)
	s.aging.Add(r)
	s.caching.Add(r)
	s.popularity.Add(r)
}

func (s *newSet) merge(o *newSet) {
	adoptAlone(s.sessions, o.sessions)
	adoptAlone(s.addiction, o.addiction)
	adoptAlone(s.aging, o.aging)
	adoptAlone(s.caching, o.caching)
	adoptAlone(s.popularity, o.popularity)
}

func setOfFold(f *Fold) *newSet {
	a := f.Analyzers()
	return &newSet{
		a["sessions"].(*Sessions), a["addiction"].(*Addiction), a["aging"].(*Aging),
		a["caching"].(*Caching), a["popularity"].(*Popularity),
	}
}

// TestSlotIndexedMatchesMapBased folds the same foreign records into the
// map-based reference, into a Fold and into stand-alone analyzers, and
// requires every accessor to agree. The by-publisher cells route the
// records over one to four workers by publisher, as the pipeline does,
// and merge the workers in random order, every merge adopting whole
// sites; the others fold the records whole, the path of a one-worker run
// and of the per-analyzer benchmark rows. Each runs exact and under a
// budget above the population, where the samples keep every key and
// must agree exactly. Halfway through the fold every worker's Sessions
// and Addiction are queried and compared, so the rest of the fold
// appends to logs a query has ordered. One more Addiction folds every
// record under a budget its samples overflow, before and after that
// query, and must match the reference restricted to the objects it
// keeps. The cells run in parallel, and each asks the reference once
// for the answers both sides must give.
func TestSlotIndexedMatchesMapBased(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 20_000
	}
	for trial := 0; trial < 4; trial++ {
		for _, byPublisher := range []bool{false, true} {
			for _, budget := range []int{0, 1 << 30} {
				workers := 1 + trial%4
				name := fmt.Sprintf("trial=%d/workers=%d", trial, workers)
				if byPublisher {
					name += "/by-publisher"
				}
				if budget > 0 {
					name += "/budget"
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					slotIndexedCell(t, n, trial, workers, byPublisher, budget)
				})
			}
		}
	}
}

// slotIndexedCell is one cell of TestSlotIndexedMatchesMapBased.
func slotIndexedCell(t *testing.T, n, trial, workers int, byPublisher bool, budget int) {
	rng := rand.New(rand.NewSource(int64(1000 + trial)))
	recs := foreignRecords(rng, n)
	shards := 1
	if byPublisher {
		shards = workers
	}
	refs := make([]*refSet, shards)
	folds := make([]*Fold, shards)
	alone := make([]*newSet, shards)
	for w := range refs {
		refs[w], folds[w], alone[w] = newRefSet(), NewFold(Registered(), Params{Week: week, MemoryBudget: budget}), newNewSet(budget)
	}
	// A bounded Addiction whose samples overflow: the reference
	// restricted to the objects it keeps must match it.
	sampled := newAddiction(sampledBudget)
	var halfway []uint8
	route := map[string]int{} // publisher → shard, round robin in first-seen order
	for i := range recs {
		if i == n/2 {
			// Query halfway, so that the rest of the fold appends to logs
			// a query has put in order, and in bounded mode compacts them.
			t.Run("halfway", func(t *testing.T) {
				for w := range refs {
					want := lazyAnswers(refs[w].view(), refs[w].sessions.Sites())
					compareAnswers(t, lazyAnswers(setOfFold(folds[w]).view(), refs[w].sessions.Sites()), want)
					compareAnswers(t, lazyAnswers(alone[w].view(), refs[w].sessions.Sites()), want)
				}
			})
			halfway = samplerHalvings(sampled)
			queryAll(sampled)
		}
		w, ok := route[recs[i].Publisher]
		if !ok {
			w = len(route) % shards
			route[recs[i].Publisher] = w
		}
		refs[w].add(&recs[i])
		folds[w].Add(&recs[i])
		alone[w].add(&recs[i])
		sampled.Add(&recs[i])
	}
	for len(refs) > 1 {
		dst, src := rng.Intn(len(refs)), rng.Intn(len(refs)-1)
		if src >= dst {
			src++
		}
		refs[dst].merge(refs[src])
		folds[dst].Merge(folds[src])
		alone[dst].merge(alone[src])
		refs, folds, alone = slices.Delete(refs, src, src+1), slices.Delete(folds, src, src+1), slices.Delete(alone, src, src+1)
	}
	if got := folds[0].Records(); got != int64(n) {
		t.Fatalf("trial %d: fold counted %d records, want %d", trial, got, n)
	}
	ref := refs[0]
	sites := ref.sessions.Sites()
	want := allAnswers(ref.view(), sites)
	t.Run("fold", func(t *testing.T) {
		requireFixture(t, ref)
		compareAnswers(t, allAnswers(setOfFold(folds[0]).view(), sites), want)
	})
	t.Run("alone", func(t *testing.T) {
		requireFixture(t, ref)
		compareAnswers(t, allAnswers(alone[0].view(), sites), want)
	})
	t.Run("sampled", func(t *testing.T) {
		compareSampled(t, ref.addiction, sampled, halfway)
	})
}

func sortedFloats(xs []float64) []float64 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

// byRequests orders scatter points totally; Scatter leaves ties in
// arbitrary order.
func byRequests(pts []ObjectPoint) []ObjectPoint {
	out := slices.Clone(pts)
	slices.SortFunc(out, func(a, b ObjectPoint) int {
		return cmp.Or(cmp.Compare(b.Requests, a.Requests), cmp.Compare(a.Object, b.Object))
	})
	return out
}

// eqLoose fails t unless g equals w, but for nil against empty and NaN
// against NaN.
func eqLoose(t *testing.T, what string, g, w any) {
	t.Helper()
	gv, wv := reflect.ValueOf(g), reflect.ValueOf(w)
	switch gv.Kind() {
	case reflect.Slice, reflect.Map:
		if gv.Len() == 0 && wv.Len() == 0 {
			return
		}
	case reflect.Float64:
		if math.IsNaN(gv.Float()) && math.IsNaN(wv.Float()) {
			return
		}
	}
	if !reflect.DeepEqual(g, w) {
		t.Errorf("%s:\n got  %v\n want %v", what, g, w)
	}
}

// testCats are the categories every per-category accessor is asked
// about: the three, and two values that name none.
var testCats = append(trace.AllCategories(), 0, 9)

// The accessors the test compares, which the map reference and this
// package's analyzers share.
type (
	sessionsView interface {
		Sites() []string
		IATCDF(site string) *stats.ECDF
		SessionsOf(site string) []Session
		SessionLengthCDF(site string) *stats.ECDF
		MeanRequestsPerSession(site string) float64
		TimeoutKnee(site string) time.Duration
	}
	addictionView interface {
		Sites() []string
		Scatter(site string, cat trace.Category) []ObjectPoint
		FracObjectsAbove(site string, cat trace.Category, threshold int64) float64
	}
	agingView interface {
		Sites() []string
		Curve(site string) [7]float64
		FracAliveAllWeek(site string) float64
	}
	cachingView interface {
		Sites() []string
		WeightedHitRatio(site string) float64
		PopularityHitCorrelation(site string) float64
		HitRatioByPopularityDecile(site string) []float64
		HitRatioCDF(site string, cat trace.Category) *stats.ECDF
		ResponseCodes(site string, cat trace.Category) map[int]int64
		CodeFrac(site string, cat trace.Category, code int) float64
	}
	popularityView interface {
		Sites() []string
		Counts(site string, cat trace.Category) []int64
		RequestCounts(site string) map[uint64]int64
		CDF(site string, cat trace.Category) *stats.ECDF
		ZipfExponent(site string, cat trace.Category) float64
		TopShare(site string, cat trace.Category, frac float64) float64
	}
)

// view is one side's five analyzers, seen through the shared accessors.
type view struct {
	sessions   sessionsView
	addiction  addictionView
	aging      agingView
	caching    cachingView
	popularity popularityView
}

func (s *refSet) view() view {
	return view{s.sessions, s.addiction, s.aging, s.caching, s.popularity}
}

func (s *newSet) view() view {
	return view{s.sessions, s.addiction, s.aging, s.caching, s.popularity}
}

// answer is what one accessor call returned, named by the call.
type answer struct {
	what string
	v    any
	// near compares within 1e-9: Spearman sums ranks in object order,
	// which differs between a map and a slot table.
	near bool
}

// answers collects a side's answers, in the order both sides ask.
type answers []answer

func (as *answers) add(what string, v any) { *as = append(*as, answer{what: what, v: v}) }

// compareAnswers requires every answer got to equal want's, but for nil
// against empty and NaN against NaN, or to be near it.
func compareAnswers(t *testing.T, got, want answers) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d answers, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.what != w.what {
			t.Fatalf("answer %d is %s, want %s", i, g.what, w.what)
		}
		if !w.near {
			eqLoose(t, w.what, g.v, w.v)
			continue
		}
		gf, wf := g.v.(float64), w.v.(float64)
		if !(math.Abs(gf-wf) <= 1e-9 || (math.IsNaN(gf) && math.IsNaN(wf))) {
			t.Errorf("%s: got %v, want %v", w.what, gf, wf)
		}
	}
}

// lazyAnswers asks the two analyzers that order their logs at the first
// query, Sessions and Addiction, about every site of sites and one never
// seen.
func lazyAnswers(v view, sites []string) answers {
	var as answers
	as.add("sessions sites", v.sessions.Sites())
	for _, site := range append(slices.Clone(sites), "never-seen") {
		s := "[" + site + "] "
		as.add(s+"IATCDF", v.sessions.IATCDF(site))
		as.add(s+"SessionsOf", v.sessions.SessionsOf(site))
		as.add(s+"SessionLengthCDF", v.sessions.SessionLengthCDF(site))
		as.add(s+"MeanRequestsPerSession", v.sessions.MeanRequestsPerSession(site))
		as.add(s+"TimeoutKnee", v.sessions.TimeoutKnee(site))
	}
	return append(as, addictionAnswers(v.addiction, sites)...)
}

// addictionAnswers asks for the Fig. 13 and 14 figures of every
// population of sites and one never seen.
func addictionAnswers(a addictionView, sites []string) answers {
	var as answers
	as.add("addiction sites", a.Sites())
	for _, site := range append(slices.Clone(sites), "never-seen") {
		for _, cat := range testCats {
			what := fmt.Sprintf("[%s/%v] ", site, cat)
			as.add(what+"Scatter", byRequests(a.Scatter(site, cat)))
			for _, threshold := range []int64{0, 1, 2, 10} {
				as.add(what+"FracObjectsAbove", a.FracObjectsAbove(site, cat, threshold))
			}
		}
	}
	return as
}

// allAnswers is lazyAnswers and every accessor of Aging, Caching and
// Popularity.
func allAnswers(v view, sites []string) answers {
	as := lazyAnswers(v, sites)
	as.add("aging sites", v.aging.Sites())
	as.add("caching sites", v.caching.Sites())
	as.add("popularity sites", v.popularity.Sites())
	for _, site := range append(slices.Clone(sites), "never-seen") {
		s := "[" + site + "] "
		as.add(s+"Curve", v.aging.Curve(site))
		as.add(s+"FracAliveAllWeek", v.aging.FracAliveAllWeek(site))

		as.add(s+"WeightedHitRatio", v.caching.WeightedHitRatio(site))
		as = append(as, answer{what: s + "PopularityHitCorrelation", v: v.caching.PopularityHitCorrelation(site), near: true})
		as.add(s+"HitRatioByPopularityDecile", v.caching.HitRatioByPopularityDecile(site))
		as.add(s+"RequestCounts", v.popularity.RequestCounts(site))

		for _, cat := range testCats {
			c := fmt.Sprintf("[%s/%v] ", site, cat)
			as.add(c+"HitRatioCDF", v.caching.HitRatioCDF(site, cat))
			as.add(c+"ResponseCodes", v.caching.ResponseCodes(site, cat))
			for _, code := range []int{200, 304, 999, 7} {
				as.add(c+"CodeFrac", v.caching.CodeFrac(site, cat, code))
			}

			as.add(c+"Counts", v.popularity.Counts(site, cat))
			as.add(c+"popularity CDF", v.popularity.CDF(site, cat))
			as.add(c+"ZipfExponent", v.popularity.ZipfExponent(site, cat))
			for _, frac := range []float64{0, 0.1, 0.5, 1} {
				as.add(c+"TopShare", v.popularity.TopShare(site, cat, frac))
			}
		}
	}
	return as
}

// requireFixture fails t unless the reference holds the cases the test
// is for: five sites, an object under two categories, and cache
// verdicts.
func requireFixture(t *testing.T, want *refSet) {
	t.Helper()
	if len(want.sessions.Sites()) < 5 || len(want.aging.Sites()) < 5 {
		t.Fatalf("fixture lost its sites: %v", want.sessions.Sites())
	}
	var twoCats, noVerdict bool
	for _, site := range want.popularity.Sites() {
		video, image := want.popularity.sites[site][trace.CategoryVideo], want.popularity.sites[site][trace.CategoryImage]
		for id := range video {
			if _, ok := image[id]; ok {
				twoCats = true
			}
		}
		if c := want.caching.ResponseCodes(site, trace.CategoryVideo); len(c) > 0 && want.caching.WeightedHitRatio(site) > 0 {
			noVerdict = true
		}
	}
	if !twoCats || !noVerdict {
		t.Fatalf("fixture lacks a case: object under two categories %v, verdicts %v", twoCats, noVerdict)
	}
}

// sampledBudget makes the samples of foreignRecords' busier populations
// overflow, and overflow again after the halfway query.
const sampledBudget = 64

// queryAll asks a for every population's Fig. 13 and 14 figures.
func queryAll(a *Addiction) {
	for _, site := range a.Sites() {
		for _, cat := range testCats {
			a.Scatter(site, cat)
			a.FracObjectsAbove(site, cat, 1)
		}
	}
}

// samplerHalvings returns how often each of a's object samples has
// halved, in site and category order.
func samplerHalvings(a *Addiction) []uint8 {
	var out []uint8
	for si, ok := range a.seen {
		if !ok {
			continue
		}
		for ci := range a.sites[si] {
			samp := a.sites[si][ci].keys.samp
			var h uint8
			for !samp.Admits(math.MaxUint64 >> h) {
				h++
			}
			out = append(out, h)
		}
	}
	return out
}

// compareSampled requires the bounded Addiction got to equal want
// restricted to the objects its samples keep: hash-threshold sampling
// keeps every request of a kept object. Some sample must have shrunk
// since halfway, when it was queried.
func compareSampled(t *testing.T, want *refAddiction, got *Addiction, halfway []uint8) {
	shrunk := false
	for i, h := range samplerHalvings(got) {
		shrunk = shrunk || i < len(halfway) && h > halfway[i]
	}
	if !shrunk {
		t.Fatalf("no sample shrank after the halfway query (halvings %v, then %v)", halfway, samplerHalvings(got))
	}
	kept := &refAddiction{sites: map[string]map[trace.Category]map[refPairKey]int64{}}
	for site, cats := range want.sites {
		kept.sites[site] = map[trace.Category]map[refPairKey]int64{}
		for cat, pairs := range cats {
			c, ids := got.population(site, cat)
			if c == nil {
				t.Fatalf("[%s/%v] bounded addiction lost the population", site, cat)
			}
			inSample := map[uint64]bool{}
			for _, id := range ids {
				inSample[id] = true
			}
			m := map[refPairKey]int64{}
			for k, n := range pairs {
				if inSample[k.obj] {
					m[k] = n
				}
			}
			kept.sites[site][cat] = m
		}
	}
	compareAnswers(t, addictionAnswers(got, kept.Sites()), addictionAnswers(kept, kept.Sites()))
}
