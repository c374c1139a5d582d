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
// keeps.
func TestSlotIndexedMatchesMapBased(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 20_000
	}
	for trial := 0; trial < 4; trial++ {
		for _, byPublisher := range []bool{false, true} {
			for _, budget := range []int{0, 1 << 30} {
				rng := rand.New(rand.NewSource(int64(1000 + trial)))
				recs := foreignRecords(rng, n)
				workers := 1 + trial%4
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
				name := fmt.Sprintf("trial=%d/workers=%d", trial, workers)
				if byPublisher {
					name += "/by-publisher"
				}
				if budget > 0 {
					name += "/budget"
				}
				// A bounded Addiction whose samples overflow: the reference
				// restricted to the objects it keeps must match it.
				sampled := newAddiction(sampledBudget)
				var halfway []uint8
				route := map[string]int{} // publisher → shard, round robin in first-seen order
				for i := range recs {
					if i == n/2 {
						// Query halfway, so that the rest of the fold appends
						// to logs a query has put in order, and in bounded
						// mode compacts them.
						t.Run(name+"/halfway", func(t *testing.T) {
							for w := range refs {
								compareLazy(t, refs[w], setOfFold(folds[w]))
								compareLazy(t, refs[w], alone[w])
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
				t.Run(name+"/fold", func(t *testing.T) {
					compareSets(t, refs[0], setOfFold(folds[0]))
				})
				t.Run(name+"/alone", func(t *testing.T) {
					compareSets(t, refs[0], alone[0])
				})
				t.Run(name+"/sampled", func(t *testing.T) {
					compareSampled(t, refs[0].addiction, sampled, halfway)
				})
			}
		}
	}
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

// compareLazy compares the accessors of the two analyzers that order
// their logs at the first query, Sessions and Addiction.
func compareLazy(t *testing.T, want *refSet, got *newSet) {
	t.Helper()
	eq := func(what string, g, w any) { t.Helper(); eqLoose(t, what, g, w) }
	eq("sessions sites", got.sessions.Sites(), want.sessions.Sites())
	eq("addiction sites", got.addiction.Sites(), want.addiction.Sites())
	for _, site := range append(want.sessions.Sites(), "never-seen") {
		s := "[" + site + "] "
		eq(s+"IATSeconds", sortedFloats(got.sessions.IATSeconds(site)), sortedFloats(want.sessions.IATSeconds(site)))
		eq(s+"IATCDF", got.sessions.IATCDF(site), want.sessions.IATCDF(site))
		eq(s+"SessionsOf", got.sessions.SessionsOf(site), want.sessions.SessionsOf(site))
		eq(s+"SessionLengthCDF", got.sessions.SessionLengthCDF(site), want.sessions.SessionLengthCDF(site))
		eq(s+"MeanRequestsPerSession", got.sessions.MeanRequestsPerSession(site), want.sessions.MeanRequestsPerSession(site))
		eq(s+"TimeoutKnee", got.sessions.TimeoutKnee(site), want.sessions.TimeoutKnee(site))
		for _, cat := range testCats {
			compareAddiction(t, fmt.Sprintf("[%s/%v] ", site, cat), want.addiction, got.addiction, site, cat)
		}
	}
}

// compareAddiction compares one population's Fig. 13 and 14 accessors.
func compareAddiction(t *testing.T, what string, want *refAddiction, got *Addiction, site string, cat trace.Category) {
	t.Helper()
	eqLoose(t, what+"Scatter", byRequests(got.Scatter(site, cat)), byRequests(want.Scatter(site, cat)))
	for _, threshold := range []int64{0, 1, 2, 10} {
		eqLoose(t, what+"FracObjectsAbove", got.FracObjectsAbove(site, cat, threshold), want.FracObjectsAbove(site, cat, threshold))
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
	eqLoose(t, "addiction sites", got.Sites(), kept.Sites())
	for _, site := range append(kept.Sites(), "never-seen") {
		for _, cat := range testCats {
			compareAddiction(t, fmt.Sprintf("[%s/%v] ", site, cat), kept, got, site, cat)
		}
	}
}

func compareSets(t *testing.T, want *refSet, got *newSet) {
	eq := func(what string, g, w any) { t.Helper(); eqLoose(t, what, g, w) }
	// Spearman sums ranks in object order, which differs between a map
	// and a slot table; everything else is order-free or sorted.
	near := func(what string, g, w float64) {
		t.Helper()
		if !(math.Abs(g-w) <= 1e-9 || (math.IsNaN(g) && math.IsNaN(w))) {
			t.Errorf("%s: got %v, want %v", what, g, w)
		}
	}

	compareLazy(t, want, got)
	eq("aging sites", got.aging.Sites(), want.aging.Sites())
	eq("caching sites", got.caching.Sites(), want.caching.Sites())
	eq("popularity sites", got.popularity.Sites(), want.popularity.Sites())
	if len(want.sessions.Sites()) < 5 || len(want.aging.Sites()) < 5 {
		t.Fatalf("fixture lost its sites: %v", want.sessions.Sites())
	}

	for _, site := range append(want.sessions.Sites(), "never-seen") {
		s := "[" + site + "] "
		eq(s+"Curve", got.aging.Curve(site), want.aging.Curve(site))
		eq(s+"FracAliveAllWeek", got.aging.FracAliveAllWeek(site), want.aging.FracAliveAllWeek(site))

		eq(s+"WeightedHitRatio", got.caching.WeightedHitRatio(site), want.caching.WeightedHitRatio(site))
		near(s+"PopularityHitCorrelation", got.caching.PopularityHitCorrelation(site), want.caching.PopularityHitCorrelation(site))
		eq(s+"HitRatioByPopularityDecile", got.caching.HitRatioByPopularityDecile(site), want.caching.HitRatioByPopularityDecile(site))

		for _, cat := range testCats {
			c := fmt.Sprintf("[%s/%v] ", site, cat)
			eq(c+"HitRatioCDF", got.caching.HitRatioCDF(site, cat), want.caching.HitRatioCDF(site, cat))
			eq(c+"ResponseCodes", got.caching.ResponseCodes(site, cat), want.caching.ResponseCodes(site, cat))
			for _, code := range []int{200, 304, 999, 7} {
				eq(c+"CodeFrac", got.caching.CodeFrac(site, cat, code), want.caching.CodeFrac(site, cat, code))
			}

			eq(c+"Counts", got.popularity.Counts(site, cat), want.popularity.Counts(site, cat))
			eq(c+"RequestCounts", got.popularity.RequestCounts(site, cat), want.popularity.RequestCounts(site, cat))
			eq(c+"popularity CDF", got.popularity.CDF(site, cat), want.popularity.CDF(site, cat))
			eq(c+"ZipfExponent", got.popularity.ZipfExponent(site, cat), want.popularity.ZipfExponent(site, cat))
			for _, frac := range []float64{0, 0.1, 0.5, 1} {
				eq(c+"TopShare", got.popularity.TopShare(site, cat, frac), want.popularity.TopShare(site, cat, frac))
			}
		}
	}

	// The fixture must hold the cases the test is for.
	var twoCats, noVerdict bool
	for _, site := range want.popularity.Sites() {
		video, image := want.popularity.RequestCounts(site, trace.CategoryVideo), want.popularity.RequestCounts(site, trace.CategoryImage)
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
