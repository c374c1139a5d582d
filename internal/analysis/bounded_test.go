package analysis

import (
	"math"
	"testing"

	"trafficscope/internal/sketch"
	"trafficscope/internal/synth"
	"trafficscope/internal/trace"
)

// analyzerSet bundles one instance of every budget-aware analyzer; the
// fixture folds one generated trace (scale 0.05, ~270K records) into an
// exact set, a small-budget bounded set, and a huge-budget bounded set
// built from a two-way split by publisher, as the pipeline routes
// records, merged by adoption — so the bounded Add path and the merge
// are both exercised against ground truth.
type analyzerSet struct {
	comp     *Composition
	devices  *DeviceMix
	caching  *Caching
	addict   *Addiction
	aging    *Aging
	sessions *Sessions
	series   *ObjectSeries
}

func (s analyzerSet) add(r *trace.Record) {
	s.comp.Add(r)
	s.devices.Add(r)
	s.caching.Add(r)
	s.addict.Add(r)
	s.aging.Add(r)
	s.sessions.Add(r)
	s.series.Add(r)
}

func (s analyzerSet) merge(o analyzerSet) {
	adoptAlone(s.comp, o.comp)
	adoptAlone(s.devices, o.devices)
	adoptAlone(s.caching, o.caching)
	adoptAlone(s.addict, o.addict)
	adoptAlone(s.aging, o.aging)
	adoptAlone(s.sessions, o.sessions)
	adoptAlone(s.series, o.series)
}

const boundedScale = 0.05

// smallBudget is sized to genuinely bind at scale 0.05 (each site has
// tens of thousands of objects and users) while keeping the sampling
// error ~1/sqrt(2000) ≈ 2.2%.
const smallBudget = 2000

// buildBounded generates the fixture trace once, folding every record
// into all three analyzer sets.
func buildBounded(t testing.TB) (exact, small, huge analyzerSet, records int) {
	t.Helper()
	gen, err := synth.NewGenerator(synth.Config{Seed: 7, Scale: boundedScale})
	if err != nil {
		t.Fatal(err)
	}
	exact = analyzerSet{
		comp:     newComposition(0),
		devices:  newDeviceMix(0),
		caching:  newCaching(0),
		addict:   newAddiction(0),
		aging:    newAging(gen.Week(), 0),
		sessions: newSessions(0, 0),
		series:   newObjectSeries(gen.Week(), 0),
	}
	small = analyzerSet{
		comp:     newComposition(smallBudget),
		devices:  newDeviceMix(smallBudget),
		caching:  newCaching(smallBudget),
		addict:   newAddiction(smallBudget),
		aging:    newAging(gen.Week(), smallBudget),
		sessions: newSessions(0, smallBudget),
		series:   newObjectSeries(gen.Week(), smallBudget),
	}
	const hugeBudget = 1 << 30
	hugeHalf := func() analyzerSet {
		return analyzerSet{
			comp:     newComposition(hugeBudget),
			devices:  newDeviceMix(hugeBudget),
			caching:  newCaching(hugeBudget),
			addict:   newAddiction(hugeBudget),
			aging:    newAging(gen.Week(), hugeBudget),
			sessions: newSessions(0, hugeBudget),
			series:   newObjectSeries(gen.Week(), hugeBudget),
		}
	}
	a, b := hugeHalf(), hugeHalf()
	half := map[string]int{} // publisher → half, alternating in first-seen order
	n := 0
	err = gen.GenerateTo(func(r *trace.Record) error {
		// Synthesize a deterministic cache verdict (the generator leaves
		// Cache unknown; replay normally fills it): 75% hits.
		if sketch.Hash64(r.ObjectID^sketch.Hash64(r.UserID))%4 != 0 {
			r.Cache = trace.CacheHit
		} else {
			r.Cache = trace.CacheMiss
		}
		exact.add(r)
		small.add(r)
		h, ok := half[r.Publisher]
		if !ok {
			h = len(half) % 2
			half[r.Publisher] = h
		}
		if h == 0 {
			a.add(r)
		} else {
			b.add(r)
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(half) < 2 {
		t.Fatalf("fixture has %d publishers, too few to split", len(half))
	}
	a.merge(b)
	return exact, small, a, n
}

func TestBoundedModeMatchesExact(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-0.05 fixture in -short mode")
	}
	exact, small, huge, records := buildBounded(t)
	if records < 100_000 {
		t.Fatalf("fixture too small to exercise budgets: %d records", records)
	}
	t.Logf("fixture: %d records at scale %v, small budget %d", records, boundedScale, smallBudget)

	t.Run("HugeBudgetSamplersExact", func(t *testing.T) {
		// With a budget above the population, hash-threshold sampling
		// admits every key: the sampling analyzers must agree with exact
		// bit for bit, including through the split and merge.
		for _, site := range exact.addict.Sites() {
			for _, cat := range trace.AllCategories() {
				got, pairs := pairCounts(huge.addict, site, cat), pairCounts(exact.addict, site, cat)
				if len(got) != len(pairs) {
					t.Fatalf("addiction %s/%v: %d pairs bounded vs %d exact", site, cat, len(got), len(pairs))
				}
				for k, n := range pairs {
					if got[k] != n {
						t.Fatalf("addiction %s/%v pair %v: %d vs %d", site, cat, k, got[k], n)
					}
				}
			}
		}
		for _, site := range exact.aging.Sites() {
			if got, want := trackedObjects(huge.aging, site), trackedObjects(exact.aging, site); got != want {
				t.Fatalf("aging %s: %d objects bounded vs %d exact", site, got, want)
			}
			if got, want := huge.aging.Curve(site), exact.aging.Curve(site); got != want {
				t.Fatalf("aging %s curve: %v vs %v", site, got, want)
			}
		}
		for _, site := range exact.sessions.Sites() {
			if got, want := trackedUsers(huge.sessions, site), trackedUsers(exact.sessions, site); got != want {
				t.Fatalf("sessions %s: %d users bounded vs %d exact", site, got, want)
			}
			g, w := huge.sessions.MeanRequestsPerSession(site), exact.sessions.MeanRequestsPerSession(site)
			if g != w {
				t.Fatalf("sessions %s mean requests/session: %v vs %v", site, g, w)
			}
		}
		for _, site := range exact.caching.Sites() {
			if got, want := huge.caching.WeightedHitRatio(site), exact.caching.WeightedHitRatio(site); got != want {
				t.Fatalf("caching %s weighted hit ratio: %v vs %v", site, got, want)
			}
			if got, want := cachedObjects(huge.caching, site), cachedObjects(exact.caching, site); got != want {
				t.Fatalf("caching %s: %d objects bounded vs %d exact", site, got, want)
			}
		}
	})

	t.Run("SmallBudgetCapsState", func(t *testing.T) {
		// The point of the budget: per-site key counts actually stay
		// bounded. Hash-threshold halving can undershoot the cap but
		// never exceed it.
		for _, site := range small.aging.Sites() {
			if n := trackedObjects(small.aging, site); n > smallBudget {
				t.Errorf("aging %s tracks %d objects > budget %d", site, n, smallBudget)
			}
		}
		for _, site := range small.sessions.Sites() {
			if n := trackedUsers(small.sessions, site); n > smallBudget {
				t.Errorf("sessions %s tracks %d users > budget %d", site, n, smallBudget)
			}
		}
		for _, site := range small.caching.Sites() {
			if n := cachedObjects(small.caching, site); n > smallBudget {
				t.Errorf("caching %s tracks %d objects > budget %d", site, n, smallBudget)
			}
		}
		for _, site := range small.series.Sites() {
			for _, cat := range trace.AllCategories() {
				if n := len(seriesTotals(small.series, site, cat)); n > smallBudget {
					t.Errorf("series %s/%v tracks %d series > budget %d", site, cat, n, smallBudget)
				}
			}
		}
	})

	t.Run("SmallBudgetTolerances", func(t *testing.T) {
		// Sampling error for ratio estimates at budget 2000 is
		// ~1/sqrt(2000) ≈ 2.2% per ratio; ±0.06 is a ≥2.5σ bound on
		// every deterministic fixture value.
		const ratioTol = 0.06
		for _, site := range exact.aging.Sites() {
			g, w := small.aging.Curve(site), exact.aging.Curve(site)
			for age := range w {
				if d := math.Abs(g[age] - w[age]); d > ratioTol {
					t.Errorf("aging %s curve age %d: bounded %.3f vs exact %.3f (Δ %.3f)", site, age+1, g[age], w[age], d)
				}
			}
			if d := math.Abs(small.aging.FracAliveAllWeek(site) - exact.aging.FracAliveAllWeek(site)); d > ratioTol {
				t.Errorf("aging %s frac-alive: Δ %.3f", site, d)
			}
		}
		for _, site := range exact.addict.Sites() {
			for _, cat := range trace.AllCategories() {
				if len(exact.addict.Scatter(site, cat)) < 2000 {
					continue // tiny populations carry too few sampled objects
				}
				g := small.addict.FracObjectsAbove(site, cat, 1)
				w := exact.addict.FracObjectsAbove(site, cat, 1)
				if d := math.Abs(g - w); d > ratioTol {
					t.Errorf("addiction %s/%v frac>1: bounded %.3f vs exact %.3f", site, cat, g, w)
				}
			}
		}
		for _, site := range exact.caching.Sites() {
			// Scalar counters make the headline hit ratio exact even
			// when objects are sampled.
			if g, w := small.caching.WeightedHitRatio(site), exact.caching.WeightedHitRatio(site); g != w {
				t.Errorf("caching %s weighted hit ratio not exact under budget: %v vs %v", site, g, w)
			}
		}
		for _, site := range exact.sessions.Sites() {
			g := small.sessions.MeanRequestsPerSession(site)
			w := exact.sessions.MeanRequestsPerSession(site)
			if w == 0 {
				continue
			}
			if rel := math.Abs(g-w) / w; rel > 0.15 {
				t.Errorf("sessions %s mean requests/session: bounded %.3f vs exact %.3f (rel %.3f)", site, g, w, rel)
			}
		}
	})

	t.Run("HLLAnalyzerTolerances", func(t *testing.T) {
		// Composition and DeviceMix switch to HLL under any positive
		// budget: ~0.8% standard error on distinct counts. Requests and
		// bytes stay exact.
		for _, site := range exact.comp.Sites() {
			w, g := exact.comp.Site(site), small.comp.Site(site)
			for cat, n := range w.Requests {
				if g.Requests[cat] != n {
					t.Errorf("composition %s/%v requests not exact: %d vs %d", site, cat, g.Requests[cat], n)
				}
			}
			for cat, n := range w.Bytes {
				if g.Bytes[cat] != n {
					t.Errorf("composition %s/%v bytes not exact: %d vs %d", site, cat, g.Bytes[cat], n)
				}
			}
			for cat, n := range w.Objects {
				if n < 1000 {
					continue // below ~1K the relative bound is noise-dominated
				}
				est := g.Objects[cat]
				if rel := math.Abs(float64(est)-float64(n)) / float64(n); rel > 0.03 {
					t.Errorf("composition %s/%v objects: HLL %d vs exact %d (rel %.4f)", site, cat, est, n, rel)
				}
			}
		}
		for _, site := range exact.devices.Sites() {
			w, g := exact.devices.UserShare(site), small.devices.UserShare(site)
			for i := range w {
				if d := math.Abs(g[i] - w[i]); d > 0.02 {
					t.Errorf("devices %s share[%d]: HLL %.4f vs exact %.4f", site, i, g[i], w[i])
				}
			}
		}
	})

	t.Run("SeriesAdmissionUndercountBound", func(t *testing.T) {
		// The documented ObjectSeries error model: every admitted
		// object's series misses at most seriesAdmitThreshold-1 early
		// requests, and every object with at least threshold requests is
		// admitted (Count-Min never undercounts; the huge cap never
		// binds). Each site is folded by one half, so the bound holds
		// through the merge unchanged.
		for _, site := range exact.series.Sites() {
			for _, cat := range trace.AllCategories() {
				got := seriesTotals(huge.series, site, cat)
				for id, exactN := range seriesTotals(exact.series, site, cat) {
					if gotN, ok := got[id]; ok {
						if miss := exactN - gotN; miss < 0 || miss > seriesAdmitThreshold-1 {
							t.Fatalf("series %s/%v obj %d: exact %v bounded %v (miss %v)", site, cat, id, exactN, gotN, miss)
						}
					} else if exactN >= seriesAdmitThreshold {
						t.Fatalf("series %s/%v obj %d with %v requests never admitted", site, cat, id, exactN)
					}
				}
			}
		}
	})
}

// The helpers below read analyzer state back by real ID, so the
// assertions above do not depend on slot numbering.

type idPair struct{ obj, user uint64 }

// pairCounts returns the addiction pairs of one population by ID.
func pairCounts(a *Addiction, site string, cat trace.Category) map[idPair]int64 {
	c, objs := a.population(site, cat)
	if c == nil {
		return nil
	}
	si, _ := a.find(site)
	users := a.userIDs(si, c.users.keys)
	out := map[idPair]int64{}
	for _, chunk := range c.log.chunks {
		for _, k := range chunk {
			out[idPair{objs[k>>32], users[uint32(k)]}]++
		}
	}
	return out
}

func trackedObjects(a *Aging, site string) (n int) {
	_, st := a.find(site)
	for _, days := range st.days {
		if days != 0 {
			n++
		}
	}
	return n
}

func trackedUsers(s *Sessions, site string) int {
	users := map[uint32]bool{}
	_, st := s.find(site)
	for _, chunk := range st.log.chunks {
		for _, e := range chunk {
			users[e.user] = true
		}
	}
	return len(users)
}

func cachedObjects(c *Caching, site string) (n int) {
	_, st := c.find(site)
	for _, o := range st.objs {
		if o.lookups != 0 {
			n++
		}
	}
	return n
}

// seriesTotals returns the request total of every series of one
// population by object ID.
func seriesTotals(s *ObjectSeries, site string, cat trace.Category) map[uint64]float64 {
	si, st := s.find(site)
	if st == nil {
		return nil
	}
	ids := s.objectIDs(si, st.objs.keys)
	c, _ := catIndex(cat)
	out := map[uint64]float64{}
	for i := int(c); i < len(st.rowOf); i += numCats {
		if ri := st.rowOf[i]; ri != 0 {
			out[ids[i/numCats]] = sum32(st.row(ri - 1))
		}
	}
	return out
}
