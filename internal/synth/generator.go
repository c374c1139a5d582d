package synth

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"trafficscope/internal/stats"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
	"trafficscope/internal/useragent"
)

// Config configures a Generator.
type Config struct {
	// Seed drives all randomness; the same seed and config produce the
	// same trace.
	Seed int64
	// Scale multiplies the paper-reported object and request counts;
	// 1.0 is full paper scale, 0.01 is a laptop-friendly default.
	Scale float64
	// Sites lists the site profiles to generate; nil means
	// DefaultProfiles().
	Sites []SiteProfile
	// Salt feeds the anonymizer that assigns object and user IDs.
	Salt string
}

// week is the observation window of every generated trace: the week
// starting Saturday 2015-10-03, matching the paper's Sat-Fri axes.
var week = timeutil.NewWeek(time.Date(2015, 10, 3, 0, 0, 0, 0, time.UTC))

// Generator produces synthetic traces. Create one with NewGenerator.
//
// All mutable state (object populations, user pools, per-hour request
// intensities) is materialized at construction; the Generate* methods
// only read it, so one Generator may serve concurrent generation calls.
// Randomness is organized into streams derived from (Seed, site, hour)
// — see rng.go — which makes every (site, hour) shard an independent,
// deterministic unit of work: the parallel path produces a byte-identical
// trace to the sequential one.
type Generator struct {
	cfg     Config
	anon    *trace.Anonymizer
	pops    []*Population
	prof    []SiteProfile
	plans   []*sitePlan        // per-site generation plans, nil for idle sites
	private map[uint64]*Object // private-audience objects, by ID
}

// NewGenerator validates the config and materializes object populations,
// user pools and per-hour request intensities.
func NewGenerator(cfg Config) (*Generator, error) {
	if cfg.Scale == 0 {
		cfg.Scale = 0.01
	}
	if cfg.Scale < 0 {
		return nil, fmt.Errorf("synth: negative scale %v", cfg.Scale)
	}
	if cfg.Sites == nil {
		cfg.Sites = DefaultProfiles()
	}
	anon := trace.NewAnonymizer([]byte(cfg.Salt))
	g := &Generator{cfg: cfg, anon: anon, private: map[uint64]*Object{}}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := range cfg.Sites {
		p := &cfg.Sites[i]
		if err := p.Validate(); err != nil {
			return nil, err
		}
		pop, err := buildPopulation(p, cfg.Scale, rng, anon)
		if err != nil {
			return nil, err
		}
		g.pops = append(g.pops, pop)
		g.prof = append(g.prof, *p)
	}
	for i := range g.pops {
		plan, err := g.buildSitePlan(i)
		if err != nil {
			return nil, err
		}
		g.plans = append(g.plans, plan)
	}
	return g, nil
}

// Populations exposes the materialized object populations, in site order.
func (g *Generator) Populations() []*Population { return g.pops }

// Week returns the generator's observation window.
func (g *Generator) Week() timeutil.Week { return week }

// IsIncognito reports whether the given user browses in private mode.
// The flag is a deterministic function of the user ID and the site's
// incognito fraction, so the CDN simulator can reconstruct it.
func (g *Generator) IsIncognito(site string, userID uint64) bool {
	for i := range g.prof {
		if g.prof[i].Name == site {
			return userIsIncognito(userID, g.prof[i].IncognitoFrac)
		}
	}
	return false
}

// userIsIncognito compares a hash-derived uniform variate against the
// profile fraction, so arbitrary fractions are honored without the 1/1000
// quantization a userID%1000 threshold would impose.
func userIsIncognito(userID uint64, frac float64) bool {
	if frac <= 0 {
		return false
	}
	if frac >= 1 {
		return true
	}
	return hashUnit(userID) < frac
}

// Generate produces the full trace, sorted by timestamp: the sequential
// reference ParallelReader's stream must match byte for byte.
func (g *Generator) Generate() ([]*trace.Record, error) {
	var all []*trace.Record
	err := g.GenerateTo(func(r *trace.Record) error {
		all = append(all, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	trace.SortByTime(all)
	return all, nil
}

// GenerateTo streams records to sink. Records arrive grouped by site and
// hour shard, roughly time-ordered within a site; use Generate for a
// fully sorted in-memory trace or ParallelReader for a sorted stream.
// Each record lives in its hour's slab, which is fresh and never reused:
// the sink may retain the pointer. A sink error aborts generation.
func (g *Generator) GenerateTo(sink func(*trace.Record) error) error {
	for i := range g.pops {
		plan := g.plans[i]
		if plan == nil {
			continue
		}
		sc := newShardScratch(plan)
		var hour slab
		for _, h := range plan.hours {
			hour.chunks = hour.chunks[:0]
			g.generateHour(i, h, sc, &hour)
			for _, chunk := range hour.chunks {
				for k := range chunk {
					if err := sink(&chunk[k]); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// userState tracks a user's per-site browsing habits. It is immutable
// once the site plan is built, which is what lets hour shards generate
// concurrently.
type userState struct {
	id           uint64
	device       useragent.Device
	agent        string
	region       timeutil.Region
	favorite     *Object // object the user habitually re-requests
	favIntensity float64 // probability a draw goes to the favorite
}

// sitePlan is the precomputed, read-only generation state of one site:
// everything an hour shard needs except its RNG stream.
type sitePlan struct {
	prof *SiteProfile
	pop  *Population
	// objs snapshots pop.Objects after private-audience objects are
	// registered; expected[i] is objs[i]'s expected weekly request count.
	objs     []*Object
	expected []float64
	// hourTotal is the expected request count per local hour-of-week;
	// hours lists the hours with positive intensity, ascending.
	hourTotal [timeutil.HoursPerWeek]float64
	hours     []int
	users     []userState
	userCum   []float64 // cumulative activity weights for weighted draws
	iatMu     float64
	iatSigma  float64
}

// buildSitePlan materializes site i's plan, or nil when the scaled
// request volume rounds to zero.
func (g *Generator) buildSitePlan(i int) (*sitePlan, error) {
	p := &g.prof[i]
	pop := g.pops[i]
	totalRequests := float64(p.WeeklyRequests) * g.cfg.Scale
	if totalRequests < 1 {
		return nil, nil
	}

	// User pool first: it may register private-audience objects with the
	// population, and the expected-request vector below must cover those.
	// Pool size keeps the mean requests/user/week target; per-user
	// activity is heavy-tailed (a few users issue hundreds of requests,
	// most issue a handful).
	poolRNG := newStream(g.cfg.Seed, i, streamUserPool)
	poolSize := int(math.Max(4, totalRequests/p.RequestsPerUserWeek))
	users, userCum := g.buildUserPool(p, pop, poolSize, poolRNG)

	plan := &sitePlan{
		prof:    p,
		pop:     pop,
		objs:    pop.Objects,
		users:   users,
		userCum: userCum,
	}

	// Per-object expected request totals: category request share split by
	// popularity weight. Accumulated in pop.Objects slice order so the
	// floating-point summation order — and therefore every Poisson
	// intensity — is identical across runs (map iteration order is not).
	var catTotal, catWeight [trace.CategoryOther + 1]float64
	for _, cat := range trace.AllCategories() {
		if cp, ok := p.Categories[cat]; ok {
			catTotal[cat] = totalRequests * cp.RequestFrac
		}
	}
	for _, o := range plan.objs {
		catWeight[o.Category()] += o.Weight
	}
	plan.expected = make([]float64, len(plan.objs))
	for oi, o := range plan.objs {
		if w := catWeight[o.Category()]; w > 0 {
			plan.expected[oi] = catTotal[o.Category()] * o.Weight / w
		}
	}

	// Hourly intensity per local hour-of-week, again in slice order.
	for oi, o := range plan.objs {
		e := plan.expected[oi]
		if e == 0 {
			continue
		}
		for h := 0; h < timeutil.HoursPerWeek; h++ {
			if o.Shape[h] > 0 {
				plan.hourTotal[h] += e * float64(o.Shape[h])
			}
		}
	}
	for h := 0; h < timeutil.HoursPerWeek; h++ {
		if plan.hourTotal[h] > 0 {
			plan.hours = append(plan.hours, h)
		}
	}

	g.assignFavorites(plan, totalRequests, newStream(g.cfg.Seed, i, streamFavorites))

	var err error
	plan.iatMu, plan.iatSigma, err = stats.LogNormalFromMedianP90(p.SessionIATSeconds, p.SessionIATSeconds*5)
	if err != nil {
		return nil, fmt.Errorf("synth: %s: session IAT params: %w", p.Name, err)
	}
	return plan, nil
}

// shardScratch is the working storage one goroutine reuses across a
// site's hour shards: the hour's cumulative object distribution and the
// RNG, reseeded to each shard's stream.
type shardScratch struct {
	cum []float64
	rng *rand.Rand
}

func newShardScratch(plan *sitePlan) *shardScratch {
	return &shardScratch{cum: make([]float64, len(plan.objs)), rng: rand.New(rand.NewSource(0))}
}

// chunkRecords is the capacity of a pooled slab chunk: 16 KiB of records.
const chunkRecords = 128

// slab holds one (site, hour)'s records in emission order, in chunks of
// one capacity of which all but the last are full: record k is
// chunks[k/cap][k%cap]. Without a pool it is a single fresh chunk sized by
// the hour's request budget, which whoever receives the records may keep
// (GenerateTo); with one it grows by pooled chunks of chunkRecords, which
// go back to the pool once the hour's last record has been copied out
// (the parallel path).
type slab struct {
	chunks [][]trace.Record
	budget int
	pool   *chunkPool
}

// add returns the storage of the slab's next record.
func (s *slab) add() *trace.Record {
	k := len(s.chunks) - 1
	if k < 0 || len(s.chunks[k]) == cap(s.chunks[k]) {
		if s.pool != nil {
			s.chunks = append(s.chunks, s.pool.get())
		} else {
			s.chunks = append(s.chunks, make([]trace.Record, 0, s.budget))
		}
		k++
	}
	c := s.chunks[k]
	c = c[:len(c)+1]
	s.chunks[k] = c
	return &c[len(c)-1]
}

// chunkPool recycles one site's record chunks, and its drained shards
// with their key storage, between the goroutines that fill them and the
// ones that drain them. Every reader opened from one ParallelSource
// shares the site's pool, so a second pass reuses the first one's
// storage; readers open at the same time share it under the mutex.
type chunkPool struct {
	mu     sync.Mutex
	free   [][]trace.Record
	shards []*shard
}

// get returns an empty chunk of chunkRecords.
func (p *chunkPool) get() []trace.Record {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free) - 1; n >= 0 {
		c := p.free[n]
		p.free = p.free[:n]
		return c
	}
	return make([]trace.Record, 0, chunkRecords)
}

// put takes back a chunk whose records have all been copied out.
func (p *chunkPool) put(c []trace.Record) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, c[:0])
}

// shard returns a drained shard, its key storage kept, or a new one.
func (p *chunkPool) shard() *shard {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.shards) - 1; n >= 0 {
		sh := p.shards[n]
		p.shards = p.shards[:n]
		return sh
	}
	return &shard{recs: slab{pool: p}}
}

// recycle takes back a drained shard and its chunks.
func (p *chunkPool) recycle(sh *shard) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range sh.recs.chunks {
		p.free = append(p.free, c[:0])
	}
	sh.recs.chunks = sh.recs.chunks[:0]
	p.shards = append(p.shards, sh)
}

// generateHour produces local hour h of site i into out, which must be
// empty, in emission order: a Poisson request budget split into user
// sessions, drawn from the (site, hour) stream. The budget is an upper
// bound on the records — the observation window clips boundary sessions.
func (g *Generator) generateHour(i, h int, sc *shardScratch, out *slab) {
	plan, cum, rng := g.plans[i], sc.cum, sc.rng
	rng.Seed(streamSeed(g.cfg.Seed, i, h)) // the state newStream(seed, i, h) starts in
	// Cumulative object distribution for this hour.
	var acc float64
	for oi, o := range plan.objs {
		acc += plan.expected[oi] * float64(o.Shape[h])
		cum[oi] = acc
	}
	if acc <= 0 {
		return
	}
	pickUser := func() *userState {
		i := sort.SearchFloat64s(plan.userCum, rng.Float64()*plan.userCum[len(plan.userCum)-1])
		if i >= len(plan.users) {
			i = len(plan.users) - 1
		}
		return &plan.users[i]
	}
	// Number of requests this local hour (Poisson via normal approx for
	// large means, exact for small).
	n := samplePoisson(rng, plan.hourTotal[h])
	out.budget = n
	for n > 0 {
		// One session: size capped by remaining budget.
		size := 1 + sampleGeometric(rng, plan.prof.MeanRequestsPerSession-1)
		if size > n {
			size = n
		}
		n -= size
		g.emitSession(plan, pickUser(), h, size, cum, acc, rng, out)
	}
}

// buildUserPool creates the site's users with device, agent and region
// assignments per the profile mixes, Pareto-distributed activity
// weights (returned as a cumulative vector for weighted sampling), and a
// small population of niche super-addicts: users fixated on one specific
// object regardless of its general popularity. Those users produce the
// Fig. 13 outliers whose object request counts dwarf their unique-user
// counts.
func (g *Generator) buildUserPool(p *SiteProfile, pop *Population, n int, rng *rand.Rand) ([]userState, []float64) {
	devices := useragent.AllDevices()
	regions := timeutil.AllRegions()
	users := make([]userState, n)
	cum := make([]float64, n)
	var acc float64
	// Each user's client address, "<site>/user-<i>", is formatted into
	// one reused buffer and hashed from there.
	addr := append([]byte(p.Name), "/user-"...)
	prefix := len(addr)
	for i := range users {
		dev := devices[stats.WeightedChoice(rng, p.DeviceMix[:])]
		agents := useragent.CanonicalAgents(dev)
		agent := agents[rng.Intn(len(agents))]
		addr = strconv.AppendInt(addr[:prefix], int64(i), 10)
		users[i] = userState{
			id:     g.anon.HashUserBytes(addr, agent),
			device: dev,
			agent:  agent,
			region: regions[stats.WeightedChoice(rng, p.RegionMix[:])],
		}
		// Heavy-tailed activity: most users browse a little, a few a
		// lot (finite-variance Pareto keeps chance same-object repeats
		// from overwhelming the image sites).
		acc += stats.Pareto(rng, 1, 2.3)
		cum[i] = acc
		// Niche super-addicts (~0.3% of users): a fixed favorite drawn
		// uniformly over the catalog (so usually an unpopular object)
		// absorbs most of their draws while it is live; the intensity
		// follows the category's addiction strength, so video habits
		// run far hotter than image habits.
		if rng.Float64() < 0.003 {
			fav := pop.Objects[rng.Intn(len(pop.Objects))]
			if cp, ok := p.Categories[fav.Category()]; ok {
				users[i].favorite = fav
				users[i].favIntensity = 0.9 * cp.AddictRepeatMean / (cp.AddictRepeatMean + 1)
			}
		}
		// Private-audience addicts (~0.05% of users): fixated on an
		// object essentially nobody else requests — user-uploaded or
		// deep-link content. These produce the Fig. 13 outliers whose
		// request counts exceed their unique-user counts by up to two
		// orders of magnitude; a shared-catalog popularity draw cannot,
		// because every catalog object's audience grows with scale.
		if rng.Float64() < 0.0005 {
			if o := g.newPrivateObject(p, pop, i, rng); o != nil {
				users[i].favorite = o
				users[i].favIntensity = 0.92
			}
		}
	}
	return users, cum
}

// assignFavorites gives ordinary users their repeat habit (Fig. 13/14) at
// build time, so user state stays immutable during generation. Each user
// draws one candidate object from the week-aggregate popularity
// distribution and adopts it with probability 1-(1-AddictFrac)^E[draws] —
// the chance that at least one of the user's expected draws would have
// triggered the per-draw adoption the paper's addiction model implies.
// Active users therefore almost surely develop a habit while one-shot
// visitors rarely do, matching the request-weighted adoption a per-draw
// process produces.
func (g *Generator) assignFavorites(plan *sitePlan, totalRequests float64, rng *rand.Rand) {
	aggCum := make([]float64, len(plan.objs))
	var aggTotal float64
	for oi := range plan.objs {
		aggTotal += plan.expected[oi]
		aggCum[oi] = aggTotal
	}
	if aggTotal <= 0 {
		return
	}
	weightTotal := plan.userCum[len(plan.userCum)-1]
	prev := 0.0
	for ui := range plan.users {
		u := &plan.users[ui]
		w := plan.userCum[ui] - prev
		prev = plan.userCum[ui]
		if u.favorite != nil {
			continue // super-addicts keep their build-time fixation
		}
		idx := sort.SearchFloat64s(aggCum, rng.Float64()*aggTotal)
		if idx >= len(plan.objs) {
			idx = len(plan.objs) - 1
		}
		o := plan.objs[idx]
		cp, ok := plan.prof.Categories[o.Category()]
		if !ok || cp.AddictFrac <= 0 {
			continue
		}
		draws := totalRequests * w / weightTotal
		if rng.Float64() >= 1-math.Pow(1-cp.AddictFrac, draws) {
			continue
		}
		u.favorite = o
		// Re-request intensity scales with the category's addiction
		// strength (mean extra repeats m implies a per-draw return
		// probability near m/(m+1), damped for ordinary addicts).
		// A small super-addict tail produces the Fig. 13 outliers
		// whose request counts dwarf their unique-user counts.
		base := cp.AddictRepeatMean / (cp.AddictRepeatMean + 1)
		if rng.Float64() < 0.1 {
			u.favIntensity = 0.95 * base
		} else {
			u.favIntensity = 0.35 * base
		}
	}
}

// newPrivateObject creates a private-audience object for one addicted
// user and registers it with the population at zero popularity weight:
// the shared popularity draw never selects it, so nearly all of its
// requests come from its owner. Returns nil for profiles without a
// dominant category.
func (g *Generator) newPrivateObject(p *SiteProfile, pop *Population, userIdx int, rng *rand.Rand) *Object {
	// Pick the category by the site's request mix.
	var cats []trace.Category
	var weights []float64
	for _, cat := range trace.AllCategories() {
		if cp, ok := p.Categories[cat]; ok && cp.RequestFrac > 0 {
			cats = append(cats, cat)
			weights = append(weights, cp.RequestFrac)
		}
	}
	if len(cats) == 0 {
		return nil
	}
	cat := cats[stats.WeightedChoice(rng, weights)]
	cp := p.Categories[cat]
	key := append([]byte(p.Name), "/private/"...)
	id := g.anon.HashBytes(strconv.AppendInt(key, int64(userIdx), 10))
	if o, ok := g.private[id]; ok {
		return o // idempotent across repeated Generate calls
	}
	o := &Object{
		ID:         id,
		FileType:   cp.FileTypes[rng.Intn(len(cp.FileTypes))],
		Size:       sampleSize(rng, &cp.Sizes, ClassDiurnalA, cat),
		Class:      ClassDiurnalA, // reachable by its owner all week
		InjectHour: -1,
		Weight:     0,
	}
	o.Shape = narrowShape(classShape(rng, ClassDiurnalA, o.InjectHour, &p.HourlyShape))
	g.private[id] = o
	pop.Objects = append(pop.Objects, o)
	pop.ByCategory[cat] = append(pop.ByCategory[cat], o)
	return o
}

// emitSession adds one user session starting in local hour h to out.
// Sessions whose UTC start falls outside the observation window are
// dropped, and sessions running past the window end are truncated —
// matching how a hard one-week log window clips boundary sessions.
func (g *Generator) emitSession(plan *sitePlan, u *userState, localHour, size int, cum []float64, cumTotal float64, rng *rand.Rand, out *slab) {
	localOffset := time.Duration(rng.Float64() * float64(time.Hour))
	utc := week.HourStart(localHour).Add(localOffset).Add(-u.region.UTCOffset())
	if !week.Contains(utc) {
		return
	}

	p := plan.prof
	t := utc
	for i := 0; i < size; i++ {
		if i > 0 {
			gap := stats.LogNormal(rng, plan.iatMu, plan.iatSigma)
			if gap > 3600 {
				gap = 3600
			}
			t = t.Add(time.Duration(gap * float64(time.Second)))
			if !week.Contains(t) {
				return
			}
		}
		o := pickObject(u, localHour, plan.objs, cum, cumTotal, rng)
		served := bytesForRequest(o, p, rng)
		status := 200 // provisional; the CDN replay rewrites it
		if served < o.Size && o.Category() == trace.CategoryVideo {
			status = 206
		}
		*out.add() = trace.Record{
			Timestamp:   t,
			Publisher:   p.Name,
			ObjectID:    o.ID,
			FileType:    o.FileType,
			ObjectSize:  o.Size,
			BytesServed: served,
			UserID:      u.id,
			UserAgent:   u.agent,
			Region:      u.region,
			StatusCode:  status,
			Cache:       trace.CacheUnknown,
		}
	}
}

// pickObject draws the session's next object: the user's habitual
// favorite with the user's adoption intensity, otherwise a fresh draw
// from the hour's popularity distribution. Favorites are only
// re-requested while the object is still live (its shape has mass at the
// current hour): addiction concentrates repeats, it does not resurrect
// retired content (Fig. 7's aging curve would flatten otherwise). The
// user state is never written, so concurrent hour shards can share it.
func pickObject(u *userState, localHour int, objs []*Object, cum []float64, cumTotal float64, rng *rand.Rand) *Object {
	if u.favorite != nil && u.favorite.Shape[localHour] > 0 {
		if rng.Float64() < u.favIntensity {
			return u.favorite
		}
	}
	idx := sort.SearchFloat64s(cum, rng.Float64()*cumTotal)
	if idx >= len(objs) {
		idx = len(objs) - 1
	}
	return objs[idx]
}

// bytesForRequest decides how many bytes the response carries before CDN
// semantics are applied: videos are fetched partially (range requests),
// images and other content fully.
func bytesForRequest(o *Object, p *SiteProfile, rng *rand.Rand) int64 {
	if o.Category() != trace.CategoryVideo {
		return o.Size
	}
	med := p.WatchedFracMedian
	if med <= 0 || med >= 1 {
		return o.Size
	}
	mu, sigma, err := stats.LogNormalFromMedianP90(med, math.Min(0.99, med*2.4))
	if err != nil {
		return o.Size
	}
	frac := stats.LogNormal(rng, mu, sigma)
	if frac >= 1 {
		return o.Size
	}
	b := int64(frac * float64(o.Size))
	if b < 1 {
		b = 1
	}
	return b
}

// samplePoisson draws from Poisson(lambda) — Knuth's method for small
// lambda, normal approximation above 30.
func samplePoisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		n := int(math.Round(lambda + math.Sqrt(lambda)*rng.NormFloat64()))
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// sampleGeometric draws a geometric count with the given mean (>= 0).
func sampleGeometric(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	p := 1 / (mean + 1)
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return int(math.Log(u) / math.Log(1-p))
}
