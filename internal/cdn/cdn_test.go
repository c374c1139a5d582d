package cdn

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"trafficscope/internal/obs"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

func videoReq(obj uint64, user uint64, size, served int64, ts time.Time) *trace.Record {
	return &trace.Record{
		Timestamp:   ts,
		Publisher:   "V-1",
		ObjectID:    obj,
		FileType:    trace.FileMP4,
		ObjectSize:  size,
		BytesServed: served,
		UserID:      user,
		UserAgent:   "UA",
		Region:      timeutil.RegionEurope,
		StatusCode:  200,
	}
}

// serve finalizes r into a fresh record through ServeInto, leaving r as
// it was.
func serve(c *CDN, r *trace.Record) *trace.Record {
	out := new(trace.Record)
	c.ServeInto(r, out)
	return out
}

func imageReq(obj uint64, user uint64, size int64, ts time.Time) *trace.Record {
	r := videoReq(obj, user, size, size, ts)
	r.FileType = trace.FileJPG
	r.Publisher = "P-1"
	return r
}

// wholeSlot is the slot c caches r's object under whole (its chunk 0);
// r's object must have been served.
func wholeSlot(c *CDN, r *trace.Record) uint32 {
	obj, _ := c.keys.Object(r)
	return c.slots.runs[obj].first
}

func TestServeBasicHitMiss(t *testing.T) {
	c := New(Config{ChunkBytes: -1})
	r := imageReq(1, 100, 1000, t0)
	out := serve(c, r)
	if out.Cache != trace.CacheMiss {
		t.Errorf("first request cache = %v, want MISS", out.Cache)
	}
	if out.StatusCode != StatusOK {
		t.Errorf("status = %d, want 200", out.StatusCode)
	}
	out2 := serve(c, r)
	if out2.Cache != trace.CacheHit {
		t.Errorf("second request cache = %v, want HIT", out2.Cache)
	}
	// Input record untouched.
	if r.Cache != trace.CacheUnknown {
		t.Error("Serve must not mutate its input")
	}
	stats := c.TotalStats()
	if stats.Requests != 2 || stats.Hits != 1 || stats.Misses != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestServePartialContentForVideo(t *testing.T) {
	c := New(Config{})
	r := videoReq(1, 100, 10<<20, 3<<20, t0)
	out := serve(c, r)
	if out.StatusCode != StatusPartialContent {
		t.Errorf("partial video status = %d, want 206", out.StatusCode)
	}
	if out.BytesServed != 3<<20 {
		t.Errorf("BytesServed = %d", out.BytesServed)
	}
	// Full-object fetch is a 200.
	full := videoReq(2, 100, 1<<20, 1<<20, t0)
	if got := serve(c, full).StatusCode; got != StatusOK {
		t.Errorf("full video status = %d, want 200", got)
	}
}

func TestServeChunkedVideoCaching(t *testing.T) {
	c := New(Config{ChunkBytes: 1 << 20})
	// First viewer fetches the first 3 MB of a 10 MB video.
	r1 := videoReq(7, 1, 10<<20, 3<<20, t0)
	if got := serve(c, r1); got.Cache != trace.CacheMiss {
		t.Errorf("cold chunks should MISS, got %v", got.Cache)
	}
	// Second viewer in the same region fetches the first 2 MB: all
	// touched chunks are now resident.
	r2 := videoReq(7, 2, 10<<20, 2<<20, t0.Add(time.Minute))
	if got := serve(c, r2); got.Cache != trace.CacheHit {
		t.Errorf("warm chunks should HIT, got %v", got.Cache)
	}
	// Third viewer fetches 5 MB: chunks 4-5 are cold, so MISS.
	r3 := videoReq(7, 3, 10<<20, 5<<20, t0.Add(2*time.Minute))
	if got := serve(c, r3); got.Cache != trace.CacheMiss {
		t.Errorf("partially cold fetch should MISS, got %v", got.Cache)
	}
}

func TestServeRegionalIsolation(t *testing.T) {
	c := New(Config{ChunkBytes: -1})
	eu := imageReq(1, 1, 1000, t0)
	na := imageReq(1, 2, 1000, t0)
	na.Region = timeutil.RegionNorthAmerica
	serve(c, eu)
	// The NA DC has not seen the object.
	if got := serve(c, na); got.Cache != trace.CacheMiss {
		t.Errorf("cross-region request should MISS its own DC, got %v", got.Cache)
	}
	if got := serve(c, eu); got.Cache != trace.CacheHit {
		t.Errorf("same-region re-request should HIT, got %v", got.Cache)
	}
	if c.DC(timeutil.RegionEurope).StatsSnapshot().Requests != 2 {
		t.Error("EU DC request count")
	}
	if c.DC(timeutil.RegionNorthAmerica).StatsSnapshot().Requests != 1 {
		t.Error("NA DC request count")
	}
}

func TestServe304ForReturningNonIncognitoUser(t *testing.T) {
	c := New(Config{
		ChunkBytes:  -1,
		IsIncognito: func(string, uint64) bool { return false },
	})
	r := imageReq(1, 100, 1000, t0)
	first := serve(c, r)
	if first.StatusCode != StatusOK {
		t.Fatalf("first = %d", first.StatusCode)
	}
	again := imageReq(1, 100, 1000, t0.Add(10*time.Minute))
	got := serve(c, again)
	if got.StatusCode != StatusNotModified {
		t.Errorf("returning user status = %d, want 304", got.StatusCode)
	}
	if got.BytesServed != 0 {
		t.Errorf("304 must carry no body, got %d bytes", got.BytesServed)
	}
	// After the browser's 24 h freshness lapses: full 200 again.
	late := imageReq(1, 100, 1000, t0.Add(25*time.Hour))
	if got := serve(c, late).StatusCode; got != StatusOK {
		t.Errorf("stale browser copy status = %d, want 200", got)
	}
}

func TestServeIncognitoUserNever304(t *testing.T) {
	c := New(Config{
		ChunkBytes:  -1,
		IsIncognito: func(string, uint64) bool { return true },
	})
	r := imageReq(1, 100, 1000, t0)
	serve(c, r)
	got := serve(c, imageReq(1, 100, 1000, t0.Add(time.Minute)))
	if got.StatusCode == StatusNotModified {
		t.Error("incognito users must not revalidate")
	}
	if got.StatusCode != StatusOK {
		t.Errorf("status = %d, want 200", got.StatusCode)
	}
}

func TestServeErrorCodes(t *testing.T) {
	// With P403=1 every request is rejected.
	c := New(Config{P403: 1})
	out := serve(c, imageReq(1, 1, 100, t0))
	if out.StatusCode != StatusForbidden || out.BytesServed != 0 {
		t.Errorf("403 path: %+v", out)
	}
	// Forbidden requests must not populate the cache.
	if c.TotalStats().Hits+c.TotalStats().Misses != 0 {
		t.Error("403 touched the cache")
	}
	// With P416=1 every video range request fails.
	c2 := New(Config{P416: 1})
	out2 := serve(c2, videoReq(1, 1, 1000, 500, t0))
	if out2.StatusCode != StatusRangeError {
		t.Errorf("416 path: %d", out2.StatusCode)
	}
	// Images are unaffected by P416.
	if got := serve(c2, imageReq(2, 1, 100, t0)).StatusCode; got != StatusOK {
		t.Errorf("image with P416=1: %d", got)
	}
	// With P204=1 every "other" request is a beacon.
	c3 := New(Config{P204: 1})
	other := imageReq(3, 1, 100, t0)
	other.FileType = trace.FileJS
	if got := serve(c3, other).StatusCode; got != StatusNoContent {
		t.Errorf("204 path: %d", got)
	}
	// At zero rates, the live edge's, no error path is ever taken.
	c0 := New(Config{})
	for _, r := range []*trace.Record{imageReq(4, 1, 100, t0), videoReq(4, 2, 1000, 500, t0), other} {
		if got := serve(c0, r).StatusCode; got != StatusOK && got != StatusPartialContent {
			t.Errorf("zero rates, %s request: %d", r.FileType, got)
		}
	}
}

// collect returns a replay sink that appends a copy of every finalized
// record to *out (Replay and ReplayStream recycle the record they hand
// the sink).
func collect(out *[]*trace.Record) func(*trace.Record) error {
	return func(rec *trace.Record) error {
		cp := *rec
		*out = append(*out, &cp)
		return nil
	}
}

func TestReplayAll(t *testing.T) {
	c := New(Config{ChunkBytes: -1})
	recs := []*trace.Record{
		imageReq(1, 1, 100, t0),
		imageReq(1, 2, 100, t0.Add(time.Second)),
		imageReq(2, 1, 100, t0.Add(2*time.Second)),
	}
	var out []*trace.Record
	if err := c.Replay(trace.NewSliceReader(recs), collect(&out)); err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("replayed %d records", len(out))
	}
	if out[0].Cache != trace.CacheMiss || out[1].Cache != trace.CacheHit || out[2].Cache != trace.CacheMiss {
		t.Errorf("cache sequence: %v %v %v", out[0].Cache, out[1].Cache, out[2].Cache)
	}
	stats := c.TotalStats()
	if stats.HitRatio() < 0.32 || stats.HitRatio() > 0.34 {
		t.Errorf("hit ratio = %v, want 1/3", stats.HitRatio())
	}
}

func TestPushToAllWarmsEveryDC(t *testing.T) {
	c := New(Config{ChunkBytes: -1})
	c.PushToAll(imageReq(9, 1, 100, t0), t0)
	for _, region := range timeutil.AllRegions() {
		r := imageReq(9, uint64(region), 100, t0)
		r.Region = region
		if got := serve(c, r); got.Cache != trace.CacheHit {
			t.Errorf("region %v: pushed object missed", region)
		}
	}
}

func TestDCStatsHitRatioIdle(t *testing.T) {
	var s DCStats
	if s.HitRatio() != 0 {
		t.Error("idle hit ratio should be 0")
	}
}

func TestPublisherCachePartition(t *testing.T) {
	c := New(Config{
		ChunkBytes: -1,
		NewCache:   func() Cache { return NewLRU(1 << 20) },
		PublisherCaches: map[string]func() Cache{
			"P-1": func() Cache { return NewLRU(1 << 20) },
		},
	})
	// P-1 requests land in the dedicated partition; V-1 in the shared
	// default cache.
	p1 := imageReq(1, 1, 1000, t0) // publisher P-1 per helper
	serve(c, p1)
	v1 := videoReq(2, 2, 1000, 1000, t0)
	serve(c, v1)
	dc := c.DC(timeutil.RegionEurope)
	if !dc.PublisherCache["P-1"].Contains(wholeSlot(c, p1)) {
		t.Error("P-1 object missing from its partition")
	}
	if dc.Cache.Contains(wholeSlot(c, p1)) {
		t.Error("P-1 object leaked into the shared cache")
	}
	if !dc.Cache.Contains(wholeSlot(c, v1)) {
		t.Error("V-1 object missing from the shared cache")
	}
	// Partitioned publisher is isolated from shared-cache churn.
	for k := uint64(100); k < 2000; k++ {
		serve(c, videoReq(k, 3, 1000, 1000, t0))
	}
	if got := serve(c, p1); got.Cache != trace.CacheHit {
		t.Errorf("partitioned object evicted by shared churn: %v", got.Cache)
	}
}

func TestServeOversizedBytesServedClamped(t *testing.T) {
	c := New(Config{ChunkBytes: -1})
	r := imageReq(1, 1, 100, t0)
	r.BytesServed = 500 // inconsistent: more than the object
	out := serve(c, r)
	if out.BytesServed != 100 {
		t.Errorf("BytesServed = %d, want clamped to 100", out.BytesServed)
	}
}

// TestClaimedSizeReservesBoundedSlots: the slot space grows by what a
// request can cache, not by the size it claims. An image claiming 2^52
// bytes (or the largest int64) takes one slot, a video claiming as much
// takes maxChunks and streams the rest from origin, and the next object
// is placed right after them and cached as usual.
func TestClaimedSizeReservesBoundedSlots(t *testing.T) {
	for _, huge := range []int64{1 << 52, math.MaxInt64} {
		c := New(Config{NewCache: func() Cache { return NewLRU(64 << 20) }})
		// origin returns the origin bytes the request served by do cost
		// (a difference, exact even where the running sum wraps).
		origin := func(do func()) int64 {
			before := c.DC(timeutil.RegionEurope).StatsSnapshot().OriginBytes
			do()
			return c.DC(timeutil.RegionEurope).StatsSnapshot().OriginBytes - before
		}
		var out *trace.Record
		if o := origin(func() { out = serve(c, imageReq(1, 1, huge, t0)) }); out.Cache != trace.CacheMiss || out.StatusCode != StatusOK || o != huge {
			t.Fatalf("size %d image: %v %d, %d bytes from origin; want MISS 200, %d", huge, out.Cache, out.StatusCode, o, huge)
		}
		if c.slots.n != 1 {
			t.Fatalf("size %d image: %d slots, want 1", huge, c.slots.n)
		}
		if o := origin(func() { out = serve(c, videoReq(2, 1, huge, huge, t0)) }); out.Cache != trace.CacheMiss || out.BytesServed != huge || o != huge {
			t.Fatalf("size %d video: %v, %d bytes, %d from origin; want MISS, %d, %d", huge, out.Cache, out.BytesServed, o, huge, huge)
		}
		if c.slots.n != 1+maxChunks {
			t.Fatalf("size %d video: %d slots, want %d", huge, c.slots.n, 1+maxChunks)
		}
		small := imageReq(3, 1, 1000, t0)
		for _, want := range []trace.CacheStatus{trace.CacheMiss, trace.CacheHit} {
			if out := serve(c, small); out.Cache != want {
				t.Fatalf("size %d, then a small image: %v, want %v", huge, out.Cache, want)
			}
		}
		if obj, _ := c.keys.Object(small); c.slots.runs[obj].first != 1+maxChunks {
			t.Errorf("size %d: small image at slot %d, want %d", huge, c.slots.runs[obj].first, 1+maxChunks)
		}
	}
}

// TestSlotSpaceExhaustionLeavesItIntact: taking more slots than are left
// panics before anything is handed out.
func TestSlotSpaceExhaustionLeavesItIntact(t *testing.T) {
	s := slotSpace{n: math.MaxUint32 - 2}
	defer func() {
		if recover() == nil {
			t.Error("taking 3 of 2 slots left did not panic")
		}
		if s.n != math.MaxUint32-2 {
			t.Errorf("slots handed out: %d, want %d", s.n, uint32(math.MaxUint32-2))
		}
	}()
	s.take(3)
}

// TestCDNCountsOnce: a DC counts each event once, into its registry's
// cdn_*{dc} series when it has one. DCStats cover what a CDN counted
// since ResetStats, or since New for a second CDN on a used registry;
// the page keeps counting across both.
func TestCDNCountsOnce(t *testing.T) {
	var recs []*trace.Record
	for i := uint64(0); i < 60; i++ {
		r := imageReq(i%7, 100+i%5, 1000+int64(i), t0.Add(time.Duration(i)*time.Minute))
		if i%3 == 0 {
			r = videoReq(i%4, 200+i%3, 5<<20, 3<<20, r.Timestamp)
		}
		r.Region = timeutil.AllRegions()[i%4]
		recs = append(recs, r)
	}
	replay := func(c *CDN) {
		t.Helper()
		if err := c.Replay(trace.NewSliceReader(recs), func(*trace.Record) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	perDC := func(c *CDN) map[timeutil.Region]DCStats {
		out := map[timeutil.Region]DCStats{}
		for _, r := range timeutil.AllRegions() {
			out[r] = c.DC(r).StatsSnapshot()
		}
		return out
	}
	cfg := Config{NewCache: func() Cache { return NewLRU(8 << 20) }}
	ref := New(cfg)
	replay(ref)
	refWarm := perDC(ref)
	ref.ResetStats()
	replay(ref)
	refMeasured := perDC(ref)

	reg := obs.NewRegistry()
	cfg.Metrics = reg
	c := New(cfg)
	replay(c)
	c.ResetStats()
	replay(c)
	if got, want := c.TotalStats(), ref.TotalStats(); got != want || got.Requests != int64(len(recs)) {
		t.Errorf("measured pass with a registry %+v, without %+v (%d requests replayed)", got, want, len(recs))
	}
	counters := reg.Snapshot().Counters
	var pageRequests int64
	for _, r := range timeutil.AllRegions() {
		if got, want := c.DC(r).StatsSnapshot(), refMeasured[r]; got != want {
			t.Errorf("DC %v: measured %+v, want %+v", r, got, want)
		}
		want := refWarm[r]
		want.Add(refMeasured[r])
		if got := ReadStats(r, func(series string) int64 { return counters[series] }); got != want {
			t.Errorf("DC %v: page reads %+v, want both passes %+v", r, got, want)
		}
		pageRequests += counters[`cdn_requests_total{dc="`+r.String()+`"}`]
	}
	if want := int64(2 * len(recs)); pageRequests != want {
		t.Errorf("cdn_requests_total sums to %d, want both passes' %d", pageRequests, want)
	}

	second := New(cfg)
	for r, st := range perDC(second) {
		if st != (DCStats{}) {
			t.Errorf("a second CDN on the registry starts DC %v at %+v, want zero", r, st)
		}
	}
	replay(second)
	for r, st := range perDC(second) {
		if st != refWarm[r] {
			t.Errorf("second CDN, DC %v: %+v, want a cold pass's %+v", r, st, refWarm[r])
		}
	}
}

// A registry only exports the model's counters: with one, a DC's cache is
// still the very object NewCache returned, and ResetStats still zeroes a
// TieredCache's parent tier.
func TestResetStatsWithMetricsReachesTieredCache(t *testing.T) {
	var tiered *TieredCache
	c := New(Config{
		NewCache: func() Cache {
			tiered = NewTieredCache(NewLRU(1000), NewLRU(1<<20))
			return tiered
		},
		ChunkBytes: -1,
		Metrics:    obs.NewRegistry(),
	})
	if got := c.DC(timeutil.RegionAsia).Cache; got != Cache(tiered) {
		t.Fatalf("Asia's cache is a %T, want the *TieredCache NewCache returned", got)
	}
	eu := c.DC(timeutil.RegionEurope).Cache.(*TieredCache)
	// Object 1 is evicted from the 1000-byte edge by object 2 and comes
	// back from the parent, twice.
	for _, obj := range []uint64{1, 2, 1, 2} {
		serve(c, imageReq(obj, 100+obj, 800, t0))
	}
	if eu.ParentHits != 2 || eu.ParentHitBytes != 1600 || eu.ParentMisses != 2 {
		t.Fatalf("before reset: parent %d hits (%d B), %d misses; want 2 (1600 B), 2",
			eu.ParentHits, eu.ParentHitBytes, eu.ParentMisses)
	}
	c.ResetStats()
	if eu.ParentHits != 0 || eu.ParentHitBytes != 0 || eu.ParentMisses != 0 {
		t.Errorf("after reset: parent %d hits (%d B), %d misses; want all zero",
			eu.ParentHits, eu.ParentHitBytes, eu.ParentMisses)
	}
}

// TestMetricFamiliesHaveOneLabelSet: every metric family a CDN publishes
// carries one set of label keys — plain and tiered, with a publisher
// partition.
func TestMetricFamiliesHaveOneLabelSet(t *testing.T) {
	for name, newCache := range map[string]func() Cache{
		"plain":  func() Cache { return NewLRU(1 << 20) },
		"tiered": func() Cache { return NewTieredCache(NewLRU(1<<10), NewLRU(1<<20)) },
	} {
		reg := obs.NewRegistry()
		c := New(Config{
			NewCache:        newCache,
			PublisherCaches: map[string]func() Cache{"V-1": newCache},
			ChunkBytes:      -1,
			Metrics:         reg,
		})
		for i := uint64(0); i < 6; i++ {
			serve(c, imageReq(i%3, 100+i, 1000, t0))
			serve(c, videoReq(i%3, 100+i, 1000, 1000, t0))
		}
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		labelSets := map[string]map[string]bool{} // family -> distinct label-key lists
		for _, line := range strings.Split(buf.String(), "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			series, _, _ := strings.Cut(line, " ")
			family, labels, _ := strings.Cut(series, "{")
			var keys []string
			for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
				if k, _, ok := strings.Cut(kv, "="); ok {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			if labelSets[family] == nil {
				labelSets[family] = map[string]bool{}
			}
			labelSets[family][strings.Join(keys, ",")] = true
		}
		for _, family := range []string{"cdn_requests_total", "cdn_hits_total", "cdn_misses_total", "cdn_origin_bytes_total", "cdn_egress_bytes_total"} {
			if len(labelSets[family]) == 0 {
				t.Errorf("%s: family %s not rendered", name, family)
			}
		}
		for family, sets := range labelSets {
			if len(sets) != 1 {
				t.Errorf("%s: family %s rendered under %d label sets: %v", name, family, len(sets), sets)
			}
		}
	}
}
