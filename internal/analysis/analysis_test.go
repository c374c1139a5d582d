package analysis

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

var week = timeutil.NewWeek(time.Date(2015, 10, 3, 0, 0, 0, 0, time.UTC))

// rec builds a minimal valid record at hour-of-week h.
func rec(site string, obj, user uint64, ft trace.FileType, size int64, h int) *trace.Record {
	return &trace.Record{
		Timestamp:   week.HourStart(h).Add(time.Minute),
		Publisher:   site,
		ObjectID:    obj,
		FileType:    ft,
		ObjectSize:  size,
		BytesServed: size,
		UserID:      user,
		UserAgent:   "Mozilla/5.0 (Windows NT 6.1) AppleWebKit/537.36 Chrome/45.0.2454.101 Safari/537.36",
		Region:      timeutil.RegionEurope,
		StatusCode:  200,
		Cache:       trace.CacheUnknown,
	}
}

func TestCompositionCounts(t *testing.T) {
	c := newComposition(0)
	c.Add(rec("V-1", 1, 10, trace.FileMP4, 1000, 0))
	c.Add(rec("V-1", 1, 11, trace.FileMP4, 1000, 1)) // same object again
	c.Add(rec("V-1", 2, 10, trace.FileJPG, 50, 2))
	c.Add(rec("P-1", 3, 12, trace.FileJPG, 80, 3))

	b := c.Site("V-1")
	if b == nil {
		t.Fatal("missing V-1")
	}
	if b.Objects[trace.CategoryVideo] != 1 || b.Objects[trace.CategoryImage] != 1 {
		t.Errorf("objects: %+v", b.Objects)
	}
	if b.Requests[trace.CategoryVideo] != 2 {
		t.Errorf("video requests = %d", b.Requests[trace.CategoryVideo])
	}
	if b.Bytes[trace.CategoryVideo] != 2000 {
		t.Errorf("video bytes = %d", b.Bytes[trace.CategoryVideo])
	}
	if b.TotalObjects() != 2 || b.TotalRequests() != 3 || b.TotalBytes() != 2050 {
		t.Errorf("totals: %d %d %d", b.TotalObjects(), b.TotalRequests(), b.TotalBytes())
	}
	if got := b.RequestFrac(trace.CategoryVideo); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("RequestFrac = %v", got)
	}
	if got := b.ObjectFrac(trace.CategoryImage); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("ObjectFrac = %v", got)
	}
	if got := b.ByteFrac(trace.CategoryVideo); math.Abs(got-2000.0/2050) > 1e-12 {
		t.Errorf("ByteFrac = %v", got)
	}
	sites := c.Sites()
	if len(sites) != 2 || sites[0] != "P-1" || sites[1] != "V-1" {
		t.Errorf("Sites = %v", sites)
	}
	if c.Site("nope") != nil {
		t.Error("unknown site should be nil")
	}
}

func TestCompositionMergeExact(t *testing.T) {
	// Object IDs repeat across sites, but object identity is per site:
	// adopting one site's shard must not count the other's objects.
	a, b, whole := newComposition(0), newComposition(0), newComposition(0)
	records := []*trace.Record{
		rec("V-1", 1, 1, trace.FileMP4, 100, 0),
		rec("P-1", 1, 2, trace.FileMP4, 100, 1),
		rec("V-1", 2, 1, trace.FileJPG, 10, 2),
		rec("P-1", 2, 3, trace.FileJPG, 10, 3),
		rec("V-1", 2, 3, trace.FileJPG, 10, 4),
	}
	for _, r := range records {
		whole.Add(r)
		if r.Publisher == "V-1" {
			a.Add(r)
		} else {
			b.Add(r)
		}
	}
	adoptAlone(a, b)
	for _, site := range []string{"V-1", "P-1"} {
		ba, bw := a.Site(site), whole.Site(site)
		if !reflect.DeepEqual(ba, bw) {
			t.Errorf("%s: merged %+v != sequential %+v", site, *ba, *bw)
		}
	}
}

func TestHourlyVolumeLocalTime(t *testing.T) {
	h := newHourlyVolume()
	r := rec("V-1", 1, 1, trace.FileMP4, 1000, 12) // 12:00 UTC
	r.Region = timeutil.RegionAsia                 // UTC+8 -> 20:00 local
	h.Add(r)
	p := h.Percent("V-1")
	if p[20] != 100 {
		t.Errorf("local hour bucket: %v", p)
	}
	if h.PeakHour("V-1") != 20 {
		t.Errorf("PeakHour = %d", h.PeakHour("V-1"))
	}
	// Unknown site yields zeros.
	var zero [24]float64
	if h.Percent("none") != zero {
		t.Error("unknown site should be zero")
	}
}

func TestHourlyVolumeMerge(t *testing.T) {
	a, b := newHourlyVolume(), newHourlyVolume()
	a.Add(rec("V-1", 1, 1, trace.FileMP4, 300, 0))
	a.Add(rec("V-1", 2, 1, trace.FileMP4, 700, 0))
	b.Add(rec("P-1", 2, 1, trace.FileMP4, 700, 3))
	adoptAlone(a, b)
	p := a.Percent("V-1")
	// Both records land in the same local hour (EU, UTC+1 -> hour 1).
	if math.Abs(p[1]-100) > 1e-9 {
		t.Errorf("merged percent: %v", p[1])
	}
	if q := a.Percent("P-1"); math.Abs(q[4]-100) > 1e-9 {
		t.Errorf("adopted site percent: %v", q[4])
	}
	if len(a.Sites()) != 2 {
		t.Error("sites")
	}
	if a.TroughHour("V-1") == a.PeakHour("V-1") && p[0] != p[1] {
		t.Error("trough == peak on non-flat series")
	}
}

func TestHourOfWeekSeries(t *testing.T) {
	s := newHourOfWeekSeries(week)
	// rec's requests come from Europe (UTC+1): UTC hour 5 is local 6.
	s.Add(rec("V-1", 1, 1, trace.FileMP4, 100, 5))
	s.Add(rec("V-1", 1, 2, trace.FileMP4, 100, 5))
	s.Add(rec("V-1", 1, 3, trace.FileMP4, 100, 100))
	// Local hours wrap at the week boundary both ways.
	early := rec("V-1", 1, 4, trace.FileMP4, 100, 2)
	early.Region = timeutil.RegionNorthAmerica // UTC-6: local hour -4
	s.Add(early)
	late := rec("V-1", 1, 5, trace.FileMP4, 100, 167)
	late.Region = timeutil.RegionAsia // UTC+8: local hour 175
	s.Add(late)
	outside := rec("V-1", 1, 6, trace.FileMP4, 100, 0)
	outside.Timestamp = week.Start.Add(-time.Hour)
	s.Add(outside)
	got := s.Series("V-1")
	if got[6] != 2 || got[101] != 1 || got[164] != 1 || got[7] != 1 {
		t.Errorf("series: h6=%v h101=%v h164=%v h7=%v, want 2, 1, 1, 1", got[6], got[101], got[164], got[7])
	}
	var total float64
	for _, v := range got {
		total += v
	}
	if total != 5 {
		t.Errorf("out-of-window record counted: total=%v", total)
	}
	if s.Series("none") != nil {
		t.Error("unknown site should be nil")
	}
}

func TestDeviceMixUserShare(t *testing.T) {
	d := newDeviceMix(0)
	android := "Mozilla/5.0 (Linux; Android 5.1.1; SM-G920F Build/LMY47X) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/45.0.2454.94 Mobile Safari/537.36"
	for u := uint64(0); u < 8; u++ {
		d.Add(rec("S-1", 1, u, trace.FileJPG, 10, 0)) // desktop agent
	}
	for u := uint64(100); u < 102; u++ {
		r := rec("S-1", 1, u, trace.FileJPG, 10, 0)
		r.UserAgent = android
		d.Add(r)
	}
	// Repeat requests from the same user do not inflate counts.
	d.Add(rec("S-1", 2, 0, trace.FileJPG, 10, 1))
	share := d.UserShare("S-1")
	if math.Abs(share[0]-0.8) > 1e-9 {
		t.Errorf("desktop share = %v, want 0.8", share[0])
	}
	if math.Abs(share[1]-0.2) > 1e-9 {
		t.Errorf("android share = %v, want 0.2", share[1])
	}
	if d.DesktopShare("S-1") != share[0] {
		t.Error("DesktopShare mismatch")
	}
	var zero [4]float64
	if d.UserShare("none") != zero {
		t.Error("unknown site")
	}
}

// A merge adopts a site the receiver has not seen, users and their agent
// memo included. The memo indexes the merged-from analyzer's agents, so a
// record folded after the merge must still classify, not index past the
// receiver's.
func TestDeviceMixAddAfterAdoptingMerge(t *testing.T) {
	d, o := newDeviceMix(0), newDeviceMix(0)
	d.Add(rec("V-1", 1, 1, trace.FileJPG, 10, 0)) // one desktop agent
	for u := uint64(0); u < 3; u++ {
		r := rec("S-1", 1, u, trace.FileJPG, 10, 0)
		r.UserAgent = fmt.Sprintf("Mozilla/5.0 (Linux; Android 5.1.%d; Nexus 5) Chrome/45.0 Mobile Safari/537.36", u)
		o.Add(r)
	}
	adoptAlone(d, o)
	d.Add(rec("S-1", 2, 2, trace.FileJPG, 10, 1)) // user 2, now on the desktop agent
	if got := d.UserShare("S-1"); got[0] != 0.25 || got[1] != 0.75 {
		t.Errorf("UserShare after merge and add = %v, want desktop 1 and android 3 of 4", got)
	}
}

func TestSizeDistribution(t *testing.T) {
	s := newSizeDistribution()
	s.Add(rec("P-1", 1, 1, trace.FileJPG, 5_000, 0))
	s.Add(rec("P-1", 1, 2, trace.FileJPG, 5_000, 1)) // dedup
	s.Add(rec("P-1", 2, 1, trace.FileJPG, 500_000, 2))
	s.Add(rec("P-1", 3, 1, trace.FileMP4, 20_000_000, 3))
	cdf := s.CDF("P-1", trace.CategoryImage)
	if cdf == nil || cdf.Len() != 2 {
		t.Fatalf("image CDF len = %v", cdf)
	}
	if got := s.FracAbove("P-1", trace.CategoryVideo, 1<<20); got != 1 {
		t.Errorf("video FracAbove 1MB = %v", got)
	}
	if got := s.FracAbove("P-1", trace.CategoryImage, 1<<20); got != 0 {
		t.Errorf("image FracAbove 1MB = %v", got)
	}
	if gap := s.BimodalityGap("P-1", trace.CategoryImage); gap < 50 {
		t.Errorf("bimodality gap = %v, want large", gap)
	}
	if s.CDF("none", trace.CategoryImage) != nil {
		t.Error("unknown site should be nil")
	}
	if s.CDF("P-1", trace.CategoryOther) != nil {
		t.Error("empty category should be nil")
	}
}

func TestPopularity(t *testing.T) {
	p := newPopularity()
	// Object 1: 5 requests; object 2: 2; object 3: 1.
	for i := 0; i < 5; i++ {
		p.Add(rec("V-1", 1, uint64(i), trace.FileMP4, 100, i))
	}
	p.Add(rec("V-1", 2, 1, trace.FileMP4, 100, 0))
	p.Add(rec("V-1", 2, 2, trace.FileMP4, 100, 1))
	p.Add(rec("V-1", 3, 1, trace.FileMP4, 100, 2))
	counts := p.Counts("V-1", trace.CategoryVideo)
	if len(counts) != 3 || counts[0] != 5 || counts[1] != 2 || counts[2] != 1 {
		t.Errorf("counts = %v", counts)
	}
	cdf := p.CDF("V-1", trace.CategoryVideo)
	if cdf.Len() != 3 {
		t.Error("CDF length")
	}
	// Top 1/3 of objects (the top one) absorbs 5/8 of requests.
	if got := p.TopShare("V-1", trace.CategoryVideo, 0.34); math.Abs(got-5.0/8) > 1e-9 {
		t.Errorf("TopShare = %v", got)
	}
	if got := p.TopShare("V-1", trace.CategoryVideo, 1); got != 1 {
		t.Errorf("TopShare(1) = %v", got)
	}
	if p.CDF("none", trace.CategoryVideo) != nil {
		t.Error("unknown site")
	}
	rc := p.RequestCounts("V-1")
	if rc[1] != 5 || rc[2] != 2 || rc[3] != 1 {
		t.Errorf("RequestCounts = %v", rc)
	}
}

func TestAgingCurve(t *testing.T) {
	a := newAging(week, 0)
	// Object 1: requested on all 7 days (diurnal).
	for d := 0; d < 7; d++ {
		a.Add(rec("P-1", 1, 1, trace.FileJPG, 10, d*24))
	}
	// Object 2: requested on days 0-1 only (short/long-lived).
	a.Add(rec("P-1", 2, 1, trace.FileJPG, 10, 0))
	a.Add(rec("P-1", 2, 1, trace.FileJPG, 10, 25))
	// Object 3: injected day 4, requested days 4-5.
	a.Add(rec("P-1", 3, 1, trace.FileJPG, 10, 4*24))
	a.Add(rec("P-1", 3, 1, trace.FileJPG, 10, 5*24+2))
	curve := a.Curve("P-1")
	if curve[0] != 1 {
		t.Errorf("age-1 fraction = %v, want 1", curve[0])
	}
	// Age 2 (index 1): all three objects observable, all requested.
	if curve[1] != 1 {
		t.Errorf("age-2 fraction = %v, want 1", curve[1])
	}
	// Age 3 (index 2): objects 1,2 (day 2) and 3 (day 6) observable;
	// only object 1 was requested then.
	if math.Abs(curve[2]-1.0/3) > 1e-9 {
		t.Errorf("age-3 fraction = %v, want 1/3", curve[2])
	}
	// Age 7 (index 6): objects 1 and 2 observable; only 1 requested.
	if math.Abs(curve[6]-0.5) > 1e-9 {
		t.Errorf("age-7 fraction = %v, want 0.5", curve[6])
	}
	// Of the three objects, only object 1 is requested on all 7 days.
	if got := a.FracAliveAllWeek("P-1"); math.Abs(got-1.0/3) > 1e-9 {
		t.Errorf("FracAliveAllWeek = %v, want 1/3", got)
	}
}

func TestSessionsIATAndLength(t *testing.T) {
	s := newSessions(0, 0)
	if s.Timeout() != DefaultSessionTimeout {
		t.Error("default timeout")
	}
	base := week.HourStart(10)
	mk := func(user uint64, offset time.Duration) *trace.Record {
		r := rec("V-1", 1, user, trace.FileMP4, 100, 10)
		r.Timestamp = base.Add(offset)
		return r
	}
	// User 1: two sessions — requests at 0s, 30s, 90s then 30min later.
	s.Add(mk(1, 0))
	s.Add(mk(1, 30*time.Second))
	s.Add(mk(1, 90*time.Second))
	s.Add(mk(1, 30*time.Minute))
	// User 2: one single-request session.
	s.Add(mk(2, 0))

	cdf := s.IATCDF("V-1")
	if cdf == nil || cdf.Len() != 3 {
		t.Fatalf("IAT CDF = %v", cdf)
	}
	if med, _ := cdf.Median(); med != 60 {
		t.Errorf("median IAT = %v, want 60", med)
	}
	sessions := s.SessionsOf("V-1")
	if len(sessions) != 3 {
		t.Fatalf("sessions = %+v", sessions)
	}
	lengths := map[time.Duration]bool{}
	for _, ses := range sessions {
		lengths[ses.Length] = true
	}
	if !lengths[90*time.Second] || !lengths[0] {
		t.Errorf("session lengths: %+v", sessions)
	}
	if got := s.MeanRequestsPerSession("V-1"); math.Abs(got-5.0/3) > 1e-9 {
		t.Errorf("mean reqs/session = %v", got)
	}
	lcdf := s.SessionLengthCDF("V-1")
	if lcdf == nil || lcdf.Len() != 3 {
		t.Error("session length CDF")
	}
	if s.IATCDF("none") != nil || s.SessionLengthCDF("none") != nil {
		t.Error("unknown site")
	}
}

func TestAddiction(t *testing.T) {
	a := newAddiction(0)
	// Object 1: user 1 requests it 12 times (addiction), user 2 once.
	for i := 0; i < 12; i++ {
		a.Add(rec("V-1", 1, 1, trace.FileMP4, 100, i))
	}
	a.Add(rec("V-1", 1, 2, trace.FileMP4, 100, 0))
	// Object 2: 5 distinct users once each (viral).
	for u := uint64(10); u < 15; u++ {
		a.Add(rec("V-1", 2, u, trace.FileMP4, 100, 0))
	}
	scatter := a.Scatter("V-1", trace.CategoryVideo)
	if len(scatter) != 2 {
		t.Fatalf("scatter = %+v", scatter)
	}
	if scatter[0].Object != 1 || scatter[0].Requests != 13 || scatter[0].Users != 2 {
		t.Errorf("addictive object point: %+v", scatter[0])
	}
	if scatter[1].Requests != 5 || scatter[1].Users != 5 {
		t.Errorf("viral object point: %+v", scatter[1])
	}
	// Object 1's heaviest user issued 12 requests, object 2's one.
	for threshold, want := range map[int64]float64{0: 1, 10: 0.5, 11: 0.5, 12: 0} {
		if got := a.FracObjectsAbove("V-1", trace.CategoryVideo, threshold); math.Abs(got-want) > 1e-9 {
			t.Errorf("FracObjectsAbove(%d) = %v, want %v", threshold, got, want)
		}
	}
	if a.FracObjectsAbove("none", trace.CategoryVideo, 0) != 0 {
		t.Error("unknown site")
	}
}

func TestCaching(t *testing.T) {
	c := newCaching(0)
	hit := rec("V-1", 1, 1, trace.FileJPG, 100, 0)
	hit.Cache = trace.CacheHit
	miss := rec("V-1", 1, 2, trace.FileJPG, 100, 1)
	miss.Cache = trace.CacheMiss
	c.Add(miss)
	c.Add(hit)
	c.Add(hit)
	nc := rec("V-1", 2, 1, trace.FileJPG, 100, 2)
	nc.StatusCode = 403 // no cache verdict
	c.Add(nc)
	cdf := c.HitRatioCDF("V-1", trace.CategoryImage)
	if cdf == nil || cdf.Len() != 1 {
		t.Fatalf("hit ratio CDF: %v", cdf)
	}
	if v, _ := cdf.Median(); math.Abs(v-2.0/3) > 1e-9 {
		t.Errorf("object hit ratio = %v, want 2/3", v)
	}
	if got := c.WeightedHitRatio("V-1"); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("weighted hit ratio = %v", got)
	}
	codes := c.ResponseCodes("V-1", trace.CategoryImage)
	if codes[200] != 3 || codes[403] != 1 {
		t.Errorf("codes = %v", codes)
	}
	if got := c.CodeFrac("V-1", trace.CategoryImage, 403); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("CodeFrac(403) = %v", got)
	}
	if c.HitRatioCDF("none", trace.CategoryImage) != nil {
		t.Error("unknown site")
	}
}

func TestHitRatioByPopularityDecile(t *testing.T) {
	c := newCaching(0)
	// 20 objects: object i gets i+1 lookups and hits proportional to
	// popularity, so the decile curve must rise.
	for obj := uint64(0); obj < 20; obj++ {
		lookups := int64(obj) + 1
		for k := int64(0); k < lookups; k++ {
			r := rec("V-1", obj, uint64(k), trace.FileJPG, 100, int(obj%100))
			if k < lookups-1 { // all but one hit
				r.Cache = trace.CacheHit
			} else {
				r.Cache = trace.CacheMiss
			}
			c.Add(r)
		}
	}
	deciles := c.HitRatioByPopularityDecile("V-1")
	if len(deciles) != 10 {
		t.Fatalf("deciles = %v", deciles)
	}
	if deciles[9] <= deciles[0] {
		t.Errorf("top decile %v should exceed bottom %v", deciles[9], deciles[0])
	}
	for _, d := range deciles {
		if d < 0 || d > 1 {
			t.Fatalf("decile out of range: %v", d)
		}
	}
	// Too few objects: nil.
	small := newCaching(0)
	r := rec("X", 1, 1, trace.FileJPG, 10, 0)
	r.Cache = trace.CacheHit
	small.Add(r)
	if small.HitRatioByPopularityDecile("X") != nil {
		t.Error("under 10 objects should return nil")
	}
	if c.HitRatioByPopularityDecile("nope") != nil {
		t.Error("unknown site should return nil")
	}
}

func TestCachingCorrelation(t *testing.T) {
	c := newCaching(0)
	// Popular objects hit more: object i gets i+1 lookups with i hits.
	for obj := uint64(1); obj <= 5; obj++ {
		for k := int64(0); k < int64(obj)+1; k++ {
			r := rec("V-1", obj, uint64(k), trace.FileJPG, 100, int(obj))
			if k < int64(obj) {
				r.Cache = trace.CacheHit
			} else {
				r.Cache = trace.CacheMiss
			}
			c.Add(r)
		}
	}
	if got := c.PopularityHitCorrelation("V-1"); got < 0.9 {
		t.Errorf("popularity-hit correlation = %v, want > 0.9", got)
	}
}

func TestObjectSeriesAndClustering(t *testing.T) {
	s := newObjectSeries(week, 0)
	// Three diurnal objects: daily repeating pattern.
	for obj := uint64(1); obj <= 3; obj++ {
		for d := 0; d < 7; d++ {
			for _, hh := range []int{1, 2, 3} {
				for k := 0; k < 2; k++ {
					s.Add(rec("V-2", obj, uint64(d*10+k), trace.FileMP4, 100, d*24+hh))
				}
			}
		}
	}
	// Three short-lived objects: burst in a few hours.
	for obj := uint64(10); obj <= 12; obj++ {
		start := int(obj-10)*24 + 12
		for h := start; h < start+4; h++ {
			for k := 0; k < 11; k++ {
				s.Add(rec("V-2", obj, uint64(k), trace.FileMP4, 100, h))
			}
		}
	}
	ids, series := s.SeriesSet("V-2", trace.CategoryVideo, 20, 0)
	if len(ids) != 6 {
		t.Fatalf("series set size = %d, want 6", len(ids))
	}
	for _, ser := range series {
		var sum float64
		for _, v := range ser {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("series not normalized: %v", sum)
		}
	}
	res, err := s.ClusterSeries("V-2", trace.CategoryVideo, ClusterOptions{
		MinRequests: 20, K: 2, BandRadius: 24, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters = %d", len(res.Clusters))
	}
	// The two clusters should separate diurnal from short-lived objects:
	// both clusters have 3 members.
	if res.Clusters[0].Size != 3 || res.Clusters[1].Size != 3 {
		t.Errorf("cluster sizes: %d, %d", res.Clusters[0].Size, res.Clusters[1].Size)
	}
	for _, cl := range res.Clusters {
		if math.Abs(cl.Frac-0.5) > 1e-9 {
			t.Errorf("cluster frac = %v", cl.Frac)
		}
		if len(cl.Medoid) != timeutil.HoursPerWeek {
			t.Error("medoid length")
		}
	}
	// Shape classifier distinguishes the medoids.
	labels := map[string]bool{}
	for _, cl := range res.Clusters {
		labels[ClassifyShape(cl.Medoid)] = true
	}
	if !labels["diurnal"] || !labels["short-lived"] {
		t.Errorf("medoid shapes classified as %v", labels)
	}
	// Too-high K errors.
	if _, err := s.ClusterSeries("V-2", trace.CategoryVideo, ClusterOptions{MinRequests: 20, K: 10}); err == nil {
		t.Error("k > series count should error")
	}
}

// TestClusterSeriesWorkerInvariant: the distance matrix is the same bits
// however its rows fall on workers, so the whole result is — and an
// unset worker count, which now means GOMAXPROCS, changes nothing else.
func TestClusterSeriesWorkerInvariant(t *testing.T) {
	s := newObjectSeries(week, 0)
	rng := rand.New(rand.NewSource(8))
	for obj := uint64(1); obj <= 40; obj++ {
		start, span := rng.Intn(100), 12+rng.Intn(56)
		for k := 0; k < 60; k++ {
			s.Add(rec("V-2", obj, uint64(k), trace.FileMP4, 100, start+rng.Intn(span)))
		}
	}
	cluster := func(workers int) *ClusterResult {
		res, err := s.ClusterSeries("V-2", trace.CategoryVideo, ClusterOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := cluster(1)
	if len(want.Series) != 40 {
		t.Fatalf("clustered %d series, want 40", len(want.Series))
	}
	for _, workers := range []int{0, 3} {
		if got := cluster(workers); !reflect.DeepEqual(got, want) {
			t.Errorf("Workers %d: result differs from Workers 1", workers)
		}
	}
	if got := (&ClusterOptions{}).withDefaults().Workers; got != runtime.GOMAXPROCS(0) {
		t.Errorf("default Workers = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}

func TestClassifyShapeEdgeCases(t *testing.T) {
	if ClassifyShape(nil) != "empty" {
		t.Error("nil series")
	}
	zero := make([]float64, 168)
	if ClassifyShape(zero) != "empty" {
		t.Error("zero series")
	}
	// A single-spike series is short-lived.
	spike := make([]float64, 168)
	spike[50] = 1
	if got := ClassifyShape(spike); got != "short-lived" {
		t.Errorf("spike classified as %s", got)
	}
	// A uniform series is diurnal-like (long span, low concentration).
	uniform := make([]float64, 168)
	for i := range uniform {
		uniform[i] = 1.0 / 168
	}
	if got := ClassifyShape(uniform); got != "diurnal" {
		t.Errorf("uniform classified as %s", got)
	}
}

func TestObjectSeriesMerge(t *testing.T) {
	a, b := newObjectSeries(week, 0), newObjectSeries(week, 0)
	a.Add(rec("P-1", 7, 1, trace.FileMP4, 100, 9))
	b.Add(rec("V-1", 1, 1, trace.FileMP4, 100, 0))
	b.Add(rec("V-1", 1, 2, trace.FileMP4, 100, 0))
	b.Add(rec("V-1", 2, 1, trace.FileMP4, 100, 5))
	adoptAlone(a, b)
	ids, series := a.SeriesSet("V-1", trace.CategoryVideo, 1, 0)
	if len(ids) != 2 {
		t.Fatalf("ids = %v", ids)
	}
	// Object 1 has 2 requests at hour 0.
	for i, id := range ids {
		if id == 1 && series[i][0] != 1 {
			t.Error("normalized series should be 1 at hour 0")
		}
	}
	if ids, _ := a.SeriesSet("P-1", trace.CategoryVideo, 1, 0); len(ids) != 1 || ids[0] != 7 {
		t.Errorf("receiver's own site: ids = %v", ids)
	}
}
