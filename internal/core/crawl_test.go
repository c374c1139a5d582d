package core

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

var crawlWeek = timeutil.NewWeek(time.Date(2015, 10, 3, 0, 0, 0, 0, time.UTC))

// crawlRecs builds n requests for object obj spread evenly over the week.
func crawlRecs(site string, obj uint64, n int) []*trace.Record {
	out := make([]*trace.Record, n)
	span := crawlWeek.End().Sub(crawlWeek.Start)
	for i := range out {
		out[i] = &trace.Record{
			Timestamp:   crawlWeek.Start.Add(time.Duration(i+1) * span / time.Duration(n+2)),
			Publisher:   site,
			ObjectID:    obj,
			FileType:    trace.FileJPG,
			ObjectSize:  100,
			BytesServed: 100,
			UserID:      uint64(i),
			UserAgent:   "UA",
			Region:      timeutil.RegionEurope,
			StatusCode:  200,
		}
	}
	return out
}

func mergeRecs(parts ...[]*trace.Record) []*trace.Record {
	var out []*trace.Record
	for _, p := range parts {
		out = append(out, p...)
	}
	trace.SortByTime(out)
	return out
}

// crawlSite crawls recs over crawlWeek and returns site's last-crawl
// views and the number of crawls.
func crawlSite(t *testing.T, recs []*trace.Record, site string, interval time.Duration, topN int) (map[uint64]int64, int) {
	t.Helper()
	views, points, err := crawlViews(trace.NewSliceReader(recs), crawlWeek, interval, topN)
	if err != nil {
		t.Fatal(err)
	}
	return views[site], points
}

// crawlerBaseline compares what a simulated crawl of one site observes
// against what the logs do, as one row of CrawlerBaselineTableSource.
func crawlerBaseline(r *Results, src trace.Source, site string, interval time.Duration, topN int) (crawlComparison, error) {
	tr, err := src.Open()
	if err != nil {
		return crawlComparison{}, err
	}
	defer trace.CloseReader(tr)
	views, points, err := crawlViews(tr, r.Week, interval, topN)
	if err != nil {
		return crawlComparison{}, err
	}
	return compareCrawl(views[site], r.requestCounts(site), points), nil
}

func TestCrawlDaily(t *testing.T) {
	recs := mergeRecs(crawlRecs("P-1", 1, 70), crawlRecs("P-1", 2, 14))
	views, points := crawlSite(t, recs, "P-1", 24*time.Hour, 0)
	if points != 7 {
		t.Fatalf("crawls = %d, want 7", points)
	}
	if views[1] != 70 || views[2] != 14 {
		t.Errorf("final views = %v", views)
	}
	// Every 5h, the last crawl is at hour 165: a request at that instant
	// is seen, one a nanosecond later is not.
	last := crawlWeek.Start.Add(165 * time.Hour)
	at, after := *recs[0], *recs[0]
	at.Timestamp, after.Timestamp = last, last.Add(time.Nanosecond)
	at.ObjectID, after.ObjectID = 3, 4
	views, points = crawlSite(t, mergeRecs(recs, []*trace.Record{&at, &after}), "P-1", 5*time.Hour, 0)
	if points != 33 {
		t.Errorf("crawls every 5h = %d, want 33", points)
	}
	if views[3] != 1 || views[4] != 0 {
		t.Errorf("views at and after the last crawl = %d, %d, want 1, 0", views[3], views[4])
	}
}

func TestCrawlTopNCensoring(t *testing.T) {
	recs := mergeRecs(crawlRecs("P-1", 1, 100), crawlRecs("P-1", 2, 50), crawlRecs("P-1", 3, 5))
	views, _ := crawlSite(t, recs, "P-1", 24*time.Hour, 2)
	if len(views) != 2 {
		t.Fatalf("topN=2 final views = %v", views)
	}
	if _, ok := views[3]; ok {
		t.Error("tail object should be censored")
	}
	// Ties go to the lower ID.
	recs = mergeRecs(crawlRecs("P-1", 9, 5), crawlRecs("P-1", 8, 5), crawlRecs("P-1", 7, 5))
	if views, _ := crawlSite(t, recs, "P-1", 24*time.Hour, 2); !reflect.DeepEqual(views, map[uint64]int64{7: 5, 8: 5}) {
		t.Errorf("tied top-2 = %v, want objects 7 and 8", views)
	}
}

func TestCrawlValidation(t *testing.T) {
	recs := crawlRecs("P-1", 1, 5)
	if _, _, err := crawlViews(trace.NewSliceReader(recs), crawlWeek, time.Second, 0); err == nil {
		t.Error("sub-minute interval should error")
	}
	if _, _, err := crawlViews(trace.NewSliceReader(recs), crawlWeek, 30*24*time.Hour, 0); err == nil {
		t.Error("interval longer than window should error")
	}
	if _, points, err := crawlViews(trace.NewSliceReader(recs), crawlWeek, 0, 0); err != nil || points != 7 {
		t.Errorf("zero interval: %d crawls, err %v; want daily crawls", points, err)
	}
}

func TestCrawlIgnoresOtherSites(t *testing.T) {
	recs := mergeRecs(crawlRecs("P-1", 1, 10), crawlRecs("V-1", 2, 99))
	views, _ := crawlSite(t, recs, "P-1", 0, 0)
	if _, ok := views[2]; ok {
		t.Error("other site's object leaked into the crawl")
	}
	if views[1] != 10 {
		t.Errorf("views = %v", views)
	}
}

// siteReader passes through one publisher's records.
type siteReader struct {
	r    trace.Reader
	site string
}

func (s siteReader) Read(rec *trace.Record) error {
	for {
		if err := s.r.Read(rec); err != nil || rec.Publisher == s.site {
			return err
		}
	}
}

// One read of the whole trace, in any order, must give every publisher
// exactly the crawl a read of that publisher's records alone gives.
func TestCrawlAllSitesMatchesPerSite(t *testing.T) {
	study, err := NewStudy(Config{Seed: 5, Scale: 0.004, Salt: "crawl"})
	if err != nil {
		t.Fatal(err)
	}
	generated, err := study.Generator().Generate()
	if err != nil {
		t.Fatal(err)
	}
	// L-1's first request comes on day three.
	late := crawlRecs("L-1", 9, 40)
	for i, r := range late {
		r.Timestamp = crawlWeek.Start.Add(54*time.Hour + time.Duration(i)*time.Hour)
	}
	handBuilt := mergeRecs(crawlRecs("P-1", 1, 70), crawlRecs("V-1", 2, 30), late)

	for _, tc := range []struct {
		name  string
		recs  []*trace.Record
		week  timeutil.Week
		sites int
	}{
		{"generated", generated, study.Generator().Week(), 5},
		{"late-starting site", handBuilt, crawlWeek, 3},
	} {
		reversed := slices.Clone(tc.recs)
		slices.Reverse(reversed)
		for _, cfg := range []struct {
			interval time.Duration
			topN     int
		}{{24 * time.Hour, 20}, {6 * time.Hour, 0}} {
			all, points, err := crawlViews(trace.NewSliceReader(tc.recs), tc.week, cfg.interval, cfg.topN)
			if err != nil {
				t.Fatal(err)
			}
			if len(all) != tc.sites {
				t.Fatalf("%s: %d sites crawled, want %d", tc.name, len(all), tc.sites)
			}
			if want := int(7 * 24 * time.Hour / cfg.interval); points != want {
				t.Errorf("%s, %+v: %d crawls, want %d", tc.name, cfg, points, want)
			}
			backwards, _, err := crawlViews(trace.NewSliceReader(reversed), tc.week, cfg.interval, cfg.topN)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(all, backwards) {
				t.Errorf("%s, %+v: the reversed trace crawls differently", tc.name, cfg)
			}
			for site, got := range all {
				one, _, err := crawlViews(siteReader{trace.NewSliceReader(tc.recs), site}, tc.week, cfg.interval, cfg.topN)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, one[site]) {
					t.Errorf("%s, %+v, site %s: crawl of the whole trace differs from the crawl of its own records", tc.name, cfg, site)
				}
			}
		}
	}
	if views, _ := crawlSite(t, handBuilt, "L-1", 24*time.Hour, 0); views[9] != 40 {
		t.Errorf("L-1 final views = %d, want 40", views[9])
	}
}

func TestCompareCrawl(t *testing.T) {
	recs := mergeRecs(crawlRecs("P-1", 1, 100), crawlRecs("P-1", 2, 50), crawlRecs("P-1", 3, 5))
	views, points := crawlSite(t, recs, "P-1", 24*time.Hour, 2)
	cmp := compareCrawl(views, map[uint64]int64{1: 100, 2: 50, 3: 5}, points)
	if cmp.logObjects != 3 || cmp.crawlObjects != 2 {
		t.Errorf("object counts: %d/%d", cmp.logObjects, cmp.crawlObjects)
	}
	if math.Abs(cmp.coverage-2.0/3) > 1e-9 {
		t.Errorf("coverage = %v", cmp.coverage)
	}
	if math.Abs(cmp.undercount-5.0/155) > 1e-9 {
		t.Errorf("undercount = %v", cmp.undercount)
	}
	if cmp.rankCorr < 0.99 {
		t.Errorf("rank correlation = %v, want ~1 for consistent counts", cmp.rankCorr)
	}
	if cmp.points != 7 {
		t.Errorf("temporal points = %d", cmp.points)
	}
}

func TestCompareCrawlEmptyTruth(t *testing.T) {
	cmp := compareCrawl(map[uint64]int64{}, nil, 7)
	if cmp.coverage != 0 || cmp.undercount != 0 {
		t.Errorf("empty truth: %+v", cmp)
	}
}

func TestCrawlerBaseline(t *testing.T) {
	study, err := NewStudy(Config{Seed: 9, Scale: 0.005, Salt: "baseline"})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := study.Generator().Generate()
	if err != nil {
		t.Fatal(err)
	}
	results, err := study.AnalyzeOnly(trace.NewSliceReader(recs))
	if err != nil {
		t.Fatal(err)
	}

	// An idealized crawler (full visibility) still loses temporal
	// resolution and user identity; a realistic top-N one also loses
	// coverage.
	ideal, err := crawlerBaseline(results, trace.SliceSource(recs), "V-1", 24*time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ideal.coverage < 0.999 {
		t.Errorf("idealized crawler coverage = %v, want 1", ideal.coverage)
	}
	if ideal.rankCorr < 0.95 {
		t.Errorf("idealized crawler rank correlation = %v, want ~1", ideal.rankCorr)
	}
	if ideal.points >= 168 {
		t.Errorf("crawl temporal points = %d, must be far below hourly logs", ideal.points)
	}

	narrow, err := crawlerBaseline(results, trace.SliceSource(recs), "V-1", 24*time.Hour, 10)
	if err != nil {
		t.Fatal(err)
	}
	if narrow.coverage >= ideal.coverage {
		t.Errorf("top-10 crawler coverage %v should be below idealized %v", narrow.coverage, ideal.coverage)
	}
	if narrow.undercount <= 0 {
		t.Errorf("top-10 crawler should miss views, got undercount %v", narrow.undercount)
	}

	tab, err := results.CrawlerBaselineTableSource(trace.SliceSource(recs), 24*time.Hour, 50)
	if err != nil {
		t.Fatal(err)
	}
	s := tab.String()
	if !strings.Contains(s, "V-1") || !strings.Contains(s, "impossible") {
		t.Errorf("baseline table:\n%s", s)
	}
	if _, err := results.CrawlerBaselineTableSource(trace.SliceSource(recs), time.Second, 50); err == nil {
		t.Error("sub-minute interval should error")
	}
	if _, err := results.CrawlerBaselineTableSource(trace.SliceSource(recs), 8*24*time.Hour, 50); err == nil {
		t.Error("interval longer than the week should error")
	}
}

func TestCrawlerBaselineUnknownSiteEmpty(t *testing.T) {
	study, err := NewStudy(Config{Seed: 9, Scale: 0.002, Salt: "baseline"})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := study.Generator().Generate()
	if err != nil {
		t.Fatal(err)
	}
	results, err := study.AnalyzeOnly(trace.NewSliceReader(recs))
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := crawlerBaseline(results, trace.SliceSource(recs), "no-such-site", 24*time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.logObjects != 0 || cmp.crawlObjects != 0 || cmp.points != 7 {
		t.Errorf("unknown site comparison: %+v", cmp)
	}
}
