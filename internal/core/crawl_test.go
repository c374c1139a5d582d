package core

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
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

// crawlPass is the oracle the table is checked against, a crawl
// simulated from the logs: one read, in any order, counting every
// request at or before the last crawl of a cadence (zero means 24h)
// that need not divide the week, then keeping each site's topN most
// viewed objects (zero: every object), ties going to the lower ID. It
// returns every site's last-crawl views and the number of crawls.
func crawlPass(r trace.Reader, week timeutil.Week, interval time.Duration, topN int) (map[string]map[uint64]int64, int, error) {
	if interval == 0 {
		interval = 24 * time.Hour
	}
	points := int(week.End().Sub(week.Start) / interval)
	last := week.Start.Add(time.Duration(points) * interval)
	views := map[string]map[uint64]int64{}
	var rec trace.Record
	for {
		err := r.Read(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, err
		}
		if rec.Timestamp.After(last) {
			continue
		}
		site := views[rec.Publisher]
		if site == nil {
			site = map[uint64]int64{}
			views[rec.Publisher] = site
		}
		site[rec.ObjectID]++
	}
	if topN > 0 {
		for _, site := range views {
			keepTop(site, topN)
		}
	}
	return views, points, nil
}

// keepTop deletes from counts all but its n most viewed objects, ties
// going to the lower ID.
func keepTop(counts map[uint64]int64, n int) {
	if len(counts) <= n {
		return
	}
	ids := make([]uint64, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ci, cj := counts[ids[i]], counts[ids[j]]; ci != cj {
			return ci > cj
		}
		return ids[i] < ids[j]
	})
	for _, id := range ids[n:] {
		delete(counts, id)
	}
}

// analyzeRecs folds recs into Results, exact (budget 0) or bounded.
func analyzeRecs(t *testing.T, recs []*trace.Record, budget int) *Results {
	t.Helper()
	study, err := NewStudy(Config{Seed: 1, Scale: 0.002, MemoryBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	res, err := study.AnalyzeOnly(trace.NewSliceReader(recs))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// crawlSite crawls recs and returns site's last-crawl views and the
// number of crawls.
func crawlSite(t *testing.T, recs []*trace.Record, site string, interval time.Duration, topN int) (map[uint64]int64, int) {
	t.Helper()
	points, err := crawlPoints(interval)
	if err != nil {
		t.Fatal(err)
	}
	return lastCrawl(analyzeRecs(t, recs, 0).Popularity().RequestCounts(site), topN), points
}

// crawlerBaseline compares what a simulated crawl of one site observes
// against what the logs do, as one row of CrawlerBaselineTableSource.
func crawlerBaseline(r *Results, site string, interval time.Duration, topN int) (crawlComparison, error) {
	points, err := crawlPoints(interval)
	if err != nil {
		return crawlComparison{}, err
	}
	truth := r.Popularity().RequestCounts(site)
	return compareCrawl(lastCrawl(truth, topN), truth, points), nil
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
	// Every 5h, the last crawl would fall at hour 165 and miss the
	// week's last three hours: a cadence that does not divide the week
	// is refused.
	if _, err := crawlPoints(5 * time.Hour); err == nil {
		t.Error("a 5h cadence should be refused")
	}
	if _, err := analyzeRecs(t, recs, 0).CrawlerBaselineTableSource(nil, 5*time.Hour, 0); err == nil {
		t.Error("the table should refuse a 5h cadence")
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
	for _, bad := range []time.Duration{time.Second, 5 * time.Hour, 30 * 24 * time.Hour} {
		if _, err := crawlPoints(bad); err == nil {
			t.Errorf("a %v cadence should be refused", bad)
		}
	}
	for interval, want := range map[time.Duration]int{0: 7, time.Minute: 10080, time.Hour: 168, 7 * time.Hour: 24, 168 * time.Hour: 1} {
		if points, err := crawlPoints(interval); err != nil || points != want {
			t.Errorf("every %v: %d crawls, err %v; want %d", interval, points, err, want)
		}
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

// atWeekEnd returns a copy of recs' last request, for object obj, at
// the week's end plus after.
func atWeekEnd(recs []*trace.Record, obj uint64, after time.Duration) *trace.Record {
	r := *recs[len(recs)-1]
	r.Timestamp, r.ObjectID = crawlWeek.End().Add(after), obj
	return &r
}

// The last crawl falls at the week's end and sees every request the
// logs hold, so a record after the week's end (an -in trace may carry
// one) counts in the crawl as it does in the logs. crawlPass, which
// cuts the crawl at the week's end, misses it.
func TestCrawlCountsRecordsPastWeekEnd(t *testing.T) {
	base := crawlRecs("P-1", 1, 70)
	recs := mergeRecs(base, []*trace.Record{atWeekEnd(base, 3, 0), atWeekEnd(base, 4, time.Nanosecond)})
	for _, interval := range []time.Duration{time.Hour, 24 * time.Hour} {
		views, _ := crawlSite(t, recs, "P-1", interval, 0)
		if views[3] != 1 || views[4] != 1 {
			t.Errorf("every %v: views at and after the week's end = %d, %d, want 1, 1", interval, views[3], views[4])
		}
		old, _, err := crawlPass(trace.NewSliceReader(recs), crawlWeek, interval, 0)
		if err != nil {
			t.Fatal(err)
		}
		if old["P-1"][3] != 1 || old["P-1"][4] != 0 {
			t.Errorf("every %v: the pass saw %d, %d at and after the week's end, want 1, 0", interval, old["P-1"][3], old["P-1"][4])
		}
	}
}

// sameComparison reports whether two rows agree field for field, an
// undefined rank correlation (fewer than two objects, or no spread)
// agreeing with itself.
func sameComparison(a, b crawlComparison) bool {
	if math.IsNaN(a.rankCorr) && math.IsNaN(b.rankCorr) {
		a.rankCorr, b.rankCorr = 0, 0
	}
	return a == b
}

// The table read off the fold equals, row for row and field for field,
// the crawl of a pass over the logs: on generated weeks and on
// hand-built traces, at every cadence and visibility, exact or bounded.
func TestCrawlMatchesOracle(t *testing.T) {
	type week struct {
		name string
		recs []*trace.Record
	}
	var weeks []week
	for _, seed := range []int64{42, 43} {
		study, err := NewStudy(Config{Seed: seed, Scale: 0.004})
		if err != nil {
			t.Fatal(err)
		}
		recs, err := study.Generator().Generate()
		if err != nil {
			t.Fatal(err)
		}
		weeks = append(weeks, week{fmt.Sprintf("seed %d", seed), recs})
	}
	// L-1's first request comes on day three.
	late := crawlRecs("L-1", 9, 40)
	for i, r := range late {
		r.Timestamp = crawlWeek.Start.Add(54*time.Hour + time.Duration(i)*time.Hour)
	}
	p1 := crawlRecs("P-1", 1, 70)
	weeks = append(weeks,
		week{"late-starting site", mergeRecs(p1, crawlRecs("V-1", 2, 30), late)},
		week{"record at the week's end", mergeRecs(p1, crawlRecs("P-1", 2, 3), []*trace.Record{atWeekEnd(p1, 3, 0)})},
		week{"record after the week's end", mergeRecs(p1, crawlRecs("P-1", 2, 3), []*trace.Record{atWeekEnd(p1, 4, time.Hour)})})

	for _, w := range weeks {
		exact, bounded := analyzeRecs(t, w.recs, 0), analyzeRecs(t, w.recs, 5000)
		// The fold counts a record after the week's end, which the pass
		// cut (TestCrawlCountsRecordsPastWeekEnd): the oracle reads it
		// at the week's end.
		oracleRecs := make([]*trace.Record, len(w.recs))
		for i, r := range w.recs {
			if r.Timestamp.After(crawlWeek.End()) {
				moved := *r
				moved.Timestamp = crawlWeek.End()
				r = &moved
			}
			oracleRecs[i] = r
		}
		for _, interval := range []time.Duration{time.Hour, 6 * time.Hour, 24 * time.Hour, 168 * time.Hour} {
			for _, topN := range []int{0, 20, 200} {
				views, points, err := crawlPass(trace.NewSliceReader(oracleRecs), crawlWeek, interval, topN)
				if err != nil {
					t.Fatal(err)
				}
				if sites := exact.SiteNames(); len(sites) != len(views) {
					t.Errorf("%s: the fold has sites %v, the pass %d", w.name, sites, len(views))
				}
				for _, site := range exact.SiteNames() {
					got, err := crawlerBaseline(exact, site, interval, topN)
					if err != nil {
						t.Fatal(err)
					}
					want := compareCrawl(views[site], exact.Popularity().RequestCounts(site), points)
					if !sameComparison(got, want) {
						t.Errorf("%s, every %v, top-%d, %s: fold %+v, pass %+v", w.name, interval, topN, site, got, want)
					}
					if seen := lastCrawl(exact.Popularity().RequestCounts(site), topN); !reflect.DeepEqual(seen, views[site]) {
						t.Errorf("%s, every %v, top-%d, %s: the fold's last crawl differs from the pass's", w.name, interval, topN, site)
					}
				}
				a, err := exact.CrawlerBaselineTableSource(nil, interval, topN)
				if err != nil {
					t.Fatal(err)
				}
				b, err := bounded.CrawlerBaselineTableSource(nil, interval, topN)
				if err != nil {
					t.Fatal(err)
				}
				if a.String() != b.String() {
					t.Errorf("%s, every %v, top-%d: the table differs under MemoryBudget 5000:\n%s\nexact:\n%s", w.name, interval, topN, b, a)
				}
			}
		}
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
	ideal, err := crawlerBaseline(results, "V-1", 24*time.Hour, 0)
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

	narrow, err := crawlerBaseline(results, "V-1", 24*time.Hour, 10)
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
	cmp, err := crawlerBaseline(results, "no-such-site", 24*time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.logObjects != 0 || cmp.crawlObjects != 0 || cmp.points != 7 {
		t.Errorf("unknown site comparison: %+v", cmp)
	}
}
