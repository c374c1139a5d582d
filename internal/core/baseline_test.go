package core

import (
	"strings"
	"testing"
	"time"

	"trafficscope/internal/crawler"
	"trafficscope/internal/trace"
)

// crawlerBaseline compares what a simulated crawl of one site observes
// against what the logs do, as one row of CrawlerBaselineTableSource.
func crawlerBaseline(r *Results, src trace.Source, site string, interval time.Duration, topN int) (crawler.Comparison, error) {
	camps, err := r.crawlCampaigns(src, interval, topN)
	if err != nil {
		return crawler.Comparison{}, err
	}
	return r.compareCrawl(camps.Site(site)), nil
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
	if ideal.Coverage < 0.999 {
		t.Errorf("idealized crawler coverage = %v, want 1", ideal.Coverage)
	}
	if ideal.RankCorrelation < 0.95 {
		t.Errorf("idealized crawler rank correlation = %v, want ~1", ideal.RankCorrelation)
	}
	if ideal.TemporalPoints >= 168 {
		t.Errorf("crawl temporal points = %d, must be far below hourly logs", ideal.TemporalPoints)
	}
	if ideal.UserVisibility {
		t.Error("crawls must not see users")
	}

	narrow, err := crawlerBaseline(results, trace.SliceSource(recs), "V-1", 24*time.Hour, 10)
	if err != nil {
		t.Fatal(err)
	}
	if narrow.Coverage >= ideal.Coverage {
		t.Errorf("top-10 crawler coverage %v should be below idealized %v", narrow.Coverage, ideal.Coverage)
	}
	if narrow.ViewUndercount <= 0 {
		t.Errorf("top-10 crawler should miss views, got undercount %v", narrow.ViewUndercount)
	}

	tab, err := results.CrawlerBaselineTableSource(trace.SliceSource(recs), 24*time.Hour, 50)
	if err != nil {
		t.Fatal(err)
	}
	s := tab.String()
	if !strings.Contains(s, "V-1") || !strings.Contains(s, "impossible") {
		t.Errorf("baseline table:\n%s", s)
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
	if cmp.LogObjects != 0 || cmp.CrawlObjects != 0 {
		t.Errorf("unknown site comparison: %+v", cmp)
	}
}
