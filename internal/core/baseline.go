package core

import (
	"fmt"
	"time"

	"trafficscope/internal/crawler"
	"trafficscope/internal/report"
	"trafficscope/internal/trace"
)

// crawlCampaigns derives the crawl dataset a prior-art crawler (the §II
// YouPorn/PornHub methodology) would have collected from every site, in
// one streaming pass: src is opened exactly once whatever the number of
// sites.
func (r *Results) crawlCampaigns(src trace.Source, interval time.Duration, topN int) (*crawler.Campaigns, error) {
	if r.Popularity() == nil {
		return nil, fmt.Errorf("core: popularity analysis not part of this run")
	}
	tr, err := src.Open()
	if err != nil {
		return nil, fmt.Errorf("core: open trace for crawl baseline: %w", err)
	}
	defer trace.CloseReader(tr)
	return crawler.Simulate(tr, r.Week, crawler.Config{Interval: interval, TopN: topN})
}

// compareCrawl evaluates one site's campaign against the log-level
// ground truth, the popularity analysis' per-object request counts.
func (r *Results) compareCrawl(camp *crawler.Campaign) crawler.Comparison {
	truth := map[uint64]int64{}
	for _, cat := range trace.AllCategories() {
		for id, n := range r.Popularity().RequestCounts(camp.Site, cat) {
			truth[id] += n
		}
	}
	return crawler.Compare(camp, truth)
}

// CrawlerBaselineTableSource renders the crawl-vs-logs comparison for
// every site at the given crawl cadence and visibility, quantifying the
// paper's §II critique of crawl-based measurement. src must yield, in
// time order, the trace the results were computed from
// (trace.SliceSource for records in memory); all sites share one
// streaming pass over it, so on-disk traces are never loaded.
func (r *Results) CrawlerBaselineTableSource(src trace.Source, interval time.Duration, topN int) (*report.Table, error) {
	camps, err := r.crawlCampaigns(src, interval, topN)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("crawler baseline (every %v, top-%d visible) vs HTTP logs", interval, topN),
		"site", "log objects", "crawl objects", "coverage", "views missed",
		"rank corr", "temporal points", "user-level analyses")
	for _, site := range r.SiteNames() {
		cmp := r.compareCrawl(camps.Site(site))
		t.AddRow(site, cmp.LogObjects, cmp.CrawlObjects,
			report.Percent(cmp.Coverage), report.Percent(cmp.ViewUndercount),
			cmp.RankCorrelation,
			fmt.Sprintf("%d (logs: %d)", cmp.TemporalPoints, 168),
			"impossible")
	}
	return t, nil
}
