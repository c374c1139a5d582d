package core

import (
	"fmt"
	"sort"
	"time"

	"trafficscope/internal/report"
	"trafficscope/internal/stats"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// crawlPoints returns how many times the prior-art methodology the
// paper positions itself against (§II: periodically crawling a site for
// per-object view counts, as the YouPorn/PornHub studies did) crawls the
// week when it visits every site each interval (zero means 24h), from
// one interval past the week's start to its end. A cadence must divide
// the week, so that the last crawl falls at its end.
func crawlPoints(interval time.Duration) (int, error) {
	if interval == 0 {
		interval = 24 * time.Hour
	}
	if interval < time.Minute {
		return 0, fmt.Errorf("core: implausible crawl interval %v", interval)
	}
	const week = timeutil.HoursPerWeek * time.Hour
	if week%interval != 0 {
		return 0, fmt.Errorf("core: crawl interval %v does not divide the %v week", interval, week)
	}
	return int(week / interval), nil
}

// lastCrawl returns a site's view counts at the last crawl, given its
// true per-object request counts: the last crawl falls at the week's
// end, so it has seen every request, but only of the topN most viewed
// objects (zero: every object), ties going to the lower ID: what a
// crawler that only sees a site's listings (front page, category pages)
// can observe.
func lastCrawl(truth map[uint64]int64, topN int) map[uint64]int64 {
	if topN <= 0 || len(truth) <= topN {
		return truth
	}
	ids := make([]uint64, 0, len(truth))
	for id := range truth {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ci, cj := truth[ids[i]], truth[ids[j]]; ci != cj {
			return ci > cj
		}
		return ids[i] < ids[j]
	})
	views := make(map[uint64]int64, topN)
	for _, id := range ids[:topN] {
		views[id] = truth[id]
	}
	return views
}

// crawlComparison quantifies what the crawl methodology loses relative
// to the HTTP logs it was derived from: one row of the crawler baseline
// table. The user-level analyses (sessions, IAT, addiction: Figs. 11-14)
// are always lost, since a crawl sees no users.
type crawlComparison struct {
	logObjects, crawlObjects int     // distinct objects each method observes
	coverage                 float64 // crawlObjects / logObjects
	undercount               float64 // share of true requests to objects the crawl never saw
	rankCorr                 float64 // Spearman of crawl and true counts over the objects both see
	points                   int     // crawl instants, against the logs' 168 hours
}

// compareCrawl evaluates a site's last-crawl view counts against its
// true per-object request counts.
func compareCrawl(views, truth map[uint64]int64, points int) crawlComparison {
	cmp := crawlComparison{logObjects: len(truth), crawlObjects: len(views), points: points}
	if len(truth) > 0 {
		cmp.coverage = float64(len(views)) / float64(len(truth))
	}
	var seen, total int64
	var xs, ys []float64
	for id, n := range truth {
		total += n
		if v, ok := views[id]; ok {
			seen += n
			xs = append(xs, float64(v))
			ys = append(ys, float64(n))
		}
	}
	if total > 0 {
		cmp.undercount = 1 - float64(seen)/float64(total)
	}
	if len(xs) >= 2 {
		cmp.rankCorr = stats.Spearman(xs, ys)
	}
	return cmp
}

// CrawlerBaselineTableSource renders the crawl-vs-logs comparison for
// every site at the given crawl cadence (one that divides the week) and
// visibility, quantifying the paper's §II critique of crawl-based
// measurement. The last crawl sees every request, so the table is read
// off the popularity analysis' exact per-object counts: src is not read.
func (r *Results) CrawlerBaselineTableSource(_ trace.Source, interval time.Duration, topN int) (*report.Table, error) {
	if r.Popularity() == nil {
		return nil, fmt.Errorf("core: popularity analysis not part of this run")
	}
	points, err := crawlPoints(interval)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("crawler baseline (every %v, top-%d visible) vs HTTP logs", interval, topN),
		"site", "log objects", "crawl objects", "coverage", "views missed",
		"rank corr", "temporal points", "user-level analyses")
	for _, site := range r.SiteNames() {
		truth := r.Popularity().RequestCounts(site)
		cmp := compareCrawl(lastCrawl(truth, topN), truth, points)
		t.AddRow(site, cmp.logObjects, cmp.crawlObjects,
			report.Percent(cmp.coverage), report.Percent(cmp.undercount),
			cmp.rankCorr,
			fmt.Sprintf("%d (logs: %d)", cmp.points, 168),
			"impossible")
	}
	return t, nil
}
