package core

import (
	"fmt"
	"io"
	"sort"
	"time"

	"trafficscope/internal/report"
	"trafficscope/internal/stats"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// crawlViews derives, from the ground-truth logs, what the prior-art
// methodology the paper positions itself against (§II: periodically
// crawling a site for per-object view counts, as the YouPorn/PornHub
// studies did) would have recorded. The crawler visits every site each
// interval (zero means 24h), from one interval past the week's start to
// its end, and sees only the topN most viewed objects (zero: every
// object), ties going to the lower ID. It returns each site's view
// counts at the last crawl, which are every request at or before that
// instant, and the number of crawls. The logs are read once, in any
// order, holding only per-object counts.
func crawlViews(r trace.Reader, week timeutil.Week, interval time.Duration, topN int) (map[string]map[uint64]int64, int, error) {
	if interval == 0 {
		interval = 24 * time.Hour
	}
	if interval < time.Minute {
		return nil, 0, fmt.Errorf("core: implausible crawl interval %v", interval)
	}
	points := int(week.End().Sub(week.Start) / interval)
	if points == 0 {
		return nil, 0, fmt.Errorf("core: crawl interval %v longer than the trace window", interval)
	}
	last := week.Start.Add(time.Duration(points) * interval)
	views := map[string]map[uint64]int64{}
	var rec trace.Record
	for {
		err := r.Read(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, fmt.Errorf("core: crawl baseline read: %w", err)
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
// going to the lower ID: what a crawler that only sees a site's listings
// (front page, category pages) can observe.
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

// requestCounts returns the log-level ground truth of a site's crawl:
// the popularity analysis' per-object request counts.
func (r *Results) requestCounts(site string) map[uint64]int64 {
	truth := map[uint64]int64{}
	for _, cat := range trace.AllCategories() {
		for id, n := range r.Popularity().RequestCounts(site, cat) {
			truth[id] += n
		}
	}
	return truth
}

// CrawlerBaselineTableSource renders the crawl-vs-logs comparison for
// every site at the given crawl cadence and visibility, quantifying the
// paper's §II critique of crawl-based measurement. src must yield the
// trace the results were computed from (trace.SliceSource for records
// in memory), in any order; all sites share one streaming read of it
// (src is opened exactly once), so on-disk traces are never loaded.
func (r *Results) CrawlerBaselineTableSource(src trace.Source, interval time.Duration, topN int) (*report.Table, error) {
	if r.Popularity() == nil {
		return nil, fmt.Errorf("core: popularity analysis not part of this run")
	}
	tr, err := src.Open()
	if err != nil {
		return nil, fmt.Errorf("core: open trace for crawl baseline: %w", err)
	}
	defer trace.CloseReader(tr)
	views, points, err := crawlViews(tr, r.Week, interval, topN)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("crawler baseline (every %v, top-%d visible) vs HTTP logs", interval, topN),
		"site", "log objects", "crawl objects", "coverage", "views missed",
		"rank corr", "temporal points", "user-level analyses")
	for _, site := range r.SiteNames() {
		cmp := compareCrawl(views[site], r.requestCounts(site), points)
		t.AddRow(site, cmp.logObjects, cmp.crawlObjects,
			report.Percent(cmp.coverage), report.Percent(cmp.undercount),
			cmp.rankCorr,
			fmt.Sprintf("%d (logs: %d)", cmp.points, 168),
			"impossible")
	}
	return t, nil
}
