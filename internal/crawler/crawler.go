// Package crawler simulates the *prior-art* measurement methodology the
// paper positions itself against (§II): periodically crawling an adult
// website and recording aggregate per-object view counts, as the
// YouPorn/PornHub studies did. Crawls are "limited in terms of both
// temporal coverage and granularity" and "cannot distinguish among
// users"; this package makes that limitation quantifiable by deriving a
// crawl dataset from the same HTTP logs and comparing what each
// methodology can measure.
package crawler

import (
	"fmt"
	"io"
	"sort"
	"time"

	"trafficscope/internal/stats"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// Config configures a simulated crawl campaign.
type Config struct {
	// Interval is the time between crawls (prior work crawled daily or
	// a few times per day). Zero defaults to 24h.
	Interval time.Duration
	// TopN is the number of objects visible per crawl — a crawler only
	// sees what the site lists (front page, category pages). Zero means
	// unlimited visibility (an idealized crawler).
	TopN int
}

// Snapshot is one crawl: the cumulative view count of each visible
// object at the crawl instant. There is no user, device, byte or cache
// information — exactly the fields crawling cannot observe.
type Snapshot struct {
	// Time is the crawl instant.
	Time time.Time
	// Views maps visible object IDs to their cumulative view counts.
	Views map[uint64]int64
}

// Campaign is the full crawl dataset for one site.
type Campaign struct {
	// Site is the crawled publisher.
	Site string
	// Snapshots are in time order, one per crawl instant.
	Snapshots []Snapshot

	cum map[uint64]int64 // running per-object view counts while simulating
}

// Campaigns is the crawl dataset of every publisher in a trace, built by
// one Simulate read.
type Campaigns struct {
	times  []time.Time // crawl instants, the same for every site
	bySite map[string]*Campaign
}

// Sites returns, in name order, the publishers with at least one record
// in the trace.
func (cs *Campaigns) Sites() []string {
	names := make([]string, 0, len(cs.bySite))
	for name := range cs.bySite {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Site returns the named publisher's campaign. A publisher without a
// record in the trace was still crawled at every instant and found
// empty, so its campaign has all the snapshots and no views.
func (cs *Campaigns) Site(name string) *Campaign {
	if c := cs.bySite[name]; c != nil {
		return c
	}
	c := &Campaign{Site: name}
	c.crawlThrough(cs.times, 0)
	return c
}

// Simulate derives, from the ground-truth logs, the crawl campaign a
// crawler with the given config would have collected from each
// publisher over the trace week. The logs are consumed once, in time
// order, and never buffered, so campaigns can be derived from an on-disk
// trace in bounded memory (a campaign holds only per-object cumulative
// counts). To crawl one site, pass a reader filtered to it.
func Simulate(r trace.Reader, week timeutil.Week, cfg Config) (*Campaigns, error) {
	interval := cfg.Interval
	if interval == 0 {
		interval = 24 * time.Hour
	}
	if interval < time.Minute {
		return nil, fmt.Errorf("crawler: implausible crawl interval %v", interval)
	}
	// Crawl instants across the week, starting one interval in.
	var times []time.Time
	for t := week.Start.Add(interval); !t.After(week.End()); t = t.Add(interval) {
		times = append(times, t)
	}
	if len(times) == 0 {
		return nil, fmt.Errorf("crawler: interval %v longer than the trace window", interval)
	}

	cs := &Campaigns{times: times, bySite: map[string]*Campaign{}}
	var rec trace.Record
	for {
		err := r.Read(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("crawler: read: %w", err)
		}
		c := cs.bySite[rec.Publisher]
		if c == nil {
			// A site first seen after a crawl instant was crawled then
			// too: the loop below publishes its earlier, empty snapshots.
			c = &Campaign{Site: rec.Publisher, cum: map[uint64]int64{}}
			cs.bySite[rec.Publisher] = c
		}
		due := len(c.Snapshots)
		if due > 0 && !rec.Timestamp.After(times[due-1]) {
			return nil, fmt.Errorf("crawler: %s request at %v arrived after the %v crawl was taken: the trace is not in time order (read it through trace.NewSpool)",
				rec.Publisher, rec.Timestamp.Format(time.RFC3339), times[due-1].Format(time.RFC3339))
		}
		for due < len(times) && rec.Timestamp.After(times[due]) {
			due++
		}
		c.crawlThrough(times[:due], cfg.TopN)
		c.cum[rec.ObjectID]++
	}
	for _, c := range cs.bySite {
		c.crawlThrough(times, cfg.TopN)
		c.cum = nil
	}
	return cs, nil
}

// crawlThrough publishes the snapshots of every instant in times the
// campaign has not crawled yet, from the current cumulative counts.
func (c *Campaign) crawlThrough(times []time.Time, topN int) {
	for _, at := range times[len(c.Snapshots):] {
		views := make(map[uint64]int64, len(c.cum))
		if topN > 0 && len(c.cum) > topN {
			type kv struct {
				id uint64
				n  int64
			}
			all := make([]kv, 0, len(c.cum))
			for id, n := range c.cum {
				all = append(all, kv{id, n})
			}
			sort.Slice(all, func(i, j int) bool {
				if all[i].n != all[j].n {
					return all[i].n > all[j].n
				}
				return all[i].id < all[j].id
			})
			for _, e := range all[:topN] {
				views[e.id] = e.n
			}
		} else {
			for id, n := range c.cum {
				views[id] = n
			}
		}
		c.Snapshots = append(c.Snapshots, Snapshot{Time: at, Views: views})
	}
}

// FinalViews returns the last snapshot's view counts (what a single
// end-of-week crawl would report).
func (c *Campaign) FinalViews() map[uint64]int64 {
	if len(c.Snapshots) == 0 {
		return nil
	}
	last := c.Snapshots[len(c.Snapshots)-1].Views
	out := make(map[uint64]int64, len(last))
	for id, n := range last {
		out[id] = n
	}
	return out
}

// Comparison quantifies what the crawl methodology loses relative to the
// HTTP logs it was derived from.
type Comparison struct {
	// LogObjects and CrawlObjects count distinct objects each method
	// observes; Coverage is their ratio.
	LogObjects, CrawlObjects int
	// Coverage is CrawlObjects / LogObjects.
	Coverage float64
	// RankCorrelation is the Spearman correlation between crawl-derived
	// and true popularity over the objects both observe.
	RankCorrelation float64
	// ViewUndercount is the fraction of true requests invisible to the
	// crawl (views of objects that never surfaced in a snapshot).
	ViewUndercount float64
	// TemporalPoints compares observation granularity: crawl snapshots
	// vs. the logs' hourly buckets (168).
	TemporalPoints int
	// UserVisibility is always false for crawls: per-user analyses
	// (sessions, IAT, addiction — the paper's Figs. 11-14) are
	// impossible without logs.
	UserVisibility bool
}

// Compare evaluates the crawl campaign against ground-truth per-object
// request counts from the logs.
func Compare(c *Campaign, truth map[uint64]int64) Comparison {
	final := c.FinalViews()
	cmp := Comparison{
		LogObjects:     len(truth),
		CrawlObjects:   len(final),
		TemporalPoints: len(c.Snapshots),
	}
	if len(truth) > 0 {
		cmp.Coverage = float64(len(final)) / float64(len(truth))
	}
	var seen, total int64
	var xs, ys []float64
	for id, n := range truth {
		total += n
		if v, ok := final[id]; ok {
			seen += n
			xs = append(xs, float64(v))
			ys = append(ys, float64(n))
		}
	}
	if total > 0 {
		cmp.ViewUndercount = 1 - float64(seen)/float64(total)
	}
	if len(xs) >= 2 {
		cmp.RankCorrelation = stats.Spearman(xs, ys)
	}
	return cmp
}
