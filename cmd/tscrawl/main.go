// Command tscrawl simulates the prior-art crawl-based measurement
// methodology (§II of the paper) against a trace file and reports what
// the crawler could and could not observe compared to the HTTP logs.
// The trace is streamed once — every site's campaign and the log-side
// object counts come out of the same read — so it must be in time order
// (tssort sorts one that is not) and may be far larger than memory.
//
// Usage:
//
//	tscrawl -in trace.tsb [-interval 24h] [-topn 200] [-site V-1]
//	        [-debug-addr :6060] [-progress] [-manifest run.json]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"trafficscope/internal/crawler"
	"trafficscope/internal/obs/cliobs"
	"trafficscope/internal/report"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tscrawl:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in       = flag.String("in", "", "input trace path (required)")
		format   = flag.String("format", "", "override log format: block or json")
		interval = flag.Duration("interval", 24*time.Hour, "crawl cadence")
		topN     = flag.Int("topn", 200, "objects visible per crawl (0 = idealized full visibility)")
		site     = flag.String("site", "", "restrict to one site (default: all sites in the trace)")
	)
	obsFlags := cliobs.AddFlags(flag.CommandLine)
	flag.Parse()
	if *in == "" {
		return fmt.Errorf("-in is required")
	}

	ctx, stop := cliobs.SignalContext()
	defer stop()

	sess, err := obsFlags.Start("tscrawl")
	if err != nil {
		return err
	}
	extra := map[string]any{"in": *in, "interval": interval.String(), "topn": *topN}
	defer sess.Finish(extra)
	sess.SetProgress(sess.ReadProgress(cliobs.FileSize(*in)))

	var f trace.Format
	if *format != "" {
		var err error
		f, err = trace.ParseFormat(*format)
		if err != nil {
			return err
		}
	}
	fr, err := trace.OpenFile(*in, f)
	if err != nil {
		return err
	}
	defer fr.Close()
	// The first record dates the trace week; logs then delivers it to
	// the crawl ahead of the rest of the file.
	r := trace.NewContextReader(ctx, fr)
	var first trace.Record
	if err := r.Read(&first); err == io.EOF {
		return fmt.Errorf("empty trace")
	} else if err != nil {
		return err
	}
	week := timeutil.NewWeek(first.Timestamp)
	logs := &logReader{r: r, first: &first, start: week.Start, truth: map[string]map[uint64]int64{}}
	camps, err := crawler.Simulate(logs, week, crawler.Config{Interval: *interval, TopN: *topN})
	if err != nil {
		return err
	}
	sites := camps.Sites()
	if *site != "" {
		if logs.truth[*site] == nil {
			return fmt.Errorf("site %q not in trace", *site)
		}
		sites = []string{*site}
	}

	tab := report.NewTable(
		fmt.Sprintf("crawl methodology (every %v, top-%d) vs HTTP logs", *interval, *topN),
		"site", "log objects", "crawl objects", "coverage", "views missed",
		"rank corr", "temporal points")
	for _, s := range sites {
		cmp := crawler.Compare(camps.Site(s), logs.truth[s])
		tab.AddRow(s, cmp.LogObjects, cmp.CrawlObjects,
			report.Percent(cmp.Coverage), report.Percent(cmp.ViewUndercount),
			cmp.RankCorrelation, fmt.Sprintf("%d (logs: 168)", cmp.TemporalPoints))
	}
	fmt.Println(tab)
	fmt.Println("user-level analyses (sessions, inter-arrival times, per-user repeats)")
	fmt.Println("are impossible from crawl data: crawls observe aggregate view counts only.")
	extra["records"] = logs.records
	extra["sites"] = len(sites)
	return sess.Finish(extra)
}

// logReader hands the trace to the crawl simulation while tallying what
// the logs themselves hold: request counts per site and object.
type logReader struct {
	r       trace.Reader
	first   *trace.Record // already read from r; delivered before the rest
	start   time.Time     // of the week first dated; no record may precede it
	truth   map[string]map[uint64]int64
	records int
}

func (l *logReader) Read(rec *trace.Record) error {
	if l.first != nil {
		*rec, l.first = *l.first, nil
	} else if err := l.r.Read(rec); err != nil {
		return err
	}
	if rec.Timestamp.Before(l.start) {
		return fmt.Errorf("request at %v precedes the first record's hour %v: the trace is not in time order (sort it with tssort)",
			rec.Timestamp.Format(time.RFC3339), l.start.Format(time.RFC3339))
	}
	objects := l.truth[rec.Publisher]
	if objects == nil {
		objects = map[uint64]int64{}
		l.truth[rec.Publisher] = objects
	}
	objects[rec.ObjectID]++
	l.records++
	return nil
}
