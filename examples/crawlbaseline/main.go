// Crawl baseline: contrasts the paper's HTTP-log methodology with the
// prior-art crawl methodology it improves on (§II). The same synthetic
// ground truth is measured both ways; the crawl sees censored aggregate
// view counts at coarse cadence, the logs see every request with user
// identity — which is what makes the paper's Figs. 11-14 possible at
// all.
package main

import (
	"fmt"
	"log"
	"time"

	"trafficscope"
)

func main() {
	gen, err := trafficscope.NewGenerator(trafficscope.GeneratorConfig{Seed: 31, Scale: 0.01})
	if err != nil {
		log.Fatal(err)
	}
	recs, err := gen.Generate()
	if err != nil {
		log.Fatal(err)
	}
	week := gen.Week()

	// What the logs hold for V-2: every request, and from them the
	// ground-truth per-object request counts.
	var logs []*trafficscope.Record
	truth := map[uint64]int64{}
	for _, r := range recs {
		if r.Publisher == "V-2" {
			logs = append(logs, r)
			truth[r.ObjectID]++
		}
	}

	fmt.Println("crawl campaigns against V-2, compared with the full HTTP logs:")
	fmt.Printf("%-28s %9s %12s %10s\n", "campaign", "coverage", "views missed", "rank corr")
	for _, cfg := range []struct {
		label string
		c     trafficscope.CrawlConfig
	}{
		{"idealized (hourly, all)", trafficscope.CrawlConfig{Interval: time.Hour}},
		{"daily, full visibility", trafficscope.CrawlConfig{Interval: 24 * time.Hour}},
		{"daily, top-200 pages", trafficscope.CrawlConfig{Interval: 24 * time.Hour, TopN: 200}},
		{"daily, top-50 pages", trafficscope.CrawlConfig{Interval: 24 * time.Hour, TopN: 50}},
	} {
		camps, err := trafficscope.SimulateCrawl(trafficscope.NewSliceReader(logs), week, cfg.c)
		if err != nil {
			log.Fatal(err)
		}
		cmp := trafficscope.CompareCrawl(camps.Site("V-2"), truth)
		fmt.Printf("%-28s %8.1f%% %11.1f%% %10.3f\n",
			cfg.label, cmp.Coverage*100, cmp.ViewUndercount*100, cmp.RankCorrelation)
	}

	fmt.Println()
	fmt.Println("what only the logs can measure (paper Figs. 11-14):")
	fmt.Println("  - per-user request inter-arrival times and session lengths")
	fmt.Println("  - repeated same-user access (addiction vs. virality)")
	fmt.Println("  - device/OS mix per unique user")
	fmt.Println("  - CDN cache outcomes and HTTP response codes")
}
