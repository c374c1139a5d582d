package trafficscope

// Ablations of the paper's §V design implications and the §II crawl
// baseline, one Benchmark per row of the EXPERIMENTS.md tables: each
// replays a shared workload under the configurations being compared and
// reports the compared quantity (hit ratio, MAPE, coverage) as a custom
// metric. The per-figure quantities are tsreport's tables, pinned by
// TestFiguresGolden; the repo's timing lives in benchmark/ and
// BENCH_ledger.txt.
//
// Run with:
//
//	go test -run NONE -bench 'Ablation|BaselineCrawler' .

import (
	"sync"
	"testing"
	"time"

	"trafficscope/internal/analysis"
	"trafficscope/internal/cdn"
	"trafficscope/internal/core"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// benchScale sizes the shared benchmark workload (~2% of paper volume,
// ~108K requests).
const benchScale = 0.02

var (
	benchOnce    sync.Once
	benchRecs    []*trace.Record // generated (pre-CDN) trace
	benchReplay  []*trace.Record // CDN-replayed trace
	benchWeek    timeutil.Week
	benchResults *core.Results
)

func benchSetup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		study, err := core.NewStudy(core.Config{Seed: 42, Scale: benchScale, Salt: "bench"})
		if err != nil {
			panic(err)
		}
		recs, err := study.Generator().Generate()
		if err != nil {
			panic(err)
		}
		benchRecs = recs
		benchWeek = study.Week()
		network := study.NewCDN()
		if err := network.Replay(trace.NewSliceReader(recs), func(*trace.Record) error { return nil }); err != nil {
			panic(err)
		}
		network.ResetStats()
		network.ResetClientState()
		err = network.Replay(trace.NewSliceReader(recs), func(r *trace.Record) error {
			cp := *r // Replay reuses its scratch record
			benchReplay = append(benchReplay, &cp)
			return nil
		})
		if err != nil {
			panic(err)
		}
		res, err := study.AnalyzeOnly(trace.NewSliceReader(benchReplay))
		if err != nil {
			panic(err)
		}
		benchResults = res
	})
	b.ResetTimer()
}

// replayWarmCfg runs the warm-up + measured protocol over the shared
// workload and returns the measured pass's total stats.
func replayWarmCfg(b *testing.B, cfg cdn.Config) cdn.DCStats {
	b.Helper()
	network, err := cdn.ReplaySource(func() *cdn.CDN { return cdn.New(cfg) },
		trace.SliceSource(benchRecs), func(*trace.Record) error { return nil })
	if err != nil {
		b.Fatal(err)
	}
	return network.TotalStats()
}

// replayWarm is replayWarmCfg for a plain per-DC cache configuration.
func replayWarm(b *testing.B, mk func() cdn.Cache, chunk int64, incognito func(string, uint64) bool) cdn.DCStats {
	b.Helper()
	return replayWarmCfg(b, cdn.Config{NewCache: mk, ChunkBytes: chunk, IsIncognito: incognito})
}

const ablationCapacity = int64(2 << 30)

// BenchmarkAblationPolicies compares LRU/LFU/FIFO/SLRU hit ratios at
// equal capacity.
func BenchmarkAblationPolicies(b *testing.B) {
	benchSetup(b)
	for _, tc := range []struct {
		name string
		mk   func() cdn.Cache
	}{
		{"lru", func() cdn.Cache { return cdn.NewLRU(ablationCapacity) }},
		{"lfu", func() cdn.Cache { return cdn.NewLFU(ablationCapacity) }},
		{"fifo", func() cdn.Cache { return cdn.NewFIFO(ablationCapacity) }},
		{"slru", func() cdn.Cache { c, _ := cdn.NewSLRU(ablationCapacity, 0.8); return c }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var stats cdn.DCStats
			for i := 0; i < b.N; i++ {
				stats = replayWarm(b, tc.mk, 2<<20, nil)
			}
			b.ReportMetric(stats.HitRatio()*100, "hit-%")
			b.ReportMetric(float64(stats.OriginBytes)/(1<<30), "origin-GiB")
		})
	}
}

// BenchmarkAblationCacheSplit compares one unified cache against the
// paper's small/large split at equal total capacity.
func BenchmarkAblationCacheSplit(b *testing.B) {
	benchSetup(b)
	configs := []struct {
		name string
		mk   func() cdn.Cache
	}{
		{"unified", func() cdn.Cache { return cdn.NewLRU(ablationCapacity) }},
		{"split", func() cdn.Cache {
			small := cdn.NewLRU(ablationCapacity / 12)
			large := cdn.NewLRU(ablationCapacity - ablationCapacity/12)
			c, _ := cdn.NewSplitCache(small, large, 1<<20)
			return c
		}},
	}
	for _, tc := range configs {
		b.Run(tc.name, func(b *testing.B) {
			var stats cdn.DCStats
			for i := 0; i < b.N; i++ {
				stats = replayWarm(b, tc.mk, 2<<20, nil)
			}
			b.ReportMetric(stats.HitRatio()*100, "hit-%")
		})
	}
}

// BenchmarkAblationTTLByClass compares a uniform revalidation TTL with
// the paper's class-aware suggestion (long TTL for stable objects).
func BenchmarkAblationTTLByClass(b *testing.B) {
	benchSetup(b)
	for _, tc := range []struct {
		name string
		ttl  time.Duration
	}{
		{"ttl-1h", time.Hour},
		{"ttl-24h", 24 * time.Hour},
		{"ttl-7d", 7 * 24 * time.Hour},
	} {
		b.Run(tc.name, func(b *testing.B) {
			mk := func() cdn.Cache {
				c, _ := cdn.NewTTLCache(cdn.NewLRU(ablationCapacity), tc.ttl)
				return c
			}
			var stats cdn.DCStats
			for i := 0; i < b.N; i++ {
				stats = replayWarm(b, mk, 2<<20, nil)
			}
			b.ReportMetric(stats.HitRatio()*100, "hit-%")
		})
	}
}

// BenchmarkAblationEdgePush compares pull-only caching against pushing
// the most popular objects to every edge (§V: "pushing copies of popular
// adult objects to locations closer to their end-users"). Push mainly
// accelerates cold starts, so the measurement replays the first day
// only.
func BenchmarkAblationEdgePush(b *testing.B) {
	benchSetup(b)
	// First-day slice of the workload.
	dayEnd := benchWeek.Start.Add(24 * time.Hour)
	var day []*trace.Record
	for _, r := range benchRecs {
		if r.Timestamp.Before(dayEnd) {
			day = append(day, r)
		}
	}
	// Identify the top objects once.
	counts := map[uint64]int{}
	size := map[uint64]int64{}
	for _, r := range day {
		counts[r.ObjectID]++
		size[r.ObjectID] = r.ObjectSize
	}
	type kv struct {
		id uint64
		n  int
	}
	top := make([]kv, 0, len(counts))
	for id, n := range counts {
		top = append(top, kv{id, n})
	}
	for i := 0; i < 200 && i < len(top); i++ {
		for j := i + 1; j < len(top); j++ {
			if top[j].n > top[i].n {
				top[i], top[j] = top[j], top[i]
			}
		}
	}
	if len(top) > 200 {
		top = top[:200]
	}
	for _, tc := range []struct {
		name string
		push bool
	}{{"pull-only", false}, {"push-top200", true}} {
		b.Run(tc.name, func(b *testing.B) {
			var stats cdn.DCStats
			for i := 0; i < b.N; i++ {
				network := cdn.New(cdn.Config{
					NewCache: func() cdn.Cache { return cdn.NewLRU(ablationCapacity) },
				})
				if tc.push {
					for _, e := range top {
						network.PushToAll(e.id, size[e.id], benchWeek.Start)
					}
				}
				discard := func(*trace.Record) error { return nil }
				if err := network.Replay(trace.NewSliceReader(day), discard); err != nil {
					b.Fatal(err)
				}
				stats = network.TotalStats()
			}
			b.ReportMetric(stats.HitRatio()*100, "hit-%")
		})
	}
}

// BenchmarkAblationIncognito measures how the incognito-browsing
// fraction controls 304 (browser revalidation) volume — the paper's §V
// observation that private browsing defeats browser caching.
func BenchmarkAblationIncognito(b *testing.B) {
	benchSetup(b)
	for _, tc := range []struct {
		name string
		frac float64
	}{{"incognito-0%", 0}, {"incognito-50%", 0.5}, {"incognito-88%", 0.88}} {
		b.Run(tc.name, func(b *testing.B) {
			incog := func(_ string, user uint64) bool {
				return float64(user%1000) < tc.frac*1000
			}
			var frac304 float64
			for i := 0; i < b.N; i++ {
				network := cdn.New(cdn.Config{
					NewCache:    func() cdn.Cache { return cdn.NewLRU(ablationCapacity) },
					IsIncognito: incog,
				})
				var n304, n int64
				err := network.Replay(trace.NewSliceReader(benchRecs), func(r *trace.Record) error {
					n++
					if r.StatusCode == cdn.StatusNotModified {
						n304++
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				frac304 = float64(n304) / float64(n)
			}
			b.ReportMetric(frac304*100, "304-%")
		})
	}
}

// BenchmarkAblationForecast backtests hourly traffic forecasters on the
// anti-diurnal V-1 series — the paper's §IV-A implication that standard
// (typical-web) forecasting profiles misallocate for adult traffic.
func BenchmarkAblationForecast(b *testing.B) {
	benchSetup(b)
	var entries []core.ForecastEntry
	for i := 0; i < b.N; i++ {
		var err error
		entries, err = benchResults.ForecastComparison("V-1", 24)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, e := range entries {
		switch e.Model {
		case "profile(typical-web)":
			b.ReportMetric(e.Metrics.MAPE, "typical-web-MAPE-%")
		case "profile(site-measured)":
			b.ReportMetric(e.Metrics.MAPE, "site-profile-MAPE-%")
		case "holt-winters":
			b.ReportMetric(e.Metrics.MAPE, "holt-winters-MAPE-%")
		}
	}
}

// BenchmarkAblationDTWBand compares full DTW against the Sakoe-Chiba
// banded variant used by the clustering pipeline.
func BenchmarkAblationDTWBand(b *testing.B) {
	benchSetup(b)
	acc := analysis.NewObjectSeries(benchWeek, 0)
	for _, r := range benchReplay {
		acc.Add(r)
	}
	_, series := acc.SeriesSet("V-2", trace.CategoryVideo, 25, 60)
	if len(series) < 10 {
		b.Skip("not enough warm series")
	}
	for _, tc := range []struct {
		name   string
		radius int
	}{{"full", -1}, {"band-24", 24}, {"band-6", 6}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := analysis.ClusterOptions{
					MinRequests: 25, MaxObjects: 60, K: 4, BandRadius: tc.radius,
				}
				if _, err := acc.ClusterSeries("V-2", trace.CategoryVideo, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPublisherPartition compares a fully shared per-DC
// cache with per-publisher partitions of the same total capacity (§V:
// "CDNs often customize cache configuration ... for individual
// publishers").
func BenchmarkAblationPublisherPartition(b *testing.B) {
	benchSetup(b)
	sites := []string{"V-1", "V-2", "P-1", "P-2", "S-1"}
	run := func(b *testing.B, cfg cdn.Config) cdn.DCStats {
		var stats cdn.DCStats
		for i := 0; i < b.N; i++ {
			stats = replayWarmCfg(b, cfg)
		}
		return stats
	}
	b.Run("shared", func(b *testing.B) {
		stats := run(b, cdn.Config{NewCache: func() cdn.Cache { return cdn.NewLRU(ablationCapacity) }})
		b.ReportMetric(stats.HitRatio()*100, "hit-%")
	})
	b.Run("partitioned", func(b *testing.B) {
		per := ablationCapacity / int64(len(sites))
		pubs := map[string]func() cdn.Cache{}
		for _, s := range sites {
			pubs[s] = func() cdn.Cache { return cdn.NewLRU(per) }
		}
		stats := run(b, cdn.Config{
			NewCache:        func() cdn.Cache { return cdn.NewLRU(1) }, // unused fallback
			PublisherCaches: pubs,
		})
		b.ReportMetric(stats.HitRatio()*100, "hit-%")
	})
}

// BenchmarkAblationSharded compares a monolithic per-DC cache with a
// consistent-hash cluster of the same total capacity: sharding costs a
// little hit ratio (per-object capacity fragments) but is how real DCs
// scale out.
func BenchmarkAblationSharded(b *testing.B) {
	benchSetup(b)
	for _, tc := range []struct {
		name string
		mk   func() cdn.Cache
	}{
		{"monolithic", func() cdn.Cache { return cdn.NewLRU(ablationCapacity) }},
		{"sharded-8", func() cdn.Cache {
			c, _ := cdn.NewShardedCache(8, 64, func() cdn.Cache { return cdn.NewLRU(ablationCapacity / 8) })
			return c
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var stats cdn.DCStats
			for i := 0; i < b.N; i++ {
				stats = replayWarm(b, tc.mk, 2<<20, nil)
			}
			b.ReportMetric(stats.HitRatio()*100, "hit-%")
		})
	}
}

// BenchmarkAblationTiered compares an edge-only deployment with an edge
// backed by a shared origin-shield parent; the parent absorbs origin
// traffic that edge misses would otherwise cause.
func BenchmarkAblationTiered(b *testing.B) {
	benchSetup(b)
	run := func(b *testing.B, mk func() cdn.Cache) cdn.DCStats {
		var stats cdn.DCStats
		for i := 0; i < b.N; i++ {
			stats = replayWarm(b, mk, 2<<20, nil)
		}
		return stats
	}
	b.Run("edge-only", func(b *testing.B) {
		stats := run(b, func() cdn.Cache { return cdn.NewLRU(ablationCapacity / 4) })
		b.ReportMetric(stats.HitRatio()*100, "edge-hit-%")
	})
	b.Run("edge+shield", func(b *testing.B) {
		// The edge-level hit ratio is unchanged by construction; the
		// shield's value shows in ParentHits: edge misses it absorbs
		// instead of the origin.
		var tiers []*cdn.TieredCache
		stats := run(b, func() cdn.Cache {
			t := cdn.NewTieredCache(cdn.NewLRU(ablationCapacity/4), cdn.NewLRU(ablationCapacity))
			tiers = append(tiers, t)
			return t
		})
		b.ReportMetric(stats.HitRatio()*100, "edge-hit-%")
		var parentHits, parentMisses int64
		for _, t := range tiers {
			parentHits += t.ParentHits
			parentMisses += t.ParentMisses
		}
		if total := parentHits + parentMisses; total > 0 {
			b.ReportMetric(float64(parentHits)/float64(total)*100, "shield-absorb-%")
		}
	})
}

// BenchmarkBaselineCrawler compares the prior-art crawl methodology
// (§II) against the HTTP-log methodology on the same workload: coverage,
// popularity fidelity and temporal resolution of a daily top-200 crawl.
func BenchmarkBaselineCrawler(b *testing.B) {
	benchSetup(b)
	var cmp struct {
		coverage, undercount, rankCorr float64
	}
	for i := 0; i < b.N; i++ {
		c, err := benchResults.CrawlerBaselineSource(trace.SliceSource(benchReplay), "V-2", 24*time.Hour, 200)
		if err != nil {
			b.Fatal(err)
		}
		cmp.coverage = c.Coverage
		cmp.undercount = c.ViewUndercount
		cmp.rankCorr = c.RankCorrelation
	}
	b.ReportMetric(cmp.coverage*100, "crawl-coverage-%")
	b.ReportMetric(cmp.undercount*100, "views-missed-%")
	b.ReportMetric(cmp.rankCorr, "rank-corr")
}
