package trafficscope

// The benchmark harness regenerates every figure of the paper's
// evaluation (Figs. 1-16) plus ablations of the §V design implications.
// One Benchmark per figure; each measures the analysis that produces the
// figure over a shared CDN-replayed workload and reports the figure's
// headline quantity as a custom metric, so a bench run doubles as a
// paper-vs-measured readout (EXPERIMENTS.md records the comparison).
//
// Run with:
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trafficscope/internal/analysis"
	"trafficscope/internal/cdn"
	"trafficscope/internal/core"
	"trafficscope/internal/dtw"
	"trafficscope/internal/edge"
	"trafficscope/internal/obs"
	"trafficscope/internal/pipeline"
	"trafficscope/internal/synth"
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
	benchStudy   *core.Study
	benchResults *core.Results
)

func benchSetup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		study, err := core.NewStudy(core.Config{Seed: 42, Scale: benchScale, Salt: "bench"})
		if err != nil {
			panic(err)
		}
		benchStudy = study
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

// runAccumulator folds the replayed trace into a fresh accumulator per
// iteration.
func runAccumulator[T interface{ Add(*trace.Record) }](b *testing.B, mk func() T) T {
	b.Helper()
	var acc T
	for i := 0; i < b.N; i++ {
		acc = mk()
		for _, r := range benchReplay {
			acc.Add(r)
		}
	}
	b.SetBytes(int64(len(benchReplay)))
	return acc
}

// BenchmarkFig01ContentComposition regenerates Fig. 1 (object
// composition per site). Paper: V-1 6.6K objects 98% video; P-sites ~99%
// image.
func BenchmarkFig01ContentComposition(b *testing.B) {
	benchSetup(b)
	acc := runAccumulator(b, func() *analysis.Composition { return analysis.NewComposition(0) })
	v1 := acc.Site("V-1")
	b.ReportMetric(v1.ObjectFrac(trace.CategoryVideo)*100, "V1-video-obj-%")
	b.ReportMetric(float64(v1.TotalObjects()), "V1-objects")
}

// BenchmarkFig02aRequestCount regenerates Fig. 2a (request counts).
// Paper: V-1 3.1M video requests ~99%.
func BenchmarkFig02aRequestCount(b *testing.B) {
	benchSetup(b)
	acc := runAccumulator(b, func() *analysis.Composition { return analysis.NewComposition(0) })
	v1 := acc.Site("V-1")
	b.ReportMetric(v1.RequestFrac(trace.CategoryVideo)*100, "V1-video-req-%")
}

// BenchmarkFig02bRequestBytes regenerates Fig. 2b (byte volumes).
// Paper: video dominates bytes everywhere it exists.
func BenchmarkFig02bRequestBytes(b *testing.B) {
	benchSetup(b)
	acc := runAccumulator(b, func() *analysis.Composition { return analysis.NewComposition(0) })
	v1 := acc.Site("V-1")
	b.ReportMetric(v1.ByteFrac(trace.CategoryVideo)*100, "V1-video-byte-%")
}

// BenchmarkFig03HourlyVolume regenerates Fig. 3 (hourly volume in local
// time). Paper: V-1 anti-diurnal; night share > day share.
func BenchmarkFig03HourlyVolume(b *testing.B) {
	benchSetup(b)
	acc := runAccumulator(b, analysis.NewHourlyVolume)
	p := acc.Percent("V-1")
	night := (p[23] + p[0] + p[1] + p[2] + p[3] + p[4] + p[5]) / 7
	day := (p[9] + p[10] + p[11] + p[12] + p[13] + p[14] + p[15]) / 7
	b.ReportMetric(night/day, "V1-night-day-ratio")
}

// BenchmarkFig04DeviceMix regenerates Fig. 4 (device shares). Paper: V-2
// >95% desktop; S-1 >1/3 non-desktop.
func BenchmarkFig04DeviceMix(b *testing.B) {
	benchSetup(b)
	acc := runAccumulator(b, func() *analysis.DeviceMix { return analysis.NewDeviceMix(0) })
	b.ReportMetric(acc.DesktopShare("V-2")*100, "V2-desktop-%")
	b.ReportMetric((1-acc.DesktopShare("S-1"))*100, "S1-nondesktop-%")
}

// BenchmarkFig05SizeCDF regenerates Fig. 5 (content size CDFs). Paper:
// videos mostly >1MB, images <1MB bimodal.
func BenchmarkFig05SizeCDF(b *testing.B) {
	benchSetup(b)
	acc := runAccumulator(b, analysis.NewSizeDistribution)
	b.ReportMetric(acc.FracAbove("V-1", trace.CategoryVideo, 1<<20)*100, "V1-video>1MB-%")
	cdf := acc.CDF("P-1", trace.CategoryImage)
	if cdf != nil {
		b.ReportMetric(cdf.At(1<<20)*100, "P1-image<=1MB-%")
	}
}

// BenchmarkFig06Popularity regenerates Fig. 6 (popularity CDFs). Paper:
// long-tailed distributions.
func BenchmarkFig06Popularity(b *testing.B) {
	benchSetup(b)
	acc := runAccumulator(b, analysis.NewPopularity)
	b.ReportMetric(acc.ZipfExponent("V-1", trace.CategoryVideo), "V1-zipf-s")
	b.ReportMetric(acc.TopShare("V-1", trace.CategoryVideo, 0.1)*100, "V1-top10%-share-%")
}

// BenchmarkFig07ContentAge regenerates Fig. 7 (aging). Paper: ~20% of
// objects silent after day 3; ~10% requested all week.
func BenchmarkFig07ContentAge(b *testing.B) {
	benchSetup(b)
	acc := runAccumulator(b, func() *analysis.Aging { return analysis.NewAging(benchWeek, 0) })
	curve := acc.Curve("V-1")
	b.ReportMetric(curve[3]*100, "V1-age4-requested-%")
	b.ReportMetric(acc.FracAliveAllWeek("V-1")*100, "V1-alive-all-week-%")
}

// BenchmarkFig08DTWClustering regenerates Fig. 8 (DTW + hierarchical
// clustering of V-2 video series). Paper mixture: 25% diurnal, 22%
// long-lived, 20% short-lived, 33% outliers.
func BenchmarkFig08DTWClustering(b *testing.B) {
	benchSetup(b)
	var res *analysis.ClusterResult
	for i := 0; i < b.N; i++ {
		acc := analysis.NewObjectSeries(benchWeek, 0)
		for _, r := range benchReplay {
			acc.Add(r)
		}
		var err error
		res, err = acc.ClusterSeries("V-2", trace.CategoryVideo, analysis.ClusterOptions{
			MinRequests: 25, MaxObjects: 150, K: 5, BandRadius: 24,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.ObjectIDs)), "clustered-objects")
	b.ReportMetric(res.Clusters[0].Frac*100, "largest-cluster-%")
}

// BenchmarkFig09MedoidsV2 regenerates Fig. 9 (V-2 cluster medoids): the
// medoid extraction step over a precomputed clustering input.
func BenchmarkFig09MedoidsV2(b *testing.B) {
	benchSetup(b)
	benchMedoids(b, "V-2", trace.CategoryVideo)
}

// BenchmarkFig10MedoidsP2 regenerates Fig. 10 (P-2 cluster medoids).
func BenchmarkFig10MedoidsP2(b *testing.B) {
	benchSetup(b)
	benchMedoids(b, "P-2", trace.CategoryImage)
}

func benchMedoids(b *testing.B, site string, cat trace.Category) {
	b.Helper()
	acc := analysis.NewObjectSeries(benchWeek, 0)
	for _, r := range benchReplay {
		acc.Add(r)
	}
	b.ResetTimer()
	var shapes int
	for i := 0; i < b.N; i++ {
		res, err := acc.ClusterSeries(site, cat, analysis.ClusterOptions{
			MinRequests: 25, MaxObjects: 120, K: 4, BandRadius: 24,
		})
		if err != nil {
			b.Fatal(err)
		}
		shapes = 0
		seen := map[string]bool{}
		for _, c := range res.Clusters {
			if s := analysis.ClassifyShape(c.Medoid); !seen[s] {
				seen[s] = true
				shapes++
			}
		}
	}
	b.ReportMetric(float64(shapes), "distinct-medoid-shapes")
}

// BenchmarkFig11InterArrival regenerates Fig. 11 (IAT CDFs). Paper:
// video-site median <10 min; image-heavy >1 h.
func BenchmarkFig11InterArrival(b *testing.B) {
	benchSetup(b)
	var v1med, p2med float64
	for i := 0; i < b.N; i++ {
		acc := analysis.NewSessions(0, 0)
		for _, r := range benchReplay {
			acc.Add(r)
		}
		v1, _ := acc.IATCDF("V-1").Median()
		p2, _ := acc.IATCDF("P-2").Median()
		v1med, p2med = v1, p2
	}
	b.ReportMetric(v1med, "V1-median-iat-s")
	b.ReportMetric(p2med, "P2-median-iat-s")
}

// BenchmarkFig12SessionLength regenerates Fig. 12 (session lengths,
// 10-minute timeout). Paper: medians around one minute.
func BenchmarkFig12SessionLength(b *testing.B) {
	benchSetup(b)
	var med float64
	for i := 0; i < b.N; i++ {
		acc := analysis.NewSessions(10*time.Minute, 0)
		for _, r := range benchReplay {
			acc.Add(r)
		}
		med, _ = acc.SessionLengthCDF("V-1").Median()
	}
	b.ReportMetric(med, "V1-median-session-s")
}

// BenchmarkFig13RepeatedAccess regenerates Fig. 13 (requests vs users
// scatter). Paper: objects with up to 100x more requests than users.
func BenchmarkFig13RepeatedAccess(b *testing.B) {
	benchSetup(b)
	acc := runAccumulator(b, func() *analysis.Addiction { return analysis.NewAddiction(0) })
	var maxRatio float64
	for _, p := range acc.Scatter("V-1", trace.CategoryVideo) {
		if r := float64(p.Requests) / float64(p.Users); r > maxRatio {
			maxRatio = r
		}
	}
	b.ReportMetric(maxRatio, "V1-max-req/user-ratio")
}

// BenchmarkFig14AddictionCDF regenerates Fig. 14 (per-user repeats CDF).
// Paper: >=10% of video objects exceed 10 requests/user; <1% of images.
func BenchmarkFig14AddictionCDF(b *testing.B) {
	benchSetup(b)
	acc := runAccumulator(b, func() *analysis.Addiction { return analysis.NewAddiction(0) })
	b.ReportMetric(acc.FracObjectsAbove("V-1", trace.CategoryVideo, 10)*100, "V1-video>10req/user-%")
	b.ReportMetric(acc.FracObjectsAbove("P-1", trace.CategoryImage, 10)*100, "P1-image>10req/user-%")
}

// BenchmarkFig15HitRatio regenerates Fig. 15 (cache hit ratios). Paper:
// weighted 80-90%, popularity-hit correlation >0.9.
func BenchmarkFig15HitRatio(b *testing.B) {
	benchSetup(b)
	acc := runAccumulator(b, func() *analysis.Caching { return analysis.NewCaching(0) })
	b.ReportMetric(acc.WeightedHitRatio("V-1")*100, "V1-weighted-hit-%")
	b.ReportMetric(acc.PopularityHitCorrelation("V-1"), "V1-pop-hit-corr")
}

// BenchmarkFig16ResponseCodes regenerates Fig. 16 (HTTP response code
// mix). Paper: 200 dominant, 206 for video ranges, 304 rare.
func BenchmarkFig16ResponseCodes(b *testing.B) {
	benchSetup(b)
	acc := runAccumulator(b, func() *analysis.Caching { return analysis.NewCaching(0) })
	b.ReportMetric(acc.CodeFrac("V-1", trace.CategoryVideo, 206)*100, "V1-video-206-%")
	b.ReportMetric(acc.CodeFrac("P-1", trace.CategoryImage, 304)*100, "P1-image-304-%")
}

// --- Ablations of the §V design implications -------------------------

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

// serveBenchCapacity sizes the serve-path benchmark caches above the
// bench trace's working set, so a warm pass leaves only hits and the
// steady-state hot path can be measured allocation-free.
const serveBenchCapacity = int64(16) << 30

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

// BenchmarkAblationParallelReplay measures the per-region parallel
// replay (ReplayStream) speedup over sequential Replay.
func BenchmarkAblationParallelReplay(b *testing.B) {
	benchSetup(b)
	discard := func(*trace.Record) error { return nil }
	for _, v := range []struct {
		name   string
		replay func(*cdn.CDN, trace.Reader, func(*trace.Record) error) error
	}{
		{"sequential", (*cdn.CDN).Replay},
		{"parallel", (*cdn.CDN).ReplayStream},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := v.replay(benchStudy.NewCDN(), trace.NewSliceReader(benchRecs), discard); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(benchRecs)))
		})
	}
}

// BenchmarkAblationFastDTW compares exact DTW with the FastDTW
// approximation on warm object series.
func BenchmarkAblationFastDTW(b *testing.B) {
	benchSetup(b)
	acc := analysis.NewObjectSeries(benchWeek, 0)
	for _, r := range benchReplay {
		acc.Add(r)
	}
	_, series := acc.SeriesSet("V-2", trace.CategoryVideo, 25, 40)
	if len(series) < 10 {
		b.Skip("not enough warm series")
	}
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 1; j < len(series); j++ {
				if _, err := dtw.Distance(series[0], series[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	var relErr float64
	b.Run("fastdtw-r4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sumExact, sumFast float64
			for j := 1; j < len(series); j++ {
				e, err := dtw.Distance(series[0], series[j])
				if err != nil {
					b.Fatal(err)
				}
				f, err := dtw.FastDistance(series[0], series[j], 4)
				if err != nil {
					b.Fatal(err)
				}
				sumExact += e
				sumFast += f
			}
			if sumExact > 0 {
				relErr = (sumFast - sumExact) / sumExact
			}
		}
		b.ReportMetric(relErr*100, "approx-error-%")
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
		c, err := benchResults.CrawlerBaseline(benchReplay, "V-2", 24*time.Hour, 200)
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

// BenchmarkGenerator measures raw trace generation throughput.
func BenchmarkGenerator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		gen, err := synth.NewGenerator(synth.Config{Seed: int64(i), Scale: 0.005})
		if err != nil {
			b.Fatal(err)
		}
		recs, err := gen.Generate()
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(recs)))
	}
}

// BenchmarkGeneratorParallel compares sequential Generate with the
// parallel (site, hour)-sharded path at several worker counts. The
// outputs are byte-identical; only the schedule differs.
func BenchmarkGeneratorParallel(b *testing.B) {
	gen, err := synth.NewGenerator(synth.Config{Seed: 42, Scale: 0.01, Salt: "bench-par"})
	if err != nil {
		b.Fatal(err)
	}
	var recs []*trace.Record
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			recs, err = gen.Generate()
			if err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(recs)))
	})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallel-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				recs, err = gen.GenerateParallel(synth.ParallelOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(recs)))
		})
	}
}

// BenchmarkGenerateAnalyzeOnePass measures the fused generate-and-analyze
// path: parallel shard generation streaming through the time-ordered
// merge straight into the pipeline worker pool, no materialized trace.
func BenchmarkGenerateAnalyzeOnePass(b *testing.B) {
	gen, err := synth.NewGenerator(synth.Config{Seed: 42, Scale: 0.01, Salt: "bench-par"})
	if err != nil {
		b.Fatal(err)
	}
	var n int64
	for i := 0; i < b.N; i++ {
		acc, err := pipeline.GenerateAndRun(gen, synth.ParallelOptions{},
			func() *pipeline.Count { return &pipeline.Count{} }, pipeline.Options{})
		if err != nil {
			b.Fatal(err)
		}
		n = acc.N
	}
	b.SetBytes(n)
}

// BenchmarkPipelineRun measures the parallel fold framework itself: the
// shared replayed trace streamed through pipeline.Run into a trivial
// accumulator, with telemetry off (the default) and on. Batch slices are
// recycled through a sync.Pool, so B/op stays flat as the trace grows;
// the metrics-on variant bounds the telemetry layer's overhead.
func BenchmarkPipelineRun(b *testing.B) {
	benchSetup(b)
	run := func(b *testing.B, m *obs.Registry) {
		for i := 0; i < b.N; i++ {
			acc, err := pipeline.Run(trace.NewSliceReader(benchReplay),
				func() *pipeline.Count { return &pipeline.Count{} },
				pipeline.Options{Workers: 4, BatchSize: 1024, Metrics: m})
			if err != nil {
				b.Fatal(err)
			}
			if acc.N != int64(len(benchReplay)) {
				b.Fatalf("folded %d records, want %d", acc.N, len(benchReplay))
			}
		}
		b.SetBytes(int64(len(benchReplay)))
	}
	b.Run("metrics-off", func(b *testing.B) { run(b, nil) })
	b.Run("metrics-on", func(b *testing.B) { run(b, obs.NewRegistry()) })
}

// BenchmarkCDNReplay measures CDN replay throughput on the shared trace.
func BenchmarkCDNReplay(b *testing.B) {
	benchSetup(b)
	for i := 0; i < b.N; i++ {
		network := benchStudy.NewCDN()
		if err := network.Replay(trace.NewSliceReader(benchRecs), func(*trace.Record) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(benchRecs)))
}

// BenchmarkEdgeServe measures the live serving path. The http variant
// is end to end: trace records encoded as HTTP requests (edge wire
// format), served over a loopback socket from the CDN cache model,
// fanned out across parallel keep-alive clients — the request rate
// behind `make serve-demo`. The serve-* pair isolates the CDN serve
// step from socket overhead: serve-unlocked is CDN.ServeInto on one
// goroutine (what the offline replay pays per record), serve-locked is
// ConcurrentCDN.ServeInto from GOMAXPROCS goroutines (what the live edge
// pays, lock and contention included). Both run the same region-balanced
// workload, handed out by an atomic cursor.
func BenchmarkEdgeServe(b *testing.B) {
	benchSetup(b)
	mkCDN := func() *cdn.CDN {
		return cdn.New(cdn.Config{
			NewCache:   func() cdn.Cache { return cdn.NewLRU(ablationCapacity) },
			ChunkBytes: 2 << 20,
		})
	}
	// Rebalance regions: synthetic traffic is volume-weighted toward
	// the paper's biggest regions; the serve variants touch every DC's
	// cache equally instead.
	regions := timeutil.AllRegions()
	balanced := make([]*trace.Record, len(benchRecs))
	for i, r := range benchRecs {
		cp := *r
		cp.Region = regions[i%len(regions)]
		balanced[i] = &cp
	}

	b.Run("http", func(b *testing.B) {
		srv, err := edge.New(edge.Config{CDN: mkCDN()})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		paths := make([]string, len(benchRecs))
		for i, r := range benchRecs {
			paths[i] = ts.URL + edge.RequestPath(r)
		}
		client := &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 64,
		}}
		var served atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				p := paths[served.Add(1)%int64(len(paths))]
				resp, err := client.Get(p)
				if err != nil {
					b.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		})
		b.StopTimer()
		stats := srv.TotalStats()
		if stats.Requests > 0 {
			b.ReportMetric(stats.HitRatio()*100, "hit-%")
		}
	})

	// The serve-* variants measure the steady-state (warm cache) hot
	// path with ServeInto, so the loop body is expected to be
	// allocation-free: caches are sized above the working set and warmed
	// with one full pass, leaving only hits (and occasional dice-driven
	// 403/416/204 responses, which also do not allocate).
	warmCDN := func() *cdn.CDN {
		network := cdn.New(cdn.Config{
			NewCache:   func() cdn.Cache { return cdn.NewLRU(serveBenchCapacity) },
			ChunkBytes: 2 << 20,
		})
		var out trace.Record
		for _, r := range balanced {
			network.ServeInto(r, &out)
		}
		return network
	}

	b.Run("serve-unlocked", func(b *testing.B) {
		network := warmCDN()
		var out trace.Record
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			network.ServeInto(balanced[i%len(balanced)], &out)
		}
	})

	b.Run("serve-locked", func(b *testing.B) {
		conc := cdn.NewConcurrent(warmCDN())
		var next atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			var out trace.Record
			for pb.Next() {
				conc.ServeInto(balanced[next.Add(1)%int64(len(balanced))], &out)
			}
		})
	})
}

// BenchmarkEndToEndStudy measures the full pipeline at a small scale.
func BenchmarkEndToEndStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		study, err := core.NewStudy(core.Config{Seed: 1, Scale: 0.003})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := study.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
