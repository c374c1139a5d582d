package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"trafficscope/internal/analysis"
	"trafficscope/internal/report"
	"trafficscope/internal/trace"
	"trafficscope/internal/useragent"
)

// sizeCDFPoints are the thresholds evaluated for Fig. 5 tables.
var sizeCDFPoints = []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// popularityCDFPoints are the thresholds for Fig. 6 tables.
var popularityCDFPoints = []float64{1, 2, 5, 10, 50, 100, 1000}

// responseCodes are the status codes listed in Fig. 16.
var responseCodes = []int{200, 204, 206, 304, 403, 416}

// Fig01ContentComposition renders the per-site object composition table.
func (r *Results) Fig01ContentComposition() *report.Table {
	if r.Composition() == nil {
		return nil
	}
	t := report.NewTable("Fig 1: content composition (distinct objects)",
		"site", "objects", "video", "image", "other")
	for _, site := range r.Composition().Sites() {
		b := r.Composition().Site(site)
		t.AddRow(site, b.TotalObjects(),
			report.Percent(b.ObjectFrac(trace.CategoryVideo)),
			report.Percent(b.ObjectFrac(trace.CategoryImage)),
			report.Percent(b.ObjectFrac(trace.CategoryOther)))
	}
	return t
}

// Fig02aRequestCount renders the per-site request-count composition.
func (r *Results) Fig02aRequestCount() *report.Table {
	if r.Composition() == nil {
		return nil
	}
	t := report.NewTable("Fig 2a: traffic composition by request count",
		"site", "requests", "video", "image", "other")
	for _, site := range r.Composition().Sites() {
		b := r.Composition().Site(site)
		t.AddRow(site, b.TotalRequests(),
			report.Percent(b.RequestFrac(trace.CategoryVideo)),
			report.Percent(b.RequestFrac(trace.CategoryImage)),
			report.Percent(b.RequestFrac(trace.CategoryOther)))
	}
	return t
}

// Fig02bRequestBytes renders the per-site byte-volume composition.
func (r *Results) Fig02bRequestBytes() *report.Table {
	if r.Composition() == nil {
		return nil
	}
	t := report.NewTable("Fig 2b: traffic composition by request size (bytes)",
		"site", "bytes", "video", "image", "other")
	for _, site := range r.Composition().Sites() {
		b := r.Composition().Site(site)
		t.AddRow(site, report.Bytes(b.TotalBytes()),
			report.Percent(b.ByteFrac(trace.CategoryVideo)),
			report.Percent(b.ByteFrac(trace.CategoryImage)),
			report.Percent(b.ByteFrac(trace.CategoryOther)))
	}
	return t
}

// Fig03HourlyVolume renders the local-time hourly traffic shares with a
// sparkline per site.
func (r *Results) Fig03HourlyVolume() *report.Table {
	if r.Hourly() == nil {
		return nil
	}
	t := report.NewTable("Fig 3: hourly traffic volume (% of daily, local time)",
		"site", "peak hour", "trough hour", "peak %", "trough %", "curve 0h..23h")
	for _, site := range r.Hourly().Sites() {
		p := r.Hourly().Percent(site)
		peak, trough := r.Hourly().PeakHour(site), r.Hourly().TroughHour(site)
		t.AddRow(site, peak, trough, p[peak], p[trough], report.Sparkline(p[:]))
	}
	return t
}

// Fig04DeviceMix renders the per-site device shares of users.
func (r *Results) Fig04DeviceMix() *report.Table {
	if r.Devices() == nil {
		return nil
	}
	t := report.NewTable("Fig 4: device type composition (share of users)",
		"site", "desktop", "android", "ios", "misc")
	for _, site := range r.Devices().Sites() {
		share := r.Devices().UserShare(site)
		row := []any{site}
		for i := range useragent.AllDevices() {
			row = append(row, report.Percent(share[i]))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig05SizeCDF renders content-size CDF evaluations for one category.
func (r *Results) Fig05SizeCDF(cat trace.Category) *report.Table {
	if r.Sizes() == nil {
		return nil
	}
	headers := []string{"site"}
	for _, x := range sizeCDFPoints {
		headers = append(headers, fmt.Sprintf("<=%s", report.Bytes(int64(x))))
	}
	t := report.NewTable(fmt.Sprintf("Fig 5: content size CDF (%s)", cat), headers...)
	for _, site := range r.Sizes().Sites() {
		cdf := r.Sizes().CDF(site, cat)
		if cdf == nil {
			continue
		}
		row := []any{site}
		for _, x := range sizeCDFPoints {
			row = append(row, report.Percent(cdf.At(x)))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig06Popularity renders request-count CDF evaluations for one category.
func (r *Results) Fig06Popularity(cat trace.Category) *report.Table {
	if r.Popularity() == nil {
		return nil
	}
	headers := []string{"site", "objects", "zipf s", "top10% share"}
	for _, x := range popularityCDFPoints {
		headers = append(headers, fmt.Sprintf("<=%g req", x))
	}
	t := report.NewTable(fmt.Sprintf("Fig 6: content popularity (%s)", cat), headers...)
	for _, site := range r.Popularity().Sites() {
		cdf := r.Popularity().CDF(site, cat)
		if cdf == nil {
			continue
		}
		row := []any{site, cdf.Len(), r.Popularity().ZipfExponent(site, cat),
			report.Percent(r.Popularity().TopShare(site, cat, 0.1))}
		for _, x := range popularityCDFPoints {
			row = append(row, report.Percent(cdf.At(x)))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig07ContentAge renders the aging curves.
func (r *Results) Fig07ContentAge() *report.Table {
	if r.Aging() == nil {
		return nil
	}
	t := report.NewTable("Fig 7: fraction of objects requested at age d",
		"site", "d1", "d2", "d3", "d4", "d5", "d6", "d7", "alive all week")
	for _, site := range r.Aging().Sites() {
		curve := r.Aging().Curve(site)
		row := []any{site}
		for _, v := range curve {
			row = append(row, report.Percent(v))
		}
		row = append(row, report.Percent(r.Aging().FracAliveAllWeek(site)))
		t.AddRow(row...)
	}
	return t
}

// Fig08Clusters runs the DTW clustering for one site and category and
// renders the cluster mixture (the dendrogram leaf-percentage labels).
func (r *Results) Fig08Clusters(site string, cat trace.Category) (*report.Table, *analysis.ClusterResult, error) {
	if r.Series() == nil {
		return nil, nil, fmt.Errorf("core: series analysis not part of this run")
	}
	res, err := r.Series().ClusterSeries(site, cat, r.ClusterOpts)
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("Fig 8: DTW cluster mixture, %s %s objects (n=%d)", site, cat, len(res.ObjectIDs)),
		"cluster", "size", "share", "shape", "medoid curve")
	for i, c := range res.Clusters {
		t.AddRow(fmt.Sprintf("#%d", i+1), c.Size, report.Percent(c.Frac),
			analysis.ClassifyShape(c.Medoid),
			report.Sparkline(report.Downsample(c.Medoid, 56)))
	}
	return t, res, nil
}

// Fig09Medoids renders the medoid series of each cluster (Figs. 9/10).
func (r *Results) Fig09Medoids(res *analysis.ClusterResult, title string) *report.Table {
	t := report.NewTable(title, "cluster", "shape", "peak day-hour", "medoid (day resolution)")
	for i, c := range res.Clusters {
		peak := 0
		for h, v := range c.Medoid {
			if v > c.Medoid[peak] {
				peak = h
			}
		}
		t.AddRow(fmt.Sprintf("#%d", i+1), analysis.ClassifyShape(c.Medoid),
			fmt.Sprintf("d%d h%d", peak/24, peak%24),
			report.Sparkline(report.Downsample(c.Medoid, 28)))
	}
	return t
}

// Fig11InterArrival renders IAT distribution quantiles.
func (r *Results) Fig11InterArrival() *report.Table {
	if r.Sessions() == nil {
		return nil
	}
	t := report.NewTable("Fig 11: user request inter-arrival time (seconds)",
		"site", "p25", "median", "p75", "p90", "<=10min")
	for _, site := range r.Sessions().Sites() {
		cdf := r.Sessions().IATCDF(site)
		if cdf == nil {
			continue
		}
		q := func(p float64) float64 { v, _ := cdf.Quantile(p); return v }
		t.AddRow(site, q(0.25), q(0.5), q(0.75), q(0.9), report.Percent(cdf.At(600)))
	}
	return t
}

// Fig12SessionLength renders session-length distribution quantiles,
// with the IAT-knee estimate that justifies the timeout choice.
func (r *Results) Fig12SessionLength() *report.Table {
	if r.Sessions() == nil {
		return nil
	}
	t := report.NewTable(
		fmt.Sprintf("Fig 12: user session length (seconds, %v timeout)", r.Sessions().Timeout()),
		"site", "sessions", "median", "p90", "mean reqs/session", "IAT knee")
	for _, site := range r.Sessions().Sites() {
		cdf := r.Sessions().SessionLengthCDF(site)
		if cdf == nil {
			continue
		}
		med, _ := cdf.Median()
		p90, _ := cdf.Quantile(0.9)
		knee := "-"
		if k := r.Sessions().TimeoutKnee(site); k > 0 {
			knee = k.Round(time.Minute).String()
		}
		t.AddRow(site, cdf.Len(), med, p90, r.Sessions().MeanRequestsPerSession(site), knee)
	}
	return t
}

// Fig13RepeatedAccess summarizes the requests-vs-users scatter.
func (r *Results) Fig13RepeatedAccess(cat trace.Category) *report.Table {
	if r.Addiction() == nil {
		return nil
	}
	t := report.NewTable(
		fmt.Sprintf("Fig 13: repeated access of %s objects", cat),
		"site", "objects", "max req/users ratio", "objs with req>2x users")
	for _, site := range r.Addiction().Sites() {
		pts := r.Addiction().Scatter(site, cat)
		if len(pts) == 0 {
			continue
		}
		maxRatio, above := 0.0, 0
		for _, p := range pts {
			ratio := float64(p.Requests) / float64(p.Users)
			if ratio > maxRatio {
				maxRatio = ratio
			}
			if p.Requests > 2*p.Users {
				above++
			}
		}
		t.AddRow(site, len(pts), maxRatio, report.Percent(float64(above)/float64(len(pts))))
	}
	return t
}

// Fig14AddictionCDF renders the per-user repeat-request CDF summary.
func (r *Results) Fig14AddictionCDF() *report.Table {
	if r.Addiction() == nil {
		return nil
	}
	t := report.NewTable("Fig 14: repeated content access by users",
		"site", "video objs >10 req/user", "image objs >10 req/user")
	sites := r.Addiction().Sites()
	for _, site := range sites {
		t.AddRow(site,
			report.Percent(r.Addiction().FracObjectsAbove(site, trace.CategoryVideo, 10)),
			report.Percent(r.Addiction().FracObjectsAbove(site, trace.CategoryImage, 10)))
	}
	return t
}

// Fig15HitRatio renders per-object hit-ratio distributions, with the
// hit ratio by popularity decile as a sparkline (lowest decile left):
// rising curves are the paper's "popular objects tend to have higher hit
// ratios" claim.
func (r *Results) Fig15HitRatio() *report.Table {
	if r.Caching() == nil {
		return nil
	}
	t := report.NewTable("Fig 15: CDN cache hit ratios",
		"site", "image median", "video median", "weighted", "pop-hit corr", "by popularity decile")
	for _, site := range r.Caching().Sites() {
		row := []any{site}
		for _, cat := range []trace.Category{trace.CategoryImage, trace.CategoryVideo} {
			cdf := r.Caching().HitRatioCDF(site, cat)
			if cdf == nil {
				row = append(row, "-")
				continue
			}
			med, _ := cdf.Median()
			row = append(row, med)
		}
		decile := "-"
		if d := r.Caching().HitRatioByPopularityDecile(site); d != nil {
			decile = report.Sparkline(d)
		}
		row = append(row, report.Percent(r.Caching().WeightedHitRatio(site)),
			r.Caching().PopularityHitCorrelation(site), decile)
		t.AddRow(row...)
	}
	return t
}

// Fig16ResponseCodes renders status-code counts for one category.
func (r *Results) Fig16ResponseCodes(cat trace.Category) *report.Table {
	if r.Caching() == nil {
		return nil
	}
	headers := []string{"site"}
	for _, code := range responseCodes {
		headers = append(headers, fmt.Sprintf("%d", code))
	}
	t := report.NewTable(fmt.Sprintf("Fig 16: HTTP response codes (%s)", cat), headers...)
	for _, site := range r.Caching().Sites() {
		codes := r.Caching().ResponseCodes(site, cat)
		if len(codes) == 0 {
			continue
		}
		row := []any{site}
		for _, code := range responseCodes {
			row = append(row, codes[code])
		}
		t.AddRow(row...)
	}
	return t
}

// AllFigureTables renders every computed figure that does not need
// extra parameters, in paper order; figures whose analyzer was pruned
// by Config.Figures are skipped. Clustering figures (8-10) are rendered
// for the paper's two showcased populations when enough series exist.
func (r *Results) AllFigureTables() []*report.Table {
	var tables []*report.Table
	add := func(ts ...*report.Table) {
		for _, t := range ts {
			if t != nil {
				tables = append(tables, t)
			}
		}
	}
	add(
		r.Fig01ContentComposition(),
		r.Fig02aRequestCount(),
		r.Fig02bRequestBytes(),
		r.Fig03HourlyVolume(),
		r.Fig04DeviceMix(),
		r.Fig05SizeCDF(trace.CategoryVideo),
		r.Fig05SizeCDF(trace.CategoryImage),
		r.Fig06Popularity(trace.CategoryVideo),
		r.Fig06Popularity(trace.CategoryImage),
		r.Fig07ContentAge(),
	)
	for _, pick := range []struct {
		site string
		cat  trace.Category
		name string
	}{
		{"V-2", trace.CategoryVideo, "Fig 9: cluster medoids, V-2 video"},
		{"P-2", trace.CategoryImage, "Fig 10: cluster medoids, P-2 image"},
	} {
		tab, res, err := r.Fig08Clusters(pick.site, pick.cat)
		if err != nil {
			continue // pruned, or not enough warm series at tiny scales
		}
		add(tab, r.Fig09Medoids(res, pick.name))
	}
	add(
		r.Fig11InterArrival(),
		r.Fig12SessionLength(),
		r.Fig13RepeatedAccess(trace.CategoryVideo),
		r.Fig13RepeatedAccess(trace.CategoryImage),
		r.Fig14AddictionCDF(),
		r.Fig15HitRatio(),
		r.Fig16ResponseCodes(trace.CategoryVideo),
		r.Fig16ResponseCodes(trace.CategoryImage),
	)
	return tables
}

// SiteNames lists the sites present in the results, sorted with the
// paper's ordering (V-1, V-2, P-1, P-2, S-1) when applicable.
func (r *Results) SiteNames() []string {
	sites := slices.Clone(r.sites)
	order := map[string]int{"V-1": 0, "V-2": 1, "P-1": 2, "P-2": 3, "S-1": 4}
	sort.SliceStable(sites, func(i, j int) bool {
		oi, iok := order[sites[i]]
		oj, jok := order[sites[j]]
		switch {
		case iok && jok:
			return oi < oj
		case iok:
			return true
		case jok:
			return false
		default:
			return sites[i] < sites[j]
		}
	})
	return sites
}
