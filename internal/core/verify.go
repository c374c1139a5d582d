package core

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"trafficscope/internal/analysis"
	"trafficscope/internal/report"
	"trafficscope/internal/stats"
	"trafficscope/internal/trace"
)

// Check is one calibration assertion outcome.
type Check struct {
	// Name, Fig and Paper identify the claim: what it says, the paper
	// figure it comes from and the value the paper reports.
	Name, Fig, Paper string
	// Band is the pass band, and Measured the reproduced value, formatted.
	Band, Measured string
	// Pass reports whether the measured value lies in the band.
	Pass bool
}

// claim is one paper claim, a row of the calibration table. A reproduced
// value v passes when it lies in [lo, hi], or, with op set, when "v op
// lo" holds. VerifyCalibration evaluates the claim only on a run that holds its
// analyzer (a registry name), its site (or two, space-separated), objects
// of its category there (cat 0: any), and for the caching analyzer the
// site's cache verdicts.
type claim struct {
	fig, analyzer, site string
	cat                 trace.Category
	name, paper         string
	op                  string // "", ">", ">=", "<" or "<="
	lo, hi              float64
	unit                unit
	measure             func(*Results) float64
}

// unit prints a claim's bounds, and its measured value after label.
type unit struct {
	label  string
	format func(float64) string
}

func (c claim) holds(v float64) bool {
	switch c.op {
	case ">", ">=":
		return v > c.lo || c.op == ">=" && v == c.lo
	case "<", "<=":
		return v < c.lo || c.op == "<=" && v == c.lo
	}
	return c.lo <= v && v <= c.hi
}

func (c claim) band() string {
	if c.op != "" {
		return c.op + " " + c.unit.format(c.lo)
	}
	return c.unit.format(c.lo) + " - " + c.unit.format(c.hi)
}

var (
	video, image = trace.CategoryVideo, trace.CategoryImage
	pc           = unit{"", report.Percent}
	x2           = unit{"", func(v float64) string { return fmt.Sprintf("%.2f", v) }}
	secs         = unit{"", func(v float64) string { return fmt.Sprintf("%.0fs", v) }}
	mib          = unit{"", func(v float64) string { return report.Bytes(int64(v)) }}
	// d7 prints an aging curve's day-7 fraction after its day-1 one,
	// which is 100% by construction.
	d7 = unit{"d1 100.0% -> d7 ", report.Percent}
)

// paperClaims is the calibration table: every claim of Figs. 1-16 the
// reproduction is held to, with its tolerance band.
var paperClaims = []claim{
	{"1", "composition", "V-2", 0, "V-2 image object share", "~84%", "", 0.80, 0.88, pc, func(r *Results) float64 { return r.Composition().Site("V-2").ObjectFrac(image) }},
	{"1", "composition", "P-1", 0, "P-1 image object share", "~99%", ">=", 0.9, 0, pc, func(r *Results) float64 { return r.Composition().Site("P-1").ObjectFrac(image) }},
	{"1", "composition", "P-2", 0, "P-2 image object share", "~99%", ">=", 0.9, 0, pc, func(r *Results) float64 { return r.Composition().Site("P-2").ObjectFrac(image) }},
	{"1", "composition", "S-1", 0, "S-1 image object share", "~99%", ">=", 0.9, 0, pc, func(r *Results) float64 { return r.Composition().Site("S-1").ObjectFrac(image) }},
	{"2a", "composition", "V-1", 0, "V-1 video request share", "~99%", ">=", 0.97, 0, pc, func(r *Results) float64 { return r.Composition().Site("V-1").RequestFrac(video) }},
	{"2b", "composition", "V-1", 0, "V-1 video byte share", "~99%", ">=", 0.95, 0, pc, func(r *Results) float64 { return r.Composition().Site("V-1").ByteFrac(video) }},
	{"2b", "composition", "V-2", 0, "V-2 video byte share", "dominant", ">=", 0.5, 0, pc, func(r *Results) float64 { return r.Composition().Site("V-2").ByteFrac(video) }},
	{"3", "hourly", "V-1", 0, "V-1 night/day traffic ratio", "anti-diurnal (>1)", ">", 1, 0, x2, func(r *Results) float64 {
		p := r.Hourly().Percent("V-1")
		return (p[23] + p[0] + p[1] + p[2] + p[3] + p[4] + p[5]) / 7 / ((p[9] + p[10] + p[11] + p[12] + p[13] + p[14] + p[15]) / 7)
	}},
	{"3", "hourly", "V-1", 0, "V-1 quietest hour share", "~2.5%", ">=", 0.005, 0, pc, func(r *Results) float64 { p := r.Hourly().Percent("V-1"); return slices.Min(p[:]) / 100 }},
	{"3", "hourly", "V-1", 0, "V-1 busiest hour share", "~5.5%", "<=", 0.12, 0, pc, func(r *Results) float64 { p := r.Hourly().Percent("V-1"); return slices.Max(p[:]) / 100 }},
	{"4", "devices", "V-1", 0, "V-1 desktop user share", "dominant", ">=", 0.5, 0, pc, func(r *Results) float64 { return r.Devices().DesktopShare("V-1") }},
	{"4", "devices", "V-2", 0, "V-2 desktop user share", ">95%", ">=", 0.9, 0, pc, func(r *Results) float64 { return r.Devices().DesktopShare("V-2") }},
	{"4", "devices", "P-1", 0, "P-1 desktop user share", "dominant", ">=", 0.5, 0, pc, func(r *Results) float64 { return r.Devices().DesktopShare("P-1") }},
	{"4", "devices", "P-2", 0, "P-2 desktop user share", "dominant", ">=", 0.5, 0, pc, func(r *Results) float64 { return r.Devices().DesktopShare("P-2") }},
	{"4", "devices", "S-1", 0, "S-1 desktop user share", "dominant", ">=", 0.5, 0, pc, func(r *Results) float64 { return r.Devices().DesktopShare("S-1") }},
	{"4", "devices", "S-1", 0, "S-1 non-desktop user share", ">1/3", ">=", 0.25, 0, pc, func(r *Results) float64 { return 1 - r.Devices().DesktopShare("S-1") }},
	{"5", "sizes", "V-1", video, "V-1 videos above 1 MB", "majority", ">=", 0.8, 0, pc, func(r *Results) float64 { return r.Sizes().FracAbove("V-1", video, 1<<20) }},
	{"5", "sizes", "P-1", image, "P-1 images at or below 1 MB", "nearly all", ">=", 0.9, 0, pc, func(r *Results) float64 { return r.Sizes().CDF("P-1", image).At(1 << 20) }},
	{"5", "sizes", "P-2", image, "P-2 images at or below 1 MB", "nearly all", ">=", 0.9, 0, pc, func(r *Results) float64 { return r.Sizes().CDF("P-2", image).At(1 << 20) }},
	{"5", "sizes", "S-1", image, "S-1 images at or below 1 MB", "nearly all", ">=", 0.9, 0, pc, func(r *Results) float64 { return r.Sizes().CDF("S-1", image).At(1 << 20) }},
	{"5", "sizes", "P-1", image, "P-1 image size p75/p25", "bimodal", ">=", 5, 0, x2, func(r *Results) float64 { return r.Sizes().BimodalityGap("P-1", image) }},
	{"5", "sizes", "P-2", image, "P-2 image size p75/p25", "bimodal", ">=", 5, 0, x2, func(r *Results) float64 { return r.Sizes().BimodalityGap("P-2", image) }},
	{"5", "sizes", "S-1", image, "S-1 image size p75/p25", "bimodal", ">=", 5, 0, x2, func(r *Results) float64 { return r.Sizes().BimodalityGap("S-1", image) }},
	{"5", "sizes", "P-2", video, "P-2 median video size", "multi-MB", ">=", 1 << 20, 0, mib, func(r *Results) float64 { return median(r.Sizes().CDF("P-2", video)) }},
	{"6", "popularity", "V-1", video, "V-1 video popularity Zipf exponent", "long-tailed", "", 0.3, 2.0, x2, func(r *Results) float64 { return r.Popularity().ZipfExponent("V-1", video) }},
	{"6", "popularity", "V-1", video, "V-1 top-10% video request share", "long-tailed", ">=", 0.3, 0, pc, func(r *Results) float64 { return r.Popularity().TopShare("V-1", video, 0.1) }},
	{"6", "popularity", "P-1", image, "P-1 image popularity Zipf exponent", "long-tailed", "", 0.3, 2.0, x2, func(r *Results) float64 { return r.Popularity().ZipfExponent("P-1", image) }},
	{"6", "popularity", "P-1", image, "P-1 top-10% image request share", "long-tailed", ">=", 0.3, 0, pc, func(r *Results) float64 { return r.Popularity().TopShare("P-1", image, 0.1) }},
	{"7", "aging", "V-1", 0, "V-1 aging curve declines", "declining", "", 0.03, 0.75, d7, func(r *Results) float64 { return r.Aging().Curve("V-1")[6] }},
	{"7", "aging", "V-2", 0, "V-2 aging curve declines", "declining", "<", 1, 0, d7, func(r *Results) float64 { return r.Aging().Curve("V-2")[6] }},
	{"7", "aging", "P-2", 0, "P-2 aging curve declines", "declining", "", 0.03, 0.75, d7, func(r *Results) float64 { return r.Aging().Curve("P-2")[6] }},
	{"7", "aging", "V-2", 0, "V-2 objects requested all week", "~10%", "", 0.01, 0.4, pc, func(r *Results) float64 { return r.Aging().FracAliveAllWeek("V-2") }},
	{"11", "sessions", "V-1", 0, "V-1 median request IAT", "<10 min", "<", 600, 0, secs, func(r *Results) float64 { return median(r.Sessions().IATCDF("V-1")) }},
	{"11", "sessions", "P-2", 0, "P-2 median request IAT", ">1 hour", ">", 3600, 0, secs, func(r *Results) float64 { return median(r.Sessions().IATCDF("P-2")) }},
	{"12", "sessions", "V-1", 0, "V-1 median session length", "~1 min", "<=", 600, 0, secs, func(r *Results) float64 { return median(r.Sessions().SessionLengthCDF("V-1")) }},
	{"12", "sessions", "V-2", 0, "V-2 median session length", "~1 min", "<=", 600, 0, secs, func(r *Results) float64 { return median(r.Sessions().SessionLengthCDF("V-2")) }},
	{"12", "sessions", "P-1", 0, "P-1 median session length", "~1 min", "<=", 600, 0, secs, func(r *Results) float64 { return median(r.Sessions().SessionLengthCDF("P-1")) }},
	{"12", "sessions", "P-2", 0, "P-2 median session length", "~1 min", "<=", 600, 0, secs, func(r *Results) float64 { return median(r.Sessions().SessionLengthCDF("P-2")) }},
	{"12", "sessions", "S-1", 0, "S-1 median session length", "~1 min", "<=", 600, 0, secs, func(r *Results) float64 { return median(r.Sessions().SessionLengthCDF("S-1")) }},
	{"13", "addiction", "V-1", video, "V-1 max video requests/users", "up to ~100x", ">=", 5, 0, x2, func(r *Results) float64 {
		most := 0.0
		for _, p := range r.Addiction().Scatter("V-1", video) {
			most = max(most, float64(p.Requests)/float64(p.Users))
		}
		return most
	}},
	{"14", "addiction", "V-1", video, "V-1 video objects >10 req/user", ">=10%", ">=", 0.03, 0, pc, func(r *Results) float64 { return r.Addiction().FracObjectsAbove("V-1", video, 10) }},
	{"14", "addiction", "P-1", image, "P-1 image objects >10 req/user", "<1%", "<=", 0.05, 0, pc, func(r *Results) float64 { return r.Addiction().FracObjectsAbove("P-1", image, 10) }},
	{"14", "addiction", "V-1 P-1", 0, "V-1 video minus P-1 image >10 req/user", "video >> image", ">", 0, 0, pc, func(r *Results) float64 {
		return r.Addiction().FracObjectsAbove("V-1", video, 10) - r.Addiction().FracObjectsAbove("P-1", image, 10)
	}},
	{"15", "caching", "V-1", 0, "V-1 weighted cache hit ratio", "80-90%", "", 0.55, 0.995, pc, func(r *Results) float64 { return r.Caching().WeightedHitRatio("V-1") }},
	{"15", "caching", "V-2", 0, "V-2 weighted cache hit ratio", "80-90%", "", 0.55, 0.995, pc, func(r *Results) float64 { return r.Caching().WeightedHitRatio("V-2") }},
	{"15", "caching", "P-1", 0, "P-1 weighted cache hit ratio", "80-90%", "", 0.55, 0.995, pc, func(r *Results) float64 { return r.Caching().WeightedHitRatio("P-1") }},
	{"15", "caching", "P-2", 0, "P-2 weighted cache hit ratio", "80-90%", "", 0.55, 0.995, pc, func(r *Results) float64 { return r.Caching().WeightedHitRatio("P-2") }},
	{"15", "caching", "S-1", 0, "S-1 weighted cache hit ratio", "80-90%", "", 0.55, 0.995, pc, func(r *Results) float64 { return r.Caching().WeightedHitRatio("S-1") }},
	{"15", "caching", "V-1", 0, "V-1 popularity-hit correlation", ">0.9 (paper)", ">=", 0.3, 0, x2, func(r *Results) float64 { return r.Caching().PopularityHitCorrelation("V-1") }},
	{"15", "caching", "V-2", 0, "V-2 popularity-hit correlation", ">0.9 (paper)", ">=", 0.3, 0, x2, func(r *Results) float64 { return r.Caching().PopularityHitCorrelation("V-2") }},
	{"15", "caching", "P-1", 0, "P-1 popularity-hit correlation", ">0.9 (paper)", ">=", 0.3, 0, x2, func(r *Results) float64 { return r.Caching().PopularityHitCorrelation("P-1") }},
	{"15", "caching", "P-2", 0, "P-2 popularity-hit correlation", ">0.9 (paper)", ">=", 0.3, 0, x2, func(r *Results) float64 { return r.Caching().PopularityHitCorrelation("P-2") }},
	{"15", "caching", "S-1", 0, "S-1 popularity-hit correlation", ">0.9 (paper)", ">=", 0.3, 0, x2, func(r *Results) float64 { return r.Caching().PopularityHitCorrelation("S-1") }},
	{"15", "caching", "V-2", 0, "V-2 image minus video median hit ratio", "image > video", ">=", -0.05, 0, pc, func(r *Results) float64 {
		return median(r.Caching().HitRatioCDF("V-2", image)) - median(r.Caching().HitRatioCDF("V-2", video))
	}},
	{"16", "caching", "P-1", image, "P-1 image 200 share", "dominant", ">=", 0.7, 0, pc, func(r *Results) float64 { return r.Caching().CodeFrac("P-1", image, 200) }},
	{"16", "caching", "P-1", image, "P-1 image 304 share", "small (incognito)", "<=", 0.2, 0, pc, func(r *Results) float64 { return r.Caching().CodeFrac("P-1", image, 304) }},
	{"16", "caching", "P-1", image, "P-1 image 403 share", "rare", "<=", 0.05, 0, pc, func(r *Results) float64 { return r.Caching().CodeFrac("P-1", image, 403) }},
	{"16", "caching", "S-1", image, "S-1 image 200 share", "dominant", ">=", 0.7, 0, pc, func(r *Results) float64 { return r.Caching().CodeFrac("S-1", image, 200) }},
	{"16", "caching", "S-1", image, "S-1 image 304 share", "small (incognito)", "<=", 0.2, 0, pc, func(r *Results) float64 { return r.Caching().CodeFrac("S-1", image, 304) }},
	{"16", "caching", "S-1", image, "S-1 image 403 share", "rare", "<=", 0.05, 0, pc, func(r *Results) float64 { return r.Caching().CodeFrac("S-1", image, 403) }},
	{"16", "caching", "V-1", video, "V-1 video 206 share", "common", ">=", 0.3, 0, pc, func(r *Results) float64 { return r.Caching().CodeFrac("V-1", video, 206) }},
}

// median is e's median, NaN (failing any band) for an empty population.
func median(e *stats.ECDF) float64 {
	if e == nil {
		return math.NaN()
	}
	m, _ := e.Median()
	return m
}

// VerifyCalibration evaluates every claim of the calibration table that
// the results hold the populations of, and returns one Check per claim.
// It is the programmatic counterpart of tsreport -verify, which exits 1
// when a check fails or none applies: to validate modified site profiles
// against the paper's shape, write a trace from them (tsgen -profiles)
// and run tsreport -in <trace> -replay -verify.
func (r *Results) VerifyCalibration() []Check {
	sites := map[string]*analysis.CategoryBreakdown{}
	for _, s := range r.SiteNames() {
		sites[s] = r.Composition().Site(s)
	}
	checks := make([]Check, 0, len(paperClaims))
	for _, c := range paperClaims {
		first, second, _ := strings.Cut(c.site, " ")
		b := sites[first]
		if b == nil || c.cat != 0 && b.Requests[c.cat] == 0 || second != "" && sites[second] == nil ||
			r.analyzers[c.analyzer] == nil || c.analyzer == "caching" && r.Caching().Verdicts(first) == 0 {
			continue
		}
		v := c.measure(r)
		checks = append(checks, Check{c.name, c.fig, c.paper, c.band(), c.unit.label + c.unit.format(v), c.holds(v)})
	}
	return checks
}

// VerifyTable renders the calibration checks, and reports whether all
// passed.
func (r *Results) VerifyTable() (*report.Table, bool) { return CheckTable(r.VerifyCalibration()) }

// CheckTable renders checks as VerifyTable does, for a caller that has
// already evaluated them, and reports whether all passed.
func CheckTable(checks []Check) (*report.Table, bool) {
	t := report.NewTable("calibration verification (paper claims vs this run)",
		"check", "fig", "paper", "band", "measured", "status")
	all := true
	for _, c := range checks {
		status := "PASS"
		if !c.Pass {
			status = "FAIL"
			all = false
		}
		t.AddStrings(c.Name, c.Fig, c.Paper, c.Band, c.Measured, status)
	}
	return t, all
}
