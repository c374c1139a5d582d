package core

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"trafficscope/internal/analysis"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// sharedResults runs one moderately sized study shared by the
// integration assertions below (generating is the expensive part).
var (
	resultsOnce sync.Once
	sharedRes   *Results
	sharedErr   error
)

func getResults(t *testing.T) *Results {
	t.Helper()
	resultsOnce.Do(func() {
		study, err := NewStudy(Config{Seed: 7, Scale: 0.02, Salt: "core-test"})
		if err != nil {
			sharedErr = err
			return
		}
		sharedRes, sharedErr = study.Run()
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedRes
}

func TestStudyRunBasics(t *testing.T) {
	r := getResults(t)
	if r.Records == 0 {
		t.Fatal("no records")
	}
	sites := r.SiteNames()
	want := []string{"V-1", "V-2", "P-1", "P-2", "S-1"}
	if len(sites) != 5 {
		t.Fatalf("sites = %v", sites)
	}
	for i := range want {
		if sites[i] != want[i] {
			t.Errorf("site order: %v", sites)
			break
		}
	}
	if r.CDNStats.Requests == 0 {
		t.Error("CDN saw no requests")
	}
}

// Fig. 1/2a calibration: object and request mixes per site.
func TestCompositionMatchesPaper(t *testing.T) {
	r := getResults(t)
	v1 := r.Composition().Site("V-1")
	if f := v1.RequestFrac(trace.CategoryVideo); f < 0.95 {
		t.Errorf("V-1 video request share = %v, paper ~0.99", f)
	}
	v2 := r.Composition().Site("V-2")
	if f := v2.ObjectFrac(trace.CategoryImage); f < 0.75 || f > 0.92 {
		t.Errorf("V-2 image object share = %v, paper ~0.84", f)
	}
	for _, site := range []string{"P-1", "P-2", "S-1"} {
		b := r.Composition().Site(site)
		if f := b.ObjectFrac(trace.CategoryImage); f < 0.9 {
			t.Errorf("%s image object share = %v, paper ~0.99", site, f)
		}
	}
	// Fig 2b: video dominates V-1 bytes.
	if f := v1.ByteFrac(trace.CategoryVideo); f < 0.95 {
		t.Errorf("V-1 video byte share = %v, paper ~0.99", f)
	}
	// V-2 video bytes dominate despite fewer requests (videos are big).
	if f := v2.ByteFrac(trace.CategoryVideo); f < 0.5 {
		t.Errorf("V-2 video byte share = %v, paper ~0.75", f)
	}
}

// Fig. 3 calibration: V-1 peaks late night / early morning in local time.
func TestHourlyShapeMatchesPaper(t *testing.T) {
	r := getResults(t)
	// Anti-diurnal claim, tested on hour-band averages (argmax is noisy
	// at small scales): late-night share exceeds mid-day share.
	p := r.Hourly().Percent("V-1")
	night := (p[23] + p[0] + p[1] + p[2] + p[3] + p[4] + p[5]) / 7
	day := (p[9] + p[10] + p[11] + p[12] + p[13] + p[14] + p[15]) / 7
	if night <= day {
		t.Errorf("V-1 night share %v <= day share %v, paper is anti-diurnal", night, day)
	}
	// Hourly shares stay in a plausible band (paper: ~2.5-5.5%); the
	// band is widened because byte volume is noisy at small scales.
	for h, v := range p {
		if v < 0.5 || v > 12 {
			t.Errorf("V-1 hour %d share = %v%%, outside plausible band", h, v)
		}
	}
}

// Fig. 4 calibration: desktop dominates; V-2 > 95%; S-1 strongest mobile.
func TestDeviceMixMatchesPaper(t *testing.T) {
	r := getResults(t)
	for _, site := range r.SiteNames() {
		if f := r.Devices().DesktopShare(site); f < 0.5 {
			t.Errorf("%s desktop share = %v, desktop should dominate", site, f)
		}
	}
	if f := r.Devices().DesktopShare("V-2"); f < 0.9 {
		t.Errorf("V-2 desktop share = %v, paper > 0.95", f)
	}
	s1 := r.Devices().UserShare("S-1")
	nonDesktop := 1 - s1[0]
	if nonDesktop < 0.25 {
		t.Errorf("S-1 non-desktop share = %v, paper > 1/3", nonDesktop)
	}
}

// Fig. 5 calibration: videos mostly > 1 MB; images mostly < 1 MB with a
// bimodal thumbnail/full-size mix.
func TestSizesMatchPaper(t *testing.T) {
	r := getResults(t)
	if f := r.Sizes().FracAbove("V-1", trace.CategoryVideo, 1<<20); f < 0.8 {
		t.Errorf("V-1 videos > 1MB = %v, paper: majority", f)
	}
	for _, site := range []string{"P-1", "P-2", "S-1"} {
		cdf := r.Sizes().CDF(site, trace.CategoryImage)
		if cdf == nil {
			t.Fatalf("%s has no image CDF", site)
		}
		if f := cdf.At(1 << 20); f < 0.9 {
			t.Errorf("%s images <= 1MB = %v, paper: nearly all", site, f)
		}
		if gap := r.Sizes().BimodalityGap(site, trace.CategoryImage); gap < 5 {
			t.Errorf("%s image bimodality gap = %v, want large", site, gap)
		}
	}
	// P-2 is configured with the largest videos; with only a handful of
	// P-2 video objects at small scale the median is noisy, so assert
	// the weaker shape claim: P-2 videos are multi-megabyte.
	p2, _ := r.Sizes().CDF("P-2", trace.CategoryVideo).Median()
	if p2 < 1<<20 {
		t.Errorf("P-2 video median = %v, want multi-MB", p2)
	}
}

// Fig. 6 calibration: long-tailed popularity.
func TestPopularityMatchesPaper(t *testing.T) {
	r := getResults(t)
	for _, site := range []string{"V-1", "P-1"} {
		cat := trace.CategoryVideo
		if site == "P-1" {
			cat = trace.CategoryImage
		}
		s := r.Popularity().ZipfExponent(site, cat)
		if math.IsNaN(s) || s < 0.3 || s > 2.0 {
			t.Errorf("%s zipf exponent = %v, want skewed", site, s)
		}
		top := r.Popularity().TopShare(site, cat, 0.1)
		if top < 0.3 {
			t.Errorf("%s top-10%% share = %v, want heavy concentration", site, top)
		}
	}
}

// Fig. 7 calibration: declining aging curve; a minority of objects stays
// requested all week.
func TestAgingMatchesPaper(t *testing.T) {
	r := getResults(t)
	for _, site := range []string{"V-1", "P-2"} {
		curve := r.Aging().Curve(site)
		if curve[0] != 1 {
			t.Errorf("%s age-1 = %v, want 1", site, curve[0])
		}
		if curve[6] >= curve[0] {
			t.Errorf("%s aging curve not declining: %v", site, curve)
		}
		if curve[6] < 0.03 || curve[6] > 0.75 {
			t.Errorf("%s age-7 fraction = %v, paper ~0.1-0.5 band", site, curve[6])
		}
	}
}

// Fig. 11/12 calibration: video sites have shorter IATs than image
// sites; median session lengths are around a minute.
func TestSessionsMatchPaper(t *testing.T) {
	r := getResults(t)
	v1 := r.Sessions().IATCDF("V-1")
	p2 := r.Sessions().IATCDF("P-2")
	if v1 == nil || p2 == nil {
		t.Fatal("missing IAT CDFs")
	}
	v1med, _ := v1.Median()
	p2med, _ := p2.Median()
	if v1med >= p2med {
		t.Errorf("V-1 median IAT %v should be below P-2 %v", v1med, p2med)
	}
	if v1med > 600 {
		t.Errorf("V-1 median IAT = %vs, paper < 10 min", v1med)
	}
	if p2med < 3600 {
		t.Errorf("P-2 median IAT = %vs, paper > 1 hour for image-heavy sites", p2med)
	}
	for _, site := range r.SiteNames() {
		cdf := r.Sessions().SessionLengthCDF(site)
		if cdf == nil {
			continue
		}
		med, _ := cdf.Median()
		if med > 600 {
			t.Errorf("%s median session length = %vs, paper ~1 min", site, med)
		}
	}
}

// Fig. 13/14 calibration: video objects attract far more repeated
// same-user requests than image objects.
func TestAddictionMatchesPaper(t *testing.T) {
	r := getResults(t)
	video := r.Addiction().FracObjectsAbove("V-1", trace.CategoryVideo, 10)
	image := r.Addiction().FracObjectsAbove("P-1", trace.CategoryImage, 10)
	if video < 0.03 {
		t.Errorf("V-1 video objects >10 req/user = %v, paper >= 0.10", video)
	}
	if image > 0.05 {
		t.Errorf("P-1 image objects >10 req/user = %v, paper < 0.01", image)
	}
	if video <= image {
		t.Errorf("video addiction %v should exceed image %v", video, image)
	}
	// Some objects accumulate many more requests than users (Fig. 13).
	maxRatio := 0.0
	for _, p := range r.Addiction().Scatter("V-1", trace.CategoryVideo) {
		if ratio := float64(p.Requests) / float64(p.Users); ratio > maxRatio {
			maxRatio = ratio
		}
	}
	if maxRatio < 3 {
		t.Errorf("V-1 max requests/users ratio = %v, want repeated-access outliers", maxRatio)
	}
}

// Fig. 15/16 calibration: hit ratios in the paper's regime; response
// codes dominated by 200/206 with rare 304s.
func TestCachingMatchesPaper(t *testing.T) {
	r := getResults(t)
	for _, site := range r.SiteNames() {
		hr := r.Caching().WeightedHitRatio(site)
		if hr < 0.55 || hr > 0.995 {
			t.Errorf("%s weighted hit ratio = %v, paper 0.8-0.9 band", site, hr)
		}
		corr := r.Caching().PopularityHitCorrelation(site)
		if corr < 0.3 {
			t.Errorf("%s popularity-hit correlation = %v, paper > 0.9", site, corr)
		}
	}
	// Images cache at least as well as video (per-object medians).
	imgCDF := r.Caching().HitRatioCDF("V-2", trace.CategoryImage)
	vidCDF := r.Caching().HitRatioCDF("V-2", trace.CategoryVideo)
	if imgCDF != nil && vidCDF != nil {
		im, _ := imgCDF.Median()
		vm, _ := vidCDF.Median()
		if im < vm-0.05 {
			t.Errorf("V-2 image median hit ratio %v < video %v", im, vm)
		}
	}
	// Response codes: 200 dominates; 304 is a small fraction (incognito
	// prevalence); 403/416 rare.
	for _, site := range []string{"P-1", "S-1"} {
		if f := r.Caching().CodeFrac(site, trace.CategoryImage, 200); f < 0.7 {
			t.Errorf("%s image 200 share = %v", site, f)
		}
		if f := r.Caching().CodeFrac(site, trace.CategoryImage, 304); f > 0.2 {
			t.Errorf("%s image 304 share = %v, should be small", site, f)
		}
		if f := r.Caching().CodeFrac(site, trace.CategoryImage, 403); f > 0.05 {
			t.Errorf("%s image 403 share = %v", site, f)
		}
	}
	// Video range requests produce 206s.
	if f := r.Caching().CodeFrac("V-1", trace.CategoryVideo, 206); f < 0.3 {
		t.Errorf("V-1 video 206 share = %v, want substantial", f)
	}
}

// Figs. 8-10: the DTW clustering runs end-to-end and finds clusters with
// distinguishable shapes.
func TestClusteringRuns(t *testing.T) {
	r := getResults(t)
	tab, res, err := r.Fig08Clusters("V-2", trace.CategoryVideo)
	if err != nil {
		t.Skipf("not enough warm V-2 video series at this scale: %v", err)
	}
	if len(res.Clusters) == 0 {
		t.Fatal("no clusters")
	}
	var totalFrac float64
	for _, c := range res.Clusters {
		totalFrac += c.Frac
		if c.Size == 0 {
			t.Error("empty cluster")
		}
	}
	if math.Abs(totalFrac-1) > 1e-9 {
		t.Errorf("cluster fractions sum to %v", totalFrac)
	}
	if !strings.Contains(tab.String(), "cluster") {
		t.Error("table rendering")
	}
}

func TestAllFigureTablesRender(t *testing.T) {
	r := getResults(t)
	tables := r.AllFigureTables()
	if len(tables) < 16 {
		t.Fatalf("rendered %d tables, want >= 16", len(tables))
	}
	for i, tab := range tables {
		s := tab.String()
		if len(s) < 20 {
			t.Errorf("table %d suspiciously short: %q", i, s)
		}
	}
}

func TestNewStudyValidation(t *testing.T) {
	if _, err := NewStudy(Config{Scale: -1}); err == nil {
		t.Error("negative scale should error")
	}
}

func TestAnalyzeOnlySkipsCDN(t *testing.T) {
	study, err := NewStudy(Config{Seed: 3, Scale: 0.002, Salt: "x"})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := study.Generator().Generate()
	if err != nil {
		t.Fatal(err)
	}
	res, err := study.AnalyzeOnly(trace.NewSliceReader(recs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != int64(len(recs)) {
		t.Errorf("records = %d, want %d", res.Records, len(recs))
	}
	// Without replay there are no cache verdicts.
	if res.Caching().WeightedHitRatio("V-1") != 0 {
		t.Error("AnalyzeOnly should see no cache data")
	}
}

func TestStudyWeek(t *testing.T) {
	study, err := NewStudy(Config{Seed: 1, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	w := study.Week()
	if !w.Contains(w.Start.Add(time.Hour)) {
		t.Error("week window broken")
	}
}

func TestSiteNamesNonPaperSites(t *testing.T) {
	// Sites outside the paper's five sort lexically after them.
	week := timeutil.NewWeek(time.Date(2015, 10, 3, 0, 0, 0, 0, time.UTC))
	comp := analysis.NewComposition(0)
	for _, site := range []string{"Z-custom", "V-2", "A-custom"} {
		comp.Add(&trace.Record{
			Timestamp:  week.HourStart(0).Add(time.Minute),
			Publisher:  site,
			ObjectID:   1,
			FileType:   trace.FileJPG,
			ObjectSize: 10,
			UserID:     1,
			UserAgent:  "UA",
			Region:     timeutil.RegionEurope,
			StatusCode: 200,
		})
	}
	r := &Results{analyzers: map[string]analysis.Analyzer{"composition": comp}}
	got := r.SiteNames()
	want := []string{"V-2", "A-custom", "Z-custom"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SiteNames = %v, want %v", got, want)
		}
	}
}
