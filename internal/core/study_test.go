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
