package core

import (
	"strings"
	"testing"

	"trafficscope/internal/stats"
)

func TestForecastComparison(t *testing.T) {
	r := getResults(t)
	entries, err := r.ForecastComparison("V-1", 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("got %d models, want 4", len(entries))
	}
	byModel := map[string]ForecastEntry{}
	for _, e := range entries {
		byModel[e.Model] = e
		if e.Metrics.RMSE < 0 {
			t.Errorf("%s: negative RMSE", e.Model)
		}
	}
	typical, ok1 := byModel["profile(typical-web)"]
	own, ok2 := byModel["profile(site-measured)"]
	naive, ok3 := byModel["seasonal-naive"]
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("missing expected models: %v", byModel)
	}
	// The paper's implication: V-1 is anti-diurnal, so a typical-web
	// profile must forecast it markedly worse (phase error, measured by
	// MAPE) than the site's own measured profile or a seasonal model
	// fit to its data.
	if own.Metrics.MAPE >= typical.Metrics.MAPE {
		t.Errorf("site-measured profile MAPE %v >= typical-web %v; anti-diurnal mismatch not captured",
			own.Metrics.MAPE, typical.Metrics.MAPE)
	}
	if naive.Metrics.MAPE >= typical.Metrics.MAPE {
		t.Errorf("seasonal-naive MAPE %v >= typical-web profile %v",
			naive.Metrics.MAPE, typical.Metrics.MAPE)
	}
}

func TestForecastComparisonUnknownSite(t *testing.T) {
	r := getResults(t)
	if _, err := r.ForecastComparison("no-such-site", 24); err == nil {
		t.Error("unknown site should error")
	}
}

func TestForecastTableRenders(t *testing.T) {
	r := getResults(t)
	tab, err := r.ForecastTable(24)
	if err != nil {
		t.Fatal(err)
	}
	s := tab.String()
	if !strings.Contains(s, "seasonal-naive") || !strings.Contains(s, "V-1") {
		t.Errorf("table missing content:\n%s", s)
	}
}

func TestHourOfDayProfile(t *testing.T) {
	r := getResults(t)
	var p [24]float64
	for h, v := range r.WeekSeries().Series("V-1") {
		p[h%24] += v
	}
	copy(p[:], stats.Normalize(p[:]))
	var sum float64
	for _, v := range p {
		if v < 0 {
			t.Fatal("negative profile entry")
		}
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("profile sums to %v", sum)
	}
	// V-1's profile is anti-diurnal: night hours outweigh mid-day.
	night := p[23] + p[0] + p[1] + p[2] + p[3] + p[4] + p[5]
	day := p[9] + p[10] + p[11] + p[12] + p[13] + p[14] + p[15]
	if night <= day {
		t.Errorf("V-1 profile night %v <= day %v", night, day)
	}
}
