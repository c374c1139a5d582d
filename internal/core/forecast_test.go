package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"trafficscope/internal/stats"
)

// syntheticDaily builds n hours of a noisy daily-seasonal series with
// the given hour-of-day profile and daily volume.
func syntheticDaily(rng *rand.Rand, profile [24]float64, daily float64, n int, noise float64) []float64 {
	var sum float64
	for _, v := range profile {
		sum += v
	}
	out := make([]float64, n)
	for i := range out {
		base := daily * profile[i%24] / sum
		out[i] = base * (1 + noise*rng.NormFloat64())
		if out[i] < 0 {
			out[i] = 0
		}
	}
	return out
}

// lastDay backtests forecast on series, holding out its last 24 hours.
func lastDay(series []float64, forecast func(train []float64, h int) []float64) forecastEntry {
	train, test := series[:len(series)-24], series[len(series)-24:]
	return backtest("", test, forecast(train, 24))
}

func TestSeasonalNaive(t *testing.T) {
	history := make([]float64, 72)
	for i := range history {
		history[i] = float64(i % 24)
	}
	for i, v := range seasonalNaive(history[:48], 30) {
		if v != float64(i%24) {
			t.Fatalf("forecast[%d] = %v", i, v)
		}
	}
	// A perfect periodic backtest has no error.
	if m := lastDay(history, seasonalNaive); m.rmse != 0 || m.mape != 0 {
		t.Errorf("periodic backtest: %+v", m)
	}
}

func TestHoltWintersLearnsSeasonality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	series := syntheticDaily(rng, typicalWebProfile, 24000, 7*24, 0.03)
	m := lastDay(series, holtWinters)
	if m.mape > 15 {
		t.Errorf("Holt-Winters MAPE = %v%%, want < 15%% on clean seasonal data", m.mape)
	}
	// It must beat a flat-mean "profile" (uniform) forecast.
	uniform := [24]float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	mu := lastDay(series, func(train []float64, h int) []float64 { return profileForecast(uniform, train, h) })
	if m.rmse >= mu.rmse {
		t.Errorf("Holt-Winters RMSE %v >= uniform profile %v", m.rmse, mu.rmse)
	}
}

func TestProfileForecaster(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	profile := typicalWebProfile
	series := syntheticDaily(rng, profile, 10000, 6*24, 0.02)
	m := lastDay(series, func(train []float64, h int) []float64 { return profileForecast(profile, train, h) })
	if m.mape > 10 {
		t.Errorf("matched profile MAPE = %v%%, want small", m.mape)
	}
	// The same data forecast with a *wrong* (anti-phase) profile is far
	// worse — the paper's point about adult traffic in standard models.
	var anti [24]float64
	for i, v := range profile {
		anti[(i+12)%24] = v
	}
	mAnti := lastDay(series, func(train []float64, h int) []float64 { return profileForecast(anti, train, h) })
	if mAnti.mape < 2*m.mape {
		t.Errorf("anti-phase profile MAPE %v should dwarf matched %v", mAnti.mape, m.mape)
	}
}

func TestBacktestErrors(t *testing.T) {
	m := backtest("m", []float64{10, 20}, []float64{12, 16})
	wantRMSE := math.Sqrt((4.0 + 16.0) / 2)
	if math.Abs(m.rmse-wantRMSE) > 1e-9 {
		t.Errorf("RMSE = %v, want %v", m.rmse, wantRMSE)
	}
	wantMAPE := (2.0/10 + 4.0/20) / 2 * 100
	if math.Abs(m.mape-wantMAPE) > 1e-9 {
		t.Errorf("MAPE = %v, want %v", m.mape, wantMAPE)
	}
	// Zero actuals are excluded from MAPE.
	if m2 := backtest("m", []float64{0, 10}, []float64{5, 10}); m2.mape != 0 {
		t.Errorf("MAPE over zero-only nonzero errors = %v", m2.mape)
	}
}

func TestForecastHorizonValidation(t *testing.T) {
	r := getResults(t)
	for _, h := range []int{0, -1, 121, 168} {
		if _, err := r.ForecastTable(h); err == nil {
			t.Errorf("horizon %d should error: Holt-Winters trains on two days of the week", h)
		}
	}
	for _, h := range []int{1, 120} {
		if _, err := r.ForecastTable(h); err != nil {
			t.Errorf("horizon %d: %v", h, err)
		}
	}
}

func TestForecastComparison(t *testing.T) {
	r := getResults(t)
	entries, err := r.forecastComparison("V-1", 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("got %d models, want 4", len(entries))
	}
	byModel := map[string]forecastEntry{}
	for _, e := range entries {
		byModel[e.model] = e
		if e.rmse < 0 {
			t.Errorf("%s: negative RMSE", e.model)
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
	if own.mape >= typical.mape {
		t.Errorf("site-measured profile MAPE %v >= typical-web %v; anti-diurnal mismatch not captured",
			own.mape, typical.mape)
	}
	if naive.mape >= typical.mape {
		t.Errorf("seasonal-naive MAPE %v >= typical-web profile %v",
			naive.mape, typical.mape)
	}
}

func TestForecastComparisonUnknownSite(t *testing.T) {
	r := getResults(t)
	if _, err := r.forecastComparison("no-such-site", 24); err == nil {
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
