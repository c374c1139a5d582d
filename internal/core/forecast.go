package core

import (
	"fmt"
	"math"

	"trafficscope/internal/report"
	"trafficscope/internal/stats"
	"trafficscope/internal/timeutil"
)

// The forecasting backtest quantifies the paper's §IV-A implication:
// "it is important for network operators to separately account for
// adult traffic in the traffic forecasting models". Each forecaster
// below predicts the h hours after an hourly training series; a
// typical-web diurnal profile models an operator who has not
// characterized adult traffic separately.

// season is the period of every forecaster: hourly data, daily cycle.
const season = 24

// seasonalNaive repeats the last observed day: the baseline every
// forecasting study must beat. train holds at least one season.
func seasonalNaive(train []float64, h int) []float64 {
	last := train[len(train)-season:]
	out := make([]float64, h)
	for i := range out {
		out[i] = last[i%season]
	}
	return out
}

// holtWinters is additive triple exponential smoothing (level, trend
// and a daily seasonal component) with smoothing parameters 0.3, 0.02
// and 0.3. train holds at least two seasons.
func holtWinters(train []float64, h int) []float64 {
	alpha, beta, gamma := 0.3, 0.02, 0.3
	// Initialize level and trend from the first two seasonal means and
	// the seasonal indices from first-season deviations.
	mean1 := stats.Mean(train[:season])
	mean2 := stats.Mean(train[season : 2*season])
	level := mean1
	trend := (mean2 - mean1) / float64(season)
	seasonal := make([]float64, season)
	for i := range seasonal {
		seasonal[i] = train[i] - mean1
	}
	// Run the smoothing recursions over the rest of the history.
	for t := season; t < len(train); t++ {
		x := train[t]
		si := t % season
		prevLevel := level
		level = alpha*(x-seasonal[si]) + (1-alpha)*(level+trend)
		trend = beta*(level-prevLevel) + (1-beta)*trend
		seasonal[si] = gamma*(x-level) + (1-gamma)*seasonal[si]
	}
	out := make([]float64, h)
	for i := range out {
		out[i] = level + float64(i+1)*trend + seasonal[i%season]
		if out[i] < 0 {
			out[i] = 0
		}
	}
	return out
}

// profileForecast scales a fixed hour-of-day profile (normalized here;
// its sum must be positive) to train's mean daily volume. train holds
// at least one day and starts at hour 0 of a day.
func profileForecast(profile [24]float64, train []float64, h int) []float64 {
	var sum float64
	for _, v := range profile {
		sum += v
	}
	for i, v := range profile {
		profile[i] = v / sum
	}
	days := len(train) / 24
	daily := stats.Sum(train[:days*24]) / float64(days)
	start := len(train) % 24
	out := make([]float64, h)
	for i := range out {
		out[i] = daily * profile[(start+i)%24]
	}
	return out
}

// typicalWebProfile is the canonical non-adult diurnal curve of prior
// literature (content access peaks 7-11 pm, troughs late night and
// early morning) that the paper contrasts adult traffic against.
var typicalWebProfile = [24]float64{
	2.2, 1.8, 1.5, 1.3, 1.2, 1.3, 1.6, 2.2, 3.0, 3.6, 4.0, 4.3,
	4.5, 4.6, 4.7, 4.8, 5.0, 5.4, 6.0, 6.8, 7.4, 7.6, 7.0, 5.2,
}

// forecastEntry is one model's backtest error on one site.
type forecastEntry struct {
	model string
	rmse  float64 // root-mean-squared error
	mape  float64 // mean absolute percentage error over nonzero actuals, in percent
}

// backtest scores a model's predictions against the actual series.
func backtest(model string, actual, predicted []float64) forecastEntry {
	var se, ape float64
	var apeN int
	for i := range actual {
		d := predicted[i] - actual[i]
		se += d * d
		if actual[i] != 0 {
			ape += math.Abs(d) / math.Abs(actual[i])
			apeN++
		}
	}
	e := forecastEntry{model: model, rmse: math.Sqrt(se / float64(len(actual)))}
	if apeN > 0 {
		e.mape = ape / float64(apeN) * 100
	}
	return e
}

// forecastComparison backtests every forecaster on one site's
// hour-of-week series, trained on all but the last horizon hours and
// scored on those: a profile calibrated to typical diurnal web traffic
// mispredicts adult traffic badly, while seasonal models fit to the
// site's own data (or the site's own measured hourly profile, taken
// from the training hours only) do far better.
func (r *Results) forecastComparison(site string, horizon int) ([]forecastEntry, error) {
	series := r.WeekSeries().Series(site)
	if len(series) == 0 {
		return nil, fmt.Errorf("core: no hour-of-week series for site %q", site)
	}
	train, test := series[:len(series)-horizon], series[len(series)-horizon:]
	var own [24]float64
	for h, v := range train {
		own[h%24] += v
	}
	out := []forecastEntry{
		backtest("seasonal-naive", test, seasonalNaive(train, horizon)),
		backtest("holt-winters", test, holtWinters(train, horizon)),
		backtest("profile(typical-web)", test, profileForecast(typicalWebProfile, train, horizon)),
	}
	if stats.Sum(own[:]) > 0 {
		out = append(out, backtest("profile(site-measured)", test, profileForecast(own, train, horizon)))
	}
	return out, nil
}

// ForecastTable renders the forecasting backtest of every site over the
// week's last horizon hours. Holt-Winters needs two days to train on,
// so horizon lies in [1, 120].
func (r *Results) ForecastTable(horizon int) (*report.Table, error) {
	if r.WeekSeries() == nil {
		return nil, fmt.Errorf("core: week-series analysis not part of this run")
	}
	if horizon < 1 || horizon > timeutil.HoursPerWeek-2*season {
		return nil, fmt.Errorf("core: forecast horizon %dh outside [1, %d]", horizon, timeutil.HoursPerWeek-2*season)
	}
	t := report.NewTable(
		fmt.Sprintf("traffic forecasting backtest (last %dh)", horizon),
		"site", "model", "MAPE %", "RMSE", "vs typical-web")
	for _, site := range r.SiteNames() {
		entries, err := r.forecastComparison(site, horizon)
		if err != nil {
			continue // sites absent from the trace
		}
		typicalRMSE := entries[2].rmse // profile(typical-web)
		for _, e := range entries {
			improvement := "-"
			if typicalRMSE > 0 && e.model != "profile(typical-web)" {
				improvement = report.Percent(1 - e.rmse/typicalRMSE)
			}
			t.AddRow(site, e.model, e.mape, e.rmse, improvement)
		}
	}
	return t, nil
}
