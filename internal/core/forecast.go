package core

import (
	"fmt"

	"trafficscope/internal/forecast"
	"trafficscope/internal/report"
)

// ForecastEntry is one model's backtest result for one site.
type ForecastEntry struct {
	// Model names the forecaster.
	Model string
	// Metrics carries the backtest error.
	Metrics forecast.Metrics
}

// ForecastComparison backtests hourly traffic forecasters on one site's
// hour-of-week series over the final horizon hours. It quantifies the
// paper's §IV-A implication: a forecasting model calibrated to typical
// diurnal web traffic mispredicts adult traffic badly, while seasonal
// models fit to the site's own data (or the site's own measured hourly
// profile) do far better.
func (r *Results) ForecastComparison(site string, horizon int) ([]ForecastEntry, error) {
	if r.WeekSeries() == nil {
		return nil, fmt.Errorf("core: week-series analysis not part of this run")
	}
	series := r.WeekSeries().Series(site)
	if len(series) == 0 {
		return nil, fmt.Errorf("core: no hour-of-week series for site %q", site)
	}
	if horizon <= 0 {
		horizon = 24
	}

	// The site's own measured hour-of-day profile from the training
	// prefix only (no test leakage).
	train := series[:len(series)-horizon]
	var ownProfile [24]float64
	for h, v := range train {
		ownProfile[h%24] += v
	}

	models := []forecast.Forecaster{}
	if sn, err := forecast.NewSeasonalNaive(24); err == nil {
		models = append(models, sn)
	}
	if hw, err := forecast.NewHoltWinters(24, 0.3, 0.02, 0.3); err == nil {
		models = append(models, hw)
	}
	if pf, err := forecast.NewProfileForecaster(forecast.TypicalWebProfile(), "typical-web"); err == nil {
		models = append(models, pf)
	}
	if pf, err := forecast.NewProfileForecaster(ownProfile, "site-measured"); err == nil {
		models = append(models, pf)
	}

	out := make([]ForecastEntry, 0, len(models))
	for _, m := range models {
		metrics, err := forecast.Backtest(m, series, horizon)
		if err != nil {
			return nil, fmt.Errorf("core: backtest %s on %s: %w", m.Name(), site, err)
		}
		out = append(out, ForecastEntry{Model: m.Name(), Metrics: metrics})
	}
	return out, nil
}

// ForecastTable renders the ForecastComparison of every site as a table.
func (r *Results) ForecastTable(horizon int) (*report.Table, error) {
	t := report.NewTable(
		fmt.Sprintf("traffic forecasting backtest (last %dh)", horizon),
		"site", "model", "MAPE %", "RMSE", "vs typical-web")
	for _, site := range r.SiteNames() {
		entries, err := r.ForecastComparison(site, horizon)
		if err != nil {
			continue // sites absent from the trace
		}
		var typicalRMSE float64
		for _, e := range entries {
			if e.Model == "profile(typical-web)" {
				typicalRMSE = e.Metrics.RMSE
			}
		}
		for _, e := range entries {
			improvement := "-"
			if typicalRMSE > 0 && e.Model != "profile(typical-web)" {
				improvement = report.Percent(1 - e.Metrics.RMSE/typicalRMSE)
			}
			t.AddRow(site, e.Model, e.Metrics.MAPE, e.Metrics.RMSE, improvement)
		}
	}
	return t, nil
}
