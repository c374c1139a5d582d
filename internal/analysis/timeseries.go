package analysis

import (
	"trafficscope/internal/stats"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// HourlyVolume accumulates Fig. 3: each site's hourly traffic-volume
// time series, bucketed by the *user's local* hour of day ("We converted
// the timestamps to local timezones to calculate hourly traffic
// volumes"). Volume is requested bytes.
type HourlyVolume struct {
	perSite[[24]float64]
}

// newHourlyVolume creates an empty accumulator.
func newHourlyVolume() *HourlyVolume { return &HourlyVolume{} }

// Add folds one record.
func (h *HourlyVolume) Add(r *trace.Record) { h.add(r, h.resolve(r)) }

func (h *HourlyVolume) add(r *trace.Record, k *recKey) {
	h.site(k.site)[k.localHour] += float64(r.ObjectSize)
}

// Percent returns the site's hourly volume as percentages of its daily
// total (the paper's y-axis, "Percentage Traffic Volume").
func (h *HourlyVolume) Percent(site string) [24]float64 {
	var out [24]float64
	_, buckets := h.find(site)
	if buckets == nil {
		return out
	}
	norm := stats.Normalize(buckets[:])
	for i, v := range norm {
		out[i] = v * 100
	}
	return out
}

// PeakHour returns the local hour with the highest volume share.
func (h *HourlyVolume) PeakHour(site string) int {
	p := h.Percent(site)
	best, bestV := 0, -1.0
	for i, v := range p {
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// TroughHour returns the local hour with the lowest volume share.
func (h *HourlyVolume) TroughHour(site string) int {
	p := h.Percent(site)
	best, bestV := 0, -1.0
	for i, v := range p {
		if bestV < 0 || v < bestV {
			best, bestV = i, v
		}
	}
	return best
}

// HourOfWeekSeries accumulates each site's requests per hour of the
// trace week; it feeds the clustering analyses, the Fig. 3 diagnostics
// and the forecasting backtests. Each request lands in the *client's
// local* hour of week (wrapped at the week boundary), which is the
// series a regional operator forecasts against.
type HourOfWeekSeries struct {
	perSite[[timeutil.HoursPerWeek]float64]
}

// newHourOfWeekSeries creates an accumulator over the given week.
func newHourOfWeekSeries(week timeutil.Week) *HourOfWeekSeries {
	h := &HourOfWeekSeries{}
	h.week = week
	return h
}

// Add folds one record; records outside the week are ignored.
func (h *HourOfWeekSeries) Add(r *trace.Record) { h.add(r, h.resolve(r)) }

func (h *HourOfWeekSeries) add(r *trace.Record, k *recKey) {
	if k.hour < 0 {
		return
	}
	shift := int(r.Region.UTCOffset().Hours())
	idx := ((int(k.hour)+shift)%timeutil.HoursPerWeek + timeutil.HoursPerWeek) % timeutil.HoursPerWeek
	h.site(k.site)[idx]++
}

// Series returns the site's hour-of-week request counts.
func (h *HourOfWeekSeries) Series(site string) []float64 {
	_, buckets := h.find(site)
	if buckets == nil {
		return nil
	}
	out := make([]float64, timeutil.HoursPerWeek)
	copy(out, buckets[:])
	return out
}
