// Package timeutil provides the time bucketing and timezone handling used
// by the trace analyses: hour-of-week buckets, hour-of-day aggregation in
// the *user's local time* (the paper converts CDN timestamps to local
// timezones before computing hourly traffic curves), week alignment, and
// the cancellable sleep the serving and load-generation tiers share.
package timeutil

import (
	"context"
	"fmt"
	"strings"
	"time"
)

// HoursPerWeek is the number of hourly buckets in a one-week trace.
const HoursPerWeek = 7 * 24

// Region identifies the coarse geographic region a request originates
// from. The paper's trace covers users in four continents; regions carry a
// fixed UTC offset used to convert timestamps to local time. (Real traces
// would use per-user timezone databases; a fixed representative offset per
// region preserves the hour-of-day analysis behaviour.)
type Region uint8

// The four continents covered by the trace.
const (
	RegionNorthAmerica Region = iota + 1
	RegionSouthAmerica
	RegionEurope
	RegionAsia
)

// NumRegions is the number of defined regions.
const NumRegions = 4

// String returns the region name.
func (r Region) String() string {
	switch r {
	case RegionNorthAmerica:
		return "north-america"
	case RegionSouthAmerica:
		return "south-america"
	case RegionEurope:
		return "europe"
	case RegionAsia:
		return "asia"
	default:
		return fmt.Sprintf("region(%d)", int(r))
	}
}

// UTCOffset returns the representative UTC offset for the region.
func (r Region) UTCOffset() time.Duration {
	switch r {
	case RegionNorthAmerica:
		return -6 * time.Hour // central
	case RegionSouthAmerica:
		return -3 * time.Hour
	case RegionEurope:
		return 1 * time.Hour
	case RegionAsia:
		return 8 * time.Hour
	default:
		return 0
	}
}

// ParseRegion parses a region name produced by Region.String.
func ParseRegion(s string) (Region, error) {
	switch s {
	case "north-america":
		return RegionNorthAmerica, nil
	case "south-america":
		return RegionSouthAmerica, nil
	case "europe":
		return RegionEurope, nil
	case "asia":
		return RegionAsia, nil
	default:
		return 0, fmt.Errorf("timeutil: unknown region %q", s)
	}
}

// ParseRegions parses a comma-separated region list ("europe",
// "north-america, south-america"): the one grammar behind tsserve -dc,
// tsrouter -backend and each tscluster -dcs group. Blanks around a name
// are trimmed; an empty name is an error.
func ParseRegions(s string) ([]Region, error) {
	parts := strings.Split(s, ",")
	out := make([]Region, len(parts))
	for i, part := range parts {
		r, err := ParseRegion(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// RegionNames returns the regions' names, the inverse of ParseRegions
// once joined with commas.
func RegionNames(regions []Region) []string {
	names := make([]string, len(regions))
	for i, r := range regions {
		names[i] = r.String()
	}
	return names
}

// AllRegions returns the defined regions in order.
func AllRegions() []Region {
	return []Region{RegionNorthAmerica, RegionSouthAmerica, RegionEurope, RegionAsia}
}

// LocalHourOfDay converts a UTC timestamp to the region's local time and
// returns the hour of day in [0, 24).
func LocalHourOfDay(utc time.Time, r Region) int {
	return utc.Add(r.UTCOffset()).UTC().Hour()
}

// Week is a one-week observation window starting at Start (UTC). The
// paper's trace is one week of logs; analyses bucket into its 168 hours.
type Week struct {
	Start time.Time
}

// NewWeek returns a week starting at start truncated to the hour, in UTC.
func NewWeek(start time.Time) Week {
	return Week{Start: start.UTC().Truncate(time.Hour)}
}

// End returns the exclusive end of the window.
func (w Week) End() time.Time { return w.Start.Add(HoursPerWeek * time.Hour) }

// Contains reports whether t falls inside the window.
func (w Week) Contains(t time.Time) bool {
	t = t.UTC()
	return !t.Before(w.Start) && t.Before(w.End())
}

// HourStart returns the start time of the given hour-of-week bucket.
func (w Week) HourStart(hour int) time.Time {
	return w.Start.Add(time.Duration(hour) * time.Hour)
}

// SleepCtx sleeps d, returning false if ctx was cancelled first.
func SleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
