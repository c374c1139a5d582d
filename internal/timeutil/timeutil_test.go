package timeutil

import (
	"testing"
	"time"
)

var weekStart = time.Date(2015, 10, 3, 0, 0, 0, 0, time.UTC) // a Saturday

func TestNewWeekTruncates(t *testing.T) {
	w := NewWeek(weekStart.Add(25*time.Minute + 3*time.Second))
	if !w.Start.Equal(weekStart) {
		t.Errorf("Start = %v, want %v", w.Start, weekStart)
	}
	if got := w.End(); !got.Equal(weekStart.Add(168 * time.Hour)) {
		t.Errorf("End = %v", got)
	}
}

func TestWeekContainsAndIndices(t *testing.T) {
	w := NewWeek(weekStart)
	tests := []struct {
		t        time.Time
		contains bool
		hour     int
	}{
		{weekStart, true, 0},
		{weekStart.Add(time.Hour - time.Nanosecond), true, 0},
		{weekStart.Add(25 * time.Hour), true, 25},
		{weekStart.Add(167*time.Hour + 59*time.Minute), true, 167},
		{weekStart.Add(-time.Nanosecond), false, -1},
		{weekStart.Add(168 * time.Hour), false, -1},
	}
	for _, tt := range tests {
		if got := w.Contains(tt.t); got != tt.contains {
			t.Errorf("Contains(%v) = %v, want %v", tt.t, got, tt.contains)
		}
		if tt.contains && (tt.t.Before(w.HourStart(tt.hour)) || !tt.t.Before(w.HourStart(tt.hour+1))) {
			t.Errorf("%v is not in hour %d [%v, %v)", tt.t, tt.hour, w.HourStart(tt.hour), w.HourStart(tt.hour+1))
		}
	}
}

func TestHourStartRoundTrip(t *testing.T) {
	w := NewWeek(weekStart)
	for _, h := range []int{0, 1, 100, 167} {
		if got := w.HourStart(h).Sub(w.Start); got != time.Duration(h)*time.Hour {
			t.Errorf("HourStart(%d) is %v into the week", h, got)
		}
	}
}

func TestRegionRoundTrip(t *testing.T) {
	for _, r := range AllRegions() {
		got, err := ParseRegion(r.String())
		if err != nil {
			t.Fatalf("ParseRegion(%q): %v", r.String(), err)
		}
		if got != r {
			t.Errorf("round trip %v -> %v", r, got)
		}
	}
	if _, err := ParseRegion("atlantis"); err == nil {
		t.Error("unknown region should error")
	}
	list, err := ParseRegions("north-america, south-america ,europe,asia")
	if err != nil || len(list) != NumRegions {
		t.Fatalf("ParseRegions = %v, %v", list, err)
	}
	for i, r := range AllRegions() {
		if list[i] != r {
			t.Errorf("ParseRegions[%d] = %v, want %v", i, list[i], r)
		}
	}
	for _, bad := range []string{"", "europe,", ",europe", "europe,,asia", "europe;asia", "atlantis"} {
		if _, err := ParseRegions(bad); err == nil {
			t.Errorf("ParseRegions(%q) should error", bad)
		}
	}
	if Region(99).String() == "" {
		t.Error("unknown region String should be nonempty")
	}
	if Region(99).UTCOffset() != 0 {
		t.Error("unknown region offset should be zero")
	}
}

func TestLocalHourOfDay(t *testing.T) {
	noonUTC := time.Date(2015, 10, 3, 12, 0, 0, 0, time.UTC)
	tests := []struct {
		r    Region
		want int
	}{
		{RegionNorthAmerica, 6}, // UTC-6
		{RegionSouthAmerica, 9}, // UTC-3
		{RegionEurope, 13},      // UTC+1
		{RegionAsia, 20},        // UTC+8
	}
	for _, tt := range tests {
		if got := LocalHourOfDay(noonUTC, tt.r); got != tt.want {
			t.Errorf("LocalHourOfDay(noon, %v) = %d, want %d", tt.r, got, tt.want)
		}
	}
	// Wraparound across midnight.
	lateUTC := time.Date(2015, 10, 3, 23, 0, 0, 0, time.UTC)
	if got := LocalHourOfDay(lateUTC, RegionAsia); got != 7 {
		t.Errorf("Asia wraparound = %d, want 7", got)
	}
}

func TestNumRegionsMatchesAllRegions(t *testing.T) {
	if len(AllRegions()) != NumRegions {
		t.Errorf("NumRegions = %d but AllRegions has %d", NumRegions, len(AllRegions()))
	}
}
