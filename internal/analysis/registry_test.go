package analysis

import (
	"slices"
	"testing"
	"time"

	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// Every analysis is declared once, complete, in the order the study
// folds them and the benchmark reports them.
func TestRegistryCoversEveryAnalysis(t *testing.T) {
	wantNames := []string{
		"addiction", "aging", "caching", "series", "composition", "devices",
		"popularity", "sessions", "sizes", "hourly", "weekseries",
	}
	var names []string
	seen := map[string]bool{}
	for _, d := range Registered() {
		if d.Name == "" || d.New == nil {
			t.Errorf("incomplete descriptor %+v", d)
		}
		if seen[d.Name] {
			t.Errorf("analyzer %q declared twice", d.Name)
		}
		seen[d.Name] = true
		names = append(names, d.Name)
	}
	if !slices.Equal(names, wantNames) {
		t.Errorf("registry = %v, want %v", names, wantNames)
	}
}

func TestRegistryCoversFigures1Through16(t *testing.T) {
	covered := map[int]bool{}
	for _, f := range CoveredFigures() {
		covered[f] = true
	}
	for f := 1; f <= 16; f++ {
		if !covered[f] {
			t.Errorf("figure %d not covered by any analyzer", f)
		}
	}
}

func TestForFiguresPrunes(t *testing.T) {
	descs, err := ForFigures([]int{3, 11})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, d := range descs {
		names[d.Name] = true
	}
	if !names["hourly"] || !names["sessions"] {
		t.Errorf("figures 3,11 should select hourly+sessions, got %v", names)
	}
	if len(names) != 2 {
		t.Errorf("figures 3,11 selected %v, want exactly 2 analyzers", names)
	}
}

func TestForFiguresAllWhenEmpty(t *testing.T) {
	descs, err := ForFigures(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(descs) != len(Registered()) {
		t.Errorf("nil figures selected %d of %d analyzers", len(descs), len(Registered()))
	}
}

func TestForFiguresRejectsUnknown(t *testing.T) {
	if _, err := ForFigures([]int{3, 99}); err == nil {
		t.Error("figure 99 should be rejected")
	}
	if _, err := ForFigures([]int{0}); err == nil {
		t.Error("figure 0 should be rejected")
	}
}

// TestDescriptorsConstructAndMerge exercises every registered analysis
// through the registry, as the study does: construct two one-descriptor
// folds, fold a record of its own site into each, merge — no panics, so
// every analyzer is keyed and adopts the constructor's concrete type.
func TestDescriptorsConstructAndMerge(t *testing.T) {
	week := timeutil.NewWeek(time.Date(2015, 10, 3, 0, 0, 0, 0, time.UTC))
	p := Params{Week: week, SessionTimeout: 10 * time.Minute}
	rec := &trace.Record{
		Timestamp:   week.HourStart(1).Add(time.Minute),
		Publisher:   "V-1",
		ObjectID:    7,
		FileType:    trace.FileMP4,
		ObjectSize:  1000,
		BytesServed: 1000,
		UserID:      3,
		UserAgent:   "UA",
		Region:      timeutil.RegionEurope,
		StatusCode:  200,
		Cache:       trace.CacheHit,
	}
	other := *rec
	other.Publisher = "P-1"
	for _, d := range Registered() {
		a, b := NewFold([]Descriptor{d}, p), NewFold([]Descriptor{d}, p)
		a.Add(rec)
		b.Add(&other)
		a.Merge(b)
		if a.Records() != 2 {
			t.Errorf("%s: merged fold holds %d records, want 2", d.Name, a.Records())
		}
	}
}
