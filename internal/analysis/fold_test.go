package analysis

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// TestFoldMerge directly exercises the composite accumulator merge used
// by the parallel analysis pass.
func TestFoldMerge(t *testing.T) {
	mk := func(obj, user uint64, hour int) *trace.Record {
		return &trace.Record{
			Timestamp:   week.HourStart(hour).Add(time.Minute),
			Publisher:   "V-1",
			ObjectID:    obj,
			FileType:    trace.FileMP4,
			ObjectSize:  1000,
			BytesServed: 1000,
			UserID:      user,
			UserAgent:   "UA",
			Region:      timeutil.RegionEurope,
			StatusCode:  200,
			Cache:       trace.CacheHit,
		}
	}
	p := Params{Week: week}
	a := NewFold(Registered(), p)
	b := NewFold(Registered(), p)
	a.Add(mk(1, 1, 0))
	a.Add(mk(1, 2, 1))
	b.Add(mk(2, 1, 2))
	b.Add(mk(2, 3, 3))
	a.Merge(b)
	if a.Records() != 4 {
		t.Errorf("merged n = %d, want 4", a.Records())
	}
	byName := a.Analyzers()
	comp := byName["composition"].(*Composition)
	if got := comp.Site("V-1").TotalRequests(); got != 4 {
		t.Errorf("merged requests = %d", got)
	}
	if got := comp.Site("V-1").TotalObjects(); got != 2 {
		t.Errorf("merged objects = %d", got)
	}
	if got := byName["caching"].(*Caching).WeightedHitRatio("V-1"); got != 1 {
		t.Errorf("merged hit ratio = %v", got)
	}
	if got := len(byName["sessions"].(*Sessions).SessionsOf("V-1")); got != 4 {
		t.Errorf("merged sessions = %d, want 4 (user 1 twice, two hours apart)", got)
	}
}

// Merging folds of different analyzer sets is a programming error that
// Merge reports, naming both sets.
func TestFoldMergeRejectsOtherDescriptors(t *testing.T) {
	comp, _ := ByName("composition")
	sizes, _ := ByName("sizes")
	a, b := NewFold([]Descriptor{comp}, Params{Week: week}), NewFold([]Descriptor{comp, sizes}, Params{Week: week})
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "[composition sizes]") || !strings.Contains(msg, "[composition]") {
			t.Errorf("panic %q does not name both descriptor sets", msg)
		}
	}()
	a.Merge(b)
}
