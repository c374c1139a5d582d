package analysis

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// adoptAlone merges two stand-alone analyzers the way Fold.Merge merges
// a fold's: src's sites join dst's keyspace and their state moves over.
func adoptAlone[A interface {
	keyed
	keys() *keyspace
}](dst, src A) {
	dst.adopt(src, dst.keys().adopt(src.keys()))
}

// TestFoldMerge directly exercises the composite accumulator merge used
// by the parallel analysis pass: each fold holds its own sites, as the
// pipeline routes them, and the merge adopts them.
func TestFoldMerge(t *testing.T) {
	mk := func(site string, obj, user uint64, hour int) *trace.Record {
		return &trace.Record{
			Timestamp:   week.HourStart(hour).Add(time.Minute),
			Publisher:   site,
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
	a.Add(mk("V-1", 1, 1, 0))
	a.Add(mk("V-1", 1, 2, 1))
	a.Add(mk("V-1", 2, 1, 2))
	b.Add(mk("P-1", 2, 1, 2))
	b.Add(mk("P-1", 2, 3, 3))
	a.Merge(b)
	if a.Records() != 5 {
		t.Errorf("merged n = %d, want 5", a.Records())
	}
	byName := a.Analyzers()
	comp := byName["composition"].(*Composition)
	for _, c := range []struct {
		site              string
		requests, objects int64
		sessions          int
	}{{"V-1", 3, 2, 3}, {"P-1", 2, 1, 2}} {
		if got := comp.Site(c.site).TotalRequests(); got != c.requests {
			t.Errorf("%s: merged requests = %d, want %d", c.site, got, c.requests)
		}
		if got := comp.Site(c.site).TotalObjects(); got != c.objects {
			t.Errorf("%s: merged objects = %d, want %d", c.site, got, c.objects)
		}
		if got := byName["caching"].(*Caching).WeightedHitRatio(c.site); got != 1 {
			t.Errorf("%s: merged hit ratio = %v", c.site, got)
		}
		if got := len(byName["sessions"].(*Sessions).SessionsOf(c.site)); got != c.sessions {
			t.Errorf("%s: merged sessions = %d, want %d", c.site, got, c.sessions)
		}
	}
}

// Merging two folds that hold the same publisher is a programming error
// (the pipeline folds each publisher on one worker) that Merge reports,
// naming the publisher.
func TestFoldMergeRejectsSharedSite(t *testing.T) {
	a, b := NewFold(Registered(), Params{Week: week}), NewFold(Registered(), Params{Week: week})
	a.Add(rec("V-1", 1, 1, trace.FileMP4, 100, 0))
	b.Add(rec("P-1", 2, 2, trace.FileJPG, 10, 1))
	b.Add(rec("V-1", 3, 3, trace.FileMP4, 100, 2))
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, `"V-1"`) {
			t.Errorf("panic %q does not name the shared site V-1", msg)
		}
	}()
	a.Merge(b)
}

// Merging folds of different analyzer sets is a programming error that
// Merge reports, naming both sets.
func TestFoldMergeRejectsOtherDescriptors(t *testing.T) {
	comp, sizes := descriptor(t, "composition"), descriptor(t, "sizes")
	a, b := NewFold([]Descriptor{comp}, Params{Week: week}), NewFold([]Descriptor{comp, sizes}, Params{Week: week})
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "[composition sizes]") || !strings.Contains(msg, "[composition]") {
			t.Errorf("panic %q does not name both descriptor sets", msg)
		}
	}()
	a.Merge(b)
}

// descriptor looks up one registered descriptor.
func descriptor(t *testing.T, name string) Descriptor {
	t.Helper()
	for _, d := range Registered() {
		if d.Name == name {
			return d
		}
	}
	t.Fatalf("no analyzer %q registered", name)
	return Descriptor{}
}
