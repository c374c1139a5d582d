package crawler

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"trafficscope/internal/synth"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

var week = timeutil.NewWeek(time.Date(2015, 10, 3, 0, 0, 0, 0, time.UTC))

// mkRecs builds n requests for object obj spread evenly over the week.
func mkRecs(site string, obj uint64, n int) []*trace.Record {
	out := make([]*trace.Record, n)
	span := week.End().Sub(week.Start)
	for i := range out {
		out[i] = &trace.Record{
			Timestamp:   week.Start.Add(time.Duration(i+1) * span / time.Duration(n+2)),
			Publisher:   site,
			ObjectID:    obj,
			FileType:    trace.FileJPG,
			ObjectSize:  100,
			BytesServed: 100,
			UserID:      uint64(i),
			UserAgent:   "UA",
			Region:      timeutil.RegionEurope,
			StatusCode:  200,
		}
	}
	return out
}

func merge(parts ...[]*trace.Record) []*trace.Record {
	var out []*trace.Record
	for _, p := range parts {
		out = append(out, p...)
	}
	trace.SortByTime(out)
	return out
}

// simulate crawls recs and returns site's campaign.
func simulate(t *testing.T, recs []*trace.Record, site string, cfg Config) *Campaign {
	t.Helper()
	camps, err := Simulate(trace.NewSliceReader(recs), week, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return camps.Site(site)
}

func TestSimulateDailyCrawl(t *testing.T) {
	recs := merge(mkRecs("P-1", 1, 70), mkRecs("P-1", 2, 14))
	camp := simulate(t, recs, "P-1", Config{Interval: 24 * time.Hour})
	if len(camp.Snapshots) != 7 {
		t.Fatalf("snapshots = %d, want 7", len(camp.Snapshots))
	}
	// Cumulative counts must be nondecreasing.
	var prev int64
	for i, snap := range camp.Snapshots {
		n := snap.Views[1]
		if n < prev {
			t.Fatalf("snapshot %d: views decreased %d -> %d", i, prev, n)
		}
		prev = n
	}
	final := camp.FinalViews()
	if final[1] != 70 || final[2] != 14 {
		t.Errorf("final views = %v", final)
	}
}

func TestSimulateTopNCensoring(t *testing.T) {
	recs := merge(mkRecs("P-1", 1, 100), mkRecs("P-1", 2, 50), mkRecs("P-1", 3, 5))
	camp := simulate(t, recs, "P-1", Config{Interval: 24 * time.Hour, TopN: 2})
	final := camp.FinalViews()
	if len(final) != 2 {
		t.Fatalf("topN=2 final views = %v", final)
	}
	if _, ok := final[3]; ok {
		t.Error("tail object should be censored")
	}
}

func TestSimulateValidation(t *testing.T) {
	recs := mkRecs("P-1", 1, 5)
	if _, err := Simulate(trace.NewSliceReader(recs), week, Config{Interval: time.Second}); err == nil {
		t.Error("sub-minute interval should error")
	}
	if _, err := Simulate(trace.NewSliceReader(recs), week, Config{Interval: 30 * 24 * time.Hour}); err == nil {
		t.Error("interval longer than window should error")
	}
}

// A request older than a snapshot its site already published would be
// missing from that snapshot's counts; the simulation must refuse the
// trace and say how to fix it, not publish a wrong campaign.
func TestSimulateRejectsUnsortedTrace(t *testing.T) {
	recs := merge(mkRecs("P-1", 1, 70), mkRecs("V-1", 2, 70))
	last := len(recs) - 1
	recs[0], recs[last] = recs[last], recs[0]
	_, err := Simulate(trace.NewSliceReader(recs), week, Config{Interval: 24 * time.Hour})
	if err == nil || !strings.Contains(err.Error(), "trace.NewSpool") {
		t.Fatalf("unsorted trace: err = %v, want one naming trace.NewSpool", err)
	}
	// Disorder that crosses no crawl instant changes no snapshot.
	recs = mkRecs("P-1", 1, 70)
	recs[0], recs[1] = recs[1], recs[0]
	if got := simulate(t, recs, "P-1", Config{Interval: 24 * time.Hour}).FinalViews()[1]; got != 70 {
		t.Errorf("final views = %d, want 70", got)
	}
}

func TestSimulateIgnoresOtherSites(t *testing.T) {
	recs := merge(mkRecs("P-1", 1, 10), mkRecs("V-1", 2, 99))
	final := simulate(t, recs, "P-1", Config{}).FinalViews()
	if _, ok := final[2]; ok {
		t.Error("other site's object leaked into the crawl")
	}
	if final[1] != 10 {
		t.Errorf("views = %v", final)
	}
}

// siteReader passes through one publisher's records.
type siteReader struct {
	r    trace.Reader
	site string
}

func (s siteReader) Read(rec *trace.Record) error {
	for {
		if err := s.r.Read(rec); err != nil || rec.Publisher == s.site {
			return err
		}
	}
}

// One read of the whole trace must build, for every publisher, exactly
// the campaign a read of that publisher's records alone builds.
func TestSimulateAllSitesMatchesPerSite(t *testing.T) {
	g, err := synth.NewGenerator(synth.Config{Seed: 5, Scale: 0.004, Salt: "crawl"})
	if err != nil {
		t.Fatal(err)
	}
	generated, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	// L-1's first request comes on day three: its campaign must still
	// open with the two empty snapshots the crawler took before that.
	late := mkRecs("L-1", 9, 40)
	for i, r := range late {
		r.Timestamp = week.Start.Add(54*time.Hour + time.Duration(i)*time.Hour)
	}
	handBuilt := merge(mkRecs("P-1", 1, 70), mkRecs("V-1", 2, 30), late)

	for _, tc := range []struct {
		name  string
		recs  []*trace.Record
		week  timeutil.Week
		sites int
	}{
		{"generated", generated, g.Week(), 5},
		{"late-starting site", handBuilt, week, 3},
	} {
		for _, cfg := range []Config{{Interval: 24 * time.Hour, TopN: 20}, {Interval: 6 * time.Hour}} {
			all, err := Simulate(trace.NewSliceReader(tc.recs), tc.week, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sites := all.Sites()
			if len(sites) != tc.sites {
				t.Fatalf("%s: sites = %v, want %d", tc.name, sites, tc.sites)
			}
			for _, site := range append(sites, "absent") {
				one, err := Simulate(siteReader{trace.NewSliceReader(tc.recs), site}, tc.week, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, want := all.Site(site), one.Site(site)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s, %+v, site %s: campaign from the whole trace differs from the campaign from its own records", tc.name, cfg, site)
				}
				if want := int(7 * 24 * time.Hour / cfg.Interval); len(got.Snapshots) != want {
					t.Errorf("%s, %+v, site %s: %d snapshots, want %d", tc.name, cfg, site, len(got.Snapshots), want)
				}
			}
		}
	}
	camp := simulate(t, handBuilt, "L-1", Config{Interval: 24 * time.Hour})
	for i, snap := range camp.Snapshots {
		if want := i >= 2; (len(snap.Views) > 0) != want {
			t.Errorf("L-1 snapshot %d (%v): views %v, want non-empty = %v", i, snap.Time, snap.Views, want)
		}
	}
	if n := camp.FinalViews()[9]; n != 40 {
		t.Errorf("L-1 final views = %d, want 40", n)
	}
}

func TestViewDeltaSeries(t *testing.T) {
	recs := mkRecs("P-1", 1, 70) // even spread -> ~10/day
	camp := simulate(t, recs, "P-1", Config{Interval: 24 * time.Hour})
	if len(camp.Snapshots) != 7 {
		t.Fatalf("%d snapshots, want 7", len(camp.Snapshots))
	}
	// Cumulative views never fall, so every per-interval delta is
	// non-negative and the deltas sum to the final count.
	var prev int64
	for i, snap := range camp.Snapshots {
		n := snap.Views[1]
		if n < prev {
			t.Fatalf("snapshot %d: %d views after %d (negative delta)", i, n, prev)
		}
		prev = n
		// Unknown object: never visible.
		if _, ok := snap.Views[999]; ok {
			t.Fatalf("snapshot %d shows an unknown object", i)
		}
	}
	if prev != 70 {
		t.Errorf("delta sum = %v, want 70", prev)
	}
}

func TestCompare(t *testing.T) {
	recs := merge(mkRecs("P-1", 1, 100), mkRecs("P-1", 2, 50), mkRecs("P-1", 3, 5))
	camp := simulate(t, recs, "P-1", Config{Interval: 24 * time.Hour, TopN: 2})
	truth := map[uint64]int64{1: 100, 2: 50, 3: 5}
	cmp := Compare(camp, truth)
	if cmp.LogObjects != 3 || cmp.CrawlObjects != 2 {
		t.Errorf("object counts: %d/%d", cmp.LogObjects, cmp.CrawlObjects)
	}
	if math.Abs(cmp.Coverage-2.0/3) > 1e-9 {
		t.Errorf("coverage = %v", cmp.Coverage)
	}
	if math.Abs(cmp.ViewUndercount-5.0/155) > 1e-9 {
		t.Errorf("undercount = %v", cmp.ViewUndercount)
	}
	if cmp.RankCorrelation < 0.99 {
		t.Errorf("rank correlation = %v, want ~1 for consistent counts", cmp.RankCorrelation)
	}
	if cmp.TemporalPoints != 7 {
		t.Errorf("temporal points = %d", cmp.TemporalPoints)
	}
	if cmp.UserVisibility {
		t.Error("crawls can never see users")
	}
}

func TestCompareEmptyTruth(t *testing.T) {
	camp := &Campaign{Site: "x", Snapshots: []Snapshot{{Views: map[uint64]int64{}}}}
	cmp := Compare(camp, nil)
	if cmp.Coverage != 0 || cmp.ViewUndercount != 0 {
		t.Errorf("empty truth: %+v", cmp)
	}
}
