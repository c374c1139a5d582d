package analysis

import (
	"reflect"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"trafficscope/internal/trace"
)

// sessionsOf folds five V-1 requests by each of users users.
func sessionsOf(users int) *Sessions {
	s := newSessions(0, 0)
	for u := 0; u < users; u++ {
		for i := 0; i < 5; i++ {
			r := rec("V-1", uint64(i), uint64(u), trace.FileMP4, 1000, (u+i*7)%160)
			r.Timestamp = r.Timestamp.Add(time.Duration(u%50) * time.Second)
			s.Add(r)
		}
	}
	return s
}

// TestSessionsQueriesSummarizeOnce checks that the first query merges
// the session log into the site's summary and that the next ones only
// read it: an IATCDF, a SessionLengthCDF, a TimeoutKnee and a
// MeanRequestsPerSession allocate nothing after it, at 200 users as at
// 2,000. The collector is off, as in TestAddictionQueriesCountOnce.
func TestSessionsQueriesSummarizeOnce(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, users := range []int{200, 2000} {
		s := sessionsOf(users)
		if n := s.IATCDF("V-1").Len(); n != 4*users {
			t.Fatalf("%d users: %d IATs, want %d", users, n, 4*users)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if s.IATCDF("V-1") == nil || s.SessionLengthCDF("V-1") == nil || s.MeanRequestsPerSession("V-1") == 0 {
				t.Fatal("queries returned no distribution")
			}
			s.TimeoutKnee("V-1")
		})
		t.Logf("allocations per IATCDF + SessionLengthCDF + TimeoutKnee + MeanRequestsPerSession at %d users: %v", users, allocs)
		if allocs != 0 {
			t.Errorf("queries after the first allocate %v times at %d users, want none", allocs, users)
		}
	}
}

// TestQueriesSeeLaterRecords folds a record after a query into each
// analyzer that summarizes its log at the first query, and checks that
// the next query counts it.
func TestQueriesSeeLaterRecords(t *testing.T) {
	for _, budget := range []int{0, 1000} {
		s := newSessions(0, budget)
		at := week.HourStart(10)
		add := func(user uint64, offset time.Duration) {
			r := rec("V-1", 1, user, trace.FileMP4, 100, 10)
			r.Timestamp = at.Add(offset)
			s.Add(r)
		}
		add(1, 0)
		add(1, time.Minute)
		add(2, 0)
		if n, mean := s.IATCDF("V-1").Len(), s.MeanRequestsPerSession("V-1"); n != 1 || mean != 1.5 {
			t.Fatalf("budget %d: %d IATs and %v requests a session, want 1 and 1.5", budget, n, mean)
		}
		add(2, 2*time.Minute)
		if n, mean := s.IATCDF("V-1").Len(), s.MeanRequestsPerSession("V-1"); n != 2 || mean != 2 {
			t.Errorf("budget %d, a request later: %d IATs and %v requests a session, want 2 and 2", budget, n, mean)
		}
		if med, _ := s.SessionLengthCDF("V-1").Median(); med != 60 {
			t.Errorf("budget %d, a request later: median session length %v s, want 60", budget, med)
		}

		a := newAddiction(budget)
		for _, r := range addictionOf(2) {
			a.Add(r)
		}
		before := a.Scatter("V-1", trace.CategoryVideo)
		if frac := a.FracObjectsAbove("V-1", trace.CategoryVideo, 3); frac != 0 {
			t.Fatalf("budget %d: %v of objects above 3 requests a user, want 0", budget, frac)
		}
		r := rec("V-1", uint64(before[0].Object), 0, trace.FileMP4, 1000, 0)
		r.ObjectKey, r.UserKey = uint32(before[0].Object)+1, 1
		a.Add(r)
		after := a.Scatter("V-1", trace.CategoryVideo)
		if after[0].Object != before[0].Object || after[0].Requests != before[0].Requests+1 {
			t.Errorf("budget %d, a request later: top object %+v, want %+v with one more request", budget, after[0], before[0])
		}
	}
}

// TestSessionsConcurrentQueries is TestAddictionConcurrentQueries for
// the session log: two goroutines run the first queries of a freshly
// folded Sessions, which both find unsummarized, and both must read what
// one query alone reads.
func TestSessionsConcurrentQueries(t *testing.T) {
	alone, shared := sessionsOf(300), sessionsOf(300)
	type answers struct {
		iats, lengths int
		mean          float64
		knee          time.Duration
		sessions      []Session
	}
	ask := func(s *Sessions) answers {
		return answers{s.IATCDF("V-1").Len(), s.SessionLengthCDF("V-1").Len(),
			s.MeanRequestsPerSession("V-1"), s.TimeoutKnee("V-1"), s.SessionsOf("V-1")}
	}
	want := ask(alone)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := ask(shared); !reflect.DeepEqual(got, want) {
				t.Errorf("concurrent queries read IATs %d, lengths %d, mean %v, knee %v, %d sessions; want %d, %d, %v, %v, %d",
					got.iats, got.lengths, got.mean, got.knee, len(got.sessions),
					want.iats, want.lengths, want.mean, want.knee, len(want.sessions))
			}
		}()
	}
	wg.Wait()
}
