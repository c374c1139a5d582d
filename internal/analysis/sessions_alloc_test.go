package analysis

import (
	"testing"
	"time"

	"trafficscope/internal/trace"
)

// TestSessionsQueriesSortOnce checks that the session log is ordered by
// the first query and scanned in place by the next ones: once sorted, an
// IATCDF and a SessionLengthCDF allocate their samples and nothing per
// user, so ten times the users cost the same handful of allocations.
func TestSessionsQueriesSortOnce(t *testing.T) {
	queryAllocs := func(users int) float64 {
		s := newSessions(0, 0)
		for u := 0; u < users; u++ {
			for i := 0; i < 5; i++ {
				r := rec("V-1", uint64(i), uint64(u), trace.FileMP4, 1000, (u+i*7)%160)
				r.Timestamp = r.Timestamp.Add(time.Duration(u%50) * time.Second)
				s.Add(r)
			}
		}
		if s.IATCDF("V-1").Len() != 4*users {
			t.Fatalf("%d users: %d IATs, want %d", users, s.IATCDF("V-1").Len(), 4*users)
		}
		return testing.AllocsPerRun(5, func() {
			if s.IATCDF("V-1") == nil || s.SessionLengthCDF("V-1") == nil {
				t.Fatal("queries returned no distribution")
			}
		})
	}
	few, many := queryAllocs(200), queryAllocs(2000)
	t.Logf("allocations per IATCDF + SessionLengthCDF: %v at 200 users, %v at 2000", few, many)
	if many > few+2 || many > 16 {
		t.Errorf("queries allocate %v times at 2000 users, %v at 200: want the same handful", many, few)
	}
}
