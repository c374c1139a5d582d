package analysis

import (
	"math/rand"
	"testing"
	"time"

	"trafficscope/internal/trace"
)

// Property tests over the session builder: for any per-user timestamp
// multiset, the reconstructed sessions partition the requests exactly,
// session lengths never exceed the request span, and intra-session gaps
// respect the timeout.
func TestSessionInvariantsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		timeout := time.Duration(1+rng.Intn(30)) * time.Minute
		s := newSessions(timeout, 0)
		perUser := map[uint64][]time.Time{}
		nUsers := 1 + rng.Intn(10)
		base := week.HourStart(rng.Intn(100))
		total := 0
		for u := uint64(0); u < uint64(nUsers); u++ {
			n := 1 + rng.Intn(30)
			total += n
			at := base
			for i := 0; i < n; i++ {
				// Mix short and long gaps around the timeout boundary.
				at = at.Add(time.Duration(rng.Intn(3*int(timeout.Seconds()))) * time.Second)
				r := rec("X", 1, u, trace.FileJPG, 10, 0)
				r.Timestamp = at
				s.Add(r)
				perUser[u] = append(perUser[u], at)
			}
		}
		sessions := s.SessionsOf("X")

		// 1. Sessions partition all requests.
		var sumReq int
		perUserSessions := map[uint64][]Session{}
		for _, ses := range sessions {
			sumReq += ses.Requests
			perUserSessions[ses.User] = append(perUserSessions[ses.User], ses)
			if ses.Requests < 1 {
				t.Fatal("empty session")
			}
			if ses.Length < 0 {
				t.Fatal("negative session length")
			}
		}
		if sumReq != total {
			t.Fatalf("sessions cover %d requests, want %d", sumReq, total)
		}
		// 2. Per user: sessions are disjoint, ordered, and gaps between
		// consecutive sessions exceed the timeout.
		for u, ss := range perUserSessions {
			for i := 1; i < len(ss); i++ {
				prevEnd := ss[i-1].Start.Add(ss[i-1].Length)
				if gap := ss[i].Start.Sub(prevEnd); gap <= timeout {
					t.Fatalf("user %d: inter-session gap %v <= timeout %v", u, gap, timeout)
				}
			}
			// 3. Session length is bounded by the user's total span.
			ts := perUser[u]
			span := ts[len(ts)-1].Sub(ts[0])
			for _, ses := range ss {
				if ses.Length > span {
					t.Fatalf("session length %v exceeds user span %v", ses.Length, span)
				}
			}
		}
		// 4. IAT count equals requests minus users-with-requests.
		iats := 0
		if cdf := s.IATCDF("X"); cdf != nil {
			iats = cdf.Len()
		}
		if iats != total-nUsers {
			t.Fatalf("IATs = %d, want %d", iats, total-nUsers)
		}
	}
}

// TimeoutKnee finds the gap between within-session and cross-session
// modes in a synthetic bimodal IAT distribution.
func TestTimeoutKnee(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := newSessions(0, 0)
	base := week.HourStart(0)
	// 200 users, each with bursts of ~30s gaps separated by ~6h gaps.
	for u := uint64(0); u < 200; u++ {
		at := base.Add(time.Duration(rng.Intn(3600)) * time.Second)
		for burst := 0; burst < 3; burst++ {
			for i := 0; i < 4; i++ {
				r := rec("X", 1, u, trace.FileJPG, 10, 0)
				r.Timestamp = at
				s.Add(r)
				at = at.Add(time.Duration(20+rng.Intn(20)) * time.Second)
			}
			at = at.Add(time.Duration(4+rng.Intn(4)) * time.Hour)
		}
	}
	knee := s.TimeoutKnee("X")
	if knee < time.Minute || knee > 2*time.Hour {
		t.Errorf("knee = %v, want between the 30s and 6h modes", knee)
	}
	// With the log sorted, the knee bins the gaps as it scans them and
	// allocates nothing, no slice of gaps included.
	if n := testing.AllocsPerRun(5, func() { s.TimeoutKnee("X") }); n != 0 {
		t.Errorf("TimeoutKnee allocates %v times on a sorted log, want 0", n)
	}
	// Too few IATs: zero.
	empty := newSessions(0, 0)
	if empty.TimeoutKnee("X") != 0 {
		t.Error("empty site should report no knee")
	}
	// Unimodal distribution: no usable gap.
	uni := newSessions(0, 0)
	at := base
	for i := 0; i < 100; i++ {
		r := rec("X", 1, 7, trace.FileJPG, 10, 0)
		r.Timestamp = at
		uni.Add(r)
		at = at.Add(30 * time.Second)
	}
	if k := uni.TimeoutKnee("X"); k != 0 {
		t.Errorf("unimodal knee = %v, want 0", k)
	}
}

// Property: two Sessions accumulators, each fed the records of its own
// sites and merged by adoption, yield the sessions of one fed every
// record. Users repeat across sites, and sessions do not.
func TestSessionsMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	whole := newSessions(0, 0)
	a, b := newSessions(0, 0), newSessions(0, 0)
	base := week.HourStart(5)
	sites := []string{"X", "Y", "Z"}
	for i := 0; i < 500; i++ {
		r := rec(sites[rng.Intn(len(sites))], 1, uint64(rng.Intn(20)), trace.FileJPG, 10, 0)
		r.Timestamp = base.Add(time.Duration(rng.Intn(100000)) * time.Second)
		whole.Add(r)
		if r.Publisher == "Y" {
			b.Add(r)
		} else {
			a.Add(r)
		}
	}
	adoptAlone(a, b)
	for _, site := range sites {
		sa, sw := a.SessionsOf(site), whole.SessionsOf(site)
		if len(sa) != len(sw) {
			t.Fatalf("%s: merged %d sessions != sequential %d", site, len(sa), len(sw))
		}
		for i := range sa {
			if sa[i] != sw[i] {
				t.Fatalf("%s: session %d differs: %+v vs %+v", site, i, sa[i], sw[i])
			}
		}
	}
}
