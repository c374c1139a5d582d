package analysis

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"time"

	"trafficscope/internal/stats"
	"trafficscope/internal/trace"
)

// DefaultSessionTimeout is the session-boundary gap used by the paper
// ("We set the timeout value for user sessions at 10 minutes based on our
// earlier analysis of user request IAT distributions").
const DefaultSessionTimeout = 10 * time.Minute

// Sessions accumulates Figs. 11 and 12: per-site user request
// inter-arrival time (IAT) distributions and session length
// distributions. Session length is the span from a session's first to
// last request, a lower bound on engagement (the paper's footnote 1).
//
// Sessions is a two-pass analysis by nature (per-user ordering is
// required): it logs one (user slot, timestamp) event per request in
// arrival order — the largest analyzer allocation in a streaming run,
// so timestamps are Unix nanoseconds instead of 3-word time.Times, and
// the log grows by chunks instead of being copied as it grows — and on
// the first query joins the chunks and sorts them by user and time;
// every IAT and session method then scans that slice in place.
//
// Bounded mode (Params.MemoryBudget > 0) keeps the events of a uniform
// *user* sample of at most the budget per site: every sampled user's
// IATs and sessions are exact, so the IAT and session-length
// distributions are unbiased estimates with relative standard error
// ~ 1/sqrt(budget).
type Sessions struct {
	perSite[sessionsSite]
	timeout time.Duration
	budget  int
	// mu guards the lazy sort, so that concurrent queries stay as safe
	// as they were when queries only read.
	mu sync.Mutex
}

type sessionsSite struct {
	keys boundedKeys // bounded mode: the site's user sample
	// log holds the events in arrival order until a query sorts it by
	// (user, ts).
	log chunkLog[sessionEvent]
}

type sessionEvent struct {
	ts   int64 // Unix nanoseconds
	user uint32
}

// newSessions creates an accumulator with the given session timeout
// (zero defaults to 10 minutes); budget 0 is exact, a positive budget
// caps tracked users per site.
func newSessions(timeout time.Duration, budget int) *Sessions {
	if timeout <= 0 {
		timeout = DefaultSessionTimeout
	}
	s := &Sessions{timeout: timeout, budget: budget}
	s.needs = exactNeeds(budget, needUsers)
	return s
}

// Timeout returns the configured session timeout.
func (s *Sessions) Timeout() time.Duration { return s.timeout }

// Add folds one record.
func (s *Sessions) Add(r *trace.Record) { s.add(r, s.resolve(r)) }

func (s *Sessions) add(r *trace.Record, k *recKey) {
	st := s.site(k.site)
	slot := k.user
	if s.budget > 0 {
		var ok bool
		if slot, ok = st.keys.admit(s.budget, r.UserID, k.userHash, st.compact); !ok {
			return
		}
	}
	st.log.append(sessionEvent{ts: r.Timestamp.UnixNano(), user: slot})
}

// compact drops the events of evicted users and renumbers the rest
// after the sample shrank, in the log's own storage.
func (st *sessionsSite) compact(evict []uint32) {
	st.log.filter(func(e *sessionEvent) bool {
		e.user = evict[e.user]
		return e.user != noSlot
	})
}

// events returns the site's index and its log ordered by (user, time),
// joining and sorting it if anything was folded since the last query.
func (s *Sessions) events(site string) (si int, log []sessionEvent) {
	si, st := s.find(site)
	if st == nil {
		return si, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return si, st.log.sorted(func(a, b sessionEvent) int {
		return cmp.Or(cmp.Compare(a.user, b.user), cmp.Compare(a.ts, b.ts))
	})
}

// eachGap calls fn with every consecutive same-user request gap of the
// site, in seconds, in (user, time) order.
func (s *Sessions) eachGap(site string, fn func(seconds float64)) {
	_, log := s.events(site)
	for i := 1; i < len(log); i++ {
		if log[i].user == log[i-1].user {
			fn(time.Duration(log[i].ts - log[i-1].ts).Seconds())
		}
	}
}

// IATSeconds returns every consecutive same-user request gap for the
// site, in seconds (Fig. 11).
func (s *Sessions) IATSeconds(site string) []float64 {
	gaps := 0
	s.eachGap(site, func(float64) { gaps++ })
	if gaps == 0 {
		return nil
	}
	out := make([]float64, 0, gaps)
	s.eachGap(site, func(x float64) { out = append(out, x) })
	return out
}

// IATCDF returns the ECDF of same-user request gaps in seconds, or nil
// when no user has two requests.
func (s *Sessions) IATCDF(site string) *stats.ECDF {
	iats := s.IATSeconds(site)
	if len(iats) == 0 {
		return nil
	}
	return stats.MustECDF(iats)
}

// Session is one reconstructed user session.
type Session struct {
	// User is the session's anonymized user.
	User uint64
	// Start is the first request time.
	Start time.Time
	// Length is the span from first to last request.
	Length time.Duration
	// Requests is the number of requests in the session.
	Requests int
}

// eachSession calls fn for every session of the site, in (user slot,
// start) order: consecutive same-user requests within the timeout
// belong to one session.
func (s *Sessions) eachSession(site string, fn func(si int, user uint32, start, last int64, requests int)) {
	si, log := s.events(site)
	for i := 0; i < len(log); {
		j := i + 1
		for j < len(log) && log[j].user == log[i].user && time.Duration(log[j].ts-log[j-1].ts) <= s.timeout {
			j++
		}
		fn(si, log[i].user, log[i].ts, log[j-1].ts, j-i)
		i = j
	}
}

// SessionsOf reconstructs the site's sessions: consecutive same-user
// requests within the timeout belong to one session (Fig. 12).
func (s *Sessions) SessionsOf(site string) []Session {
	var out []Session
	var ids []uint64
	s.eachSession(site, func(si int, user uint32, start, last int64, requests int) {
		if ids == nil {
			ids = s.userIDs(si, s.sites[si].keys.keys)
		}
		out = append(out, Session{User: ids[user], Start: time.Unix(0, start).UTC(), Length: time.Duration(last - start), Requests: requests})
	})
	slices.SortFunc(out, func(a, b Session) int {
		return cmp.Or(a.Start.Compare(b.Start), cmp.Compare(a.User, b.User)) // deterministic tiebreak
	})
	return out
}

// SessionLengthCDF returns the ECDF of session lengths in seconds.
func (s *Sessions) SessionLengthCDF(site string) *stats.ECDF {
	n := 0
	s.eachSession(site, func(int, uint32, int64, int64, int) { n++ })
	if n == 0 {
		return nil
	}
	sample := make([]float64, 0, n)
	s.eachSession(site, func(_ int, _ uint32, start, last int64, _ int) {
		sample = append(sample, time.Duration(last-start).Seconds())
	})
	return stats.MustECDF(sample)
}

// MeanRequestsPerSession returns the average session size.
func (s *Sessions) MeanRequestsPerSession(site string) float64 {
	var sessions, requests int
	s.eachSession(site, func(_ int, _ uint32, _, _ int64, n int) {
		sessions++
		requests += n
	})
	if sessions == 0 {
		return 0
	}
	return float64(requests) / float64(sessions)
}

// TimeoutKnee estimates the session-timeout knee of a site's IAT
// distribution: the sparsest point (in log-time) between the
// within-session mode (seconds to minutes) and the cross-session mode
// (hours to days). The paper picks its 10-minute timeout this way ("We
// set the timeout value for user sessions at 10 minutes based on our
// earlier analysis of user request IAT distributions"). Returns zero
// when the distribution has no usable gap.
func (s *Sessions) TimeoutKnee(site string) time.Duration {
	// Log-spaced histogram from 1 second to 1 week, binned as the log
	// is scanned.
	const bins = 36
	lo, hi := math.Log(1.0), math.Log(7*24*3600.0)
	var counts [bins]float64
	gaps := 0
	s.eachGap(site, func(x float64) {
		gaps++
		if x < 1 {
			x = 1
		}
		b := int((math.Log(x) - lo) / (hi - lo) * bins)
		if b < 0 {
			b = 0
		}
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	})
	if gaps < 20 {
		return 0
	}
	// Peak below ~30 min and peak above; knee = sparsest bin between.
	cut := int((math.Log(1800.0) - lo) / (hi - lo) * bins)
	peakA, peakB := 0, cut
	for b := 1; b < cut; b++ {
		if counts[b] > counts[peakA] {
			peakA = b
		}
	}
	for b := cut; b < bins; b++ {
		if counts[b] > counts[peakB] {
			peakB = b
		}
	}
	if peakB <= peakA+1 || counts[peakA] == 0 || counts[peakB] == 0 {
		return 0
	}
	// Sparsest density between the modes; with ties (typically a run of
	// empty bins) take the center of the widest minimal run, which is
	// the most robust cut point.
	minCount := counts[peakA+1]
	for b := peakA + 1; b < peakB; b++ {
		if counts[b] < minCount {
			minCount = counts[b]
		}
	}
	bestStart, bestLen := -1, 0
	runStart := -1
	for b := peakA + 1; b <= peakB; b++ {
		if b < peakB && counts[b] == minCount {
			if runStart < 0 {
				runStart = b
			}
			continue
		}
		if runStart >= 0 {
			if l := b - runStart; l > bestLen {
				bestStart, bestLen = runStart, l
			}
			runStart = -1
		}
	}
	if bestStart < 0 {
		return 0
	}
	knee := float64(bestStart) + float64(bestLen)/2
	center := math.Exp(lo + knee/bins*(hi-lo))
	return time.Duration(center * float64(time.Second))
}
