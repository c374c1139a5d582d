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
// required): it logs one (user slot, timestamp) event per request in a
// chunkLog — the largest analyzer allocation in a streaming run, so
// timestamps are Unix nanoseconds instead of 3-word time.Times — and the
// first query after a fold merges the log once, by user and time, into a
// summary of the site: its IAT and session-length samples, its session
// and request counts and its IAT histogram for the timeout knee. The
// next queries read that summary until a record is folded again;
// SessionsOf alone merges the log at every call.
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
	// mu guards the lazy summary, so that concurrent queries stay as
	// safe as they were when queries only read.
	mu sync.Mutex
}

type sessionsSite struct {
	keys boundedKeys // bounded mode: the site's user sample
	log  chunkLog[sessionEvent]
	// sum is what the queries read of the log, as of log generation gen.
	sum sessionSummary
	gen uint64
}

type sessionEvent struct {
	ts   int64 // Unix nanoseconds
	user uint32
}

// compare orders events by user slot, then time. Testing the users
// first, rather than through cmp.Or, takes a third off sorting a chunk.
func (e sessionEvent) compare(o sessionEvent) int {
	if e.user != o.user {
		return cmp.Compare(e.user, o.user)
	}
	return cmp.Compare(e.ts, o.ts)
}

// sessionSummary is what the IAT and session-length queries read of a
// site's log.
type sessionSummary struct {
	iats, lengths      *stats.ECDF // seconds; nil when empty
	sessions, requests int
	knee               [kneeBins]float64 // IATs by kneeBin
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

// summary returns the site's summary, merging its log if anything was
// folded since the last query.
func (s *Sessions) summary(site string) *sessionSummary {
	_, st := s.find(site)
	if st == nil {
		return &noSessions
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if st.gen != st.log.gen {
		s.summarize(st)
	}
	return &st.sum
}

var noSessions sessionSummary

// summarize merges the site's log into its summary.
func (s *Sessions) summarize(st *sessionsSite) {
	sum := sessionSummary{}
	gaps := make([]float64, 0, st.log.n) // at most one per request
	var lengths []float64
	s.scan(st, func(gap time.Duration) {
		x := gap.Seconds()
		gaps = append(gaps, x)
		sum.knee[kneeBin(x)]++
	}, func(_ uint32, start, last int64, requests int) {
		*at(&lengths, uint32(len(lengths))) = time.Duration(last - start).Seconds()
		sum.requests += requests
	})
	sum.sessions = len(lengths)
	sum.iats, _ = stats.NewECDF(gaps)
	sum.lengths, _ = stats.NewECDF(lengths)
	st.sum, st.gen = sum, st.log.gen
}

// scan merges the site's log by (user slot, time), calling gap with
// every consecutive same-user request gap and session with every
// session, in (user slot, start) order: consecutive same-user requests
// within the timeout belong to one session. The caller holds s.mu.
func (s *Sessions) scan(st *sessionsSite, gap func(time.Duration), session func(user uint32, start, last int64, requests int)) {
	var prev sessionEvent
	var start int64
	requests := 0
	st.log.inOrder(func(e sessionEvent) {
		if requests > 0 && e.user == prev.user {
			d := time.Duration(e.ts - prev.ts)
			gap(d)
			if d <= s.timeout {
				prev = e
				requests++
				return
			}
		}
		if requests > 0 {
			session(prev.user, start, prev.ts, requests)
		}
		prev, start, requests = e, e.ts, 1
	})
	if requests > 0 {
		session(prev.user, start, prev.ts, requests)
	}
}

// IATCDF returns the ECDF of same-user request gaps in seconds (Fig. 11),
// or nil when no user has two requests.
func (s *Sessions) IATCDF(site string) *stats.ECDF { return s.summary(site).iats }

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

// SessionsOf reconstructs the site's sessions: consecutive same-user
// requests within the timeout belong to one session (Fig. 12).
func (s *Sessions) SessionsOf(site string) []Session {
	si, st := s.find(site)
	if st == nil {
		return nil
	}
	ids := s.userIDs(si, st.keys.keys)
	var out []Session
	s.mu.Lock()
	s.scan(st, func(time.Duration) {}, func(user uint32, start, last int64, requests int) {
		out = append(out, Session{User: ids[user], Start: time.Unix(0, start).UTC(), Length: time.Duration(last - start), Requests: requests})
	})
	s.mu.Unlock()
	slices.SortFunc(out, func(a, b Session) int {
		return cmp.Or(a.Start.Compare(b.Start), cmp.Compare(a.User, b.User)) // deterministic tiebreak
	})
	return out
}

// SessionLengthCDF returns the ECDF of session lengths in seconds, or
// nil when the site has no session.
func (s *Sessions) SessionLengthCDF(site string) *stats.ECDF { return s.summary(site).lengths }

// MeanRequestsPerSession returns the average session size.
func (s *Sessions) MeanRequestsPerSession(site string) float64 {
	sum := s.summary(site)
	if sum.sessions == 0 {
		return 0
	}
	return float64(sum.requests) / float64(sum.sessions)
}

// The timeout knee bins IATs log-spaced from 1 second to 1 week.
const kneeBins = 36

var kneeLo, kneeHi = math.Log(1.0), math.Log(7 * 24 * 3600.0)

// kneeBin returns the bin of an IAT in seconds.
func kneeBin(x float64) int {
	b := int((math.Log(max(x, 1)) - kneeLo) / (kneeHi - kneeLo) * kneeBins)
	return min(max(b, 0), kneeBins-1)
}

// TimeoutKnee estimates the session-timeout knee of a site's IAT
// distribution: the sparsest point (in log-time) between the
// within-session mode (seconds to minutes) and the cross-session mode
// (hours to days). The paper picks its 10-minute timeout this way ("We
// set the timeout value for user sessions at 10 minutes based on our
// earlier analysis of user request IAT distributions"). Returns zero
// when the distribution has no usable gap.
func (s *Sessions) TimeoutKnee(site string) time.Duration {
	sum := s.summary(site)
	if sum.iats == nil || sum.iats.Len() < 20 {
		return 0
	}
	counts := &sum.knee
	// Peak below ~30 min and peak above; knee = sparsest bin between.
	cut := int((math.Log(1800.0) - kneeLo) / (kneeHi - kneeLo) * kneeBins)
	peakA, peakB := 0, cut
	for b := 1; b < cut; b++ {
		if counts[b] > counts[peakA] {
			peakA = b
		}
	}
	for b := cut; b < kneeBins; b++ {
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
	minCount := slices.Min(counts[peakA+1 : peakB])
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
	center := math.Exp(kneeLo + knee/kneeBins*(kneeHi-kneeLo))
	return time.Duration(center * float64(time.Second))
}
