// Package loadgen replays trace records over real HTTP against an edge
// server (internal/edge), turning the repository's offline traces into
// live traffic. It is an open-loop generator: a scheduler paces request
// dispatch by the trace's own timestamps compressed through a virtual
// clock (Speedup), and a worker pool issues the requests — so a slow
// server faces a growing backlog instead of a politely waiting client,
// which is how real user populations behave.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	neturl "net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trafficscope/internal/edge"
	"trafficscope/internal/obs"
	"trafficscope/internal/obs/slo"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// Config configures a load generation run.
type Config struct {
	// Target is the edge server's base URL (e.g. "http://127.0.0.1:8080").
	Target string
	// Speedup compresses trace time into wall time: 3600 replays an hour
	// of trace per wall second. Zero or negative disables pacing —
	// records dispatch as fast as the workers can send them.
	Speedup float64
	// Workers is the request worker pool size. Zero defaults to
	// 2*GOMAXPROCS. The scheduler hands the pool records through a
	// buffer of 4*Workers.
	Workers int
	// Timeout bounds each attempt, from the send to the last body byte.
	// Zero defaults to 10s.
	Timeout time.Duration
	// Retries is how many times a request is retried after a transport
	// (connection) error; HTTP error statuses are never retried.
	Retries int
	// Backoff is the initial retry backoff, doubling per attempt. Zero
	// defaults to 20ms.
	Backoff time.Duration
	// Client supplies the transport requests go out on; only its
	// Transport is used, and one client may serve any number of runs. nil
	// (or a nil Transport) builds a keep-alive transport sized to the
	// worker pool. A Client with Timeout, CheckRedirect or Jar set is an
	// error: Timeout governs instead, a redirect is recorded as the
	// answer, never followed, and no cookies are sent.
	Client *http.Client
	// Metrics is the registry the run counts into, once per event (the
	// loadgen_* families). Stats are read back from it less what it held
	// when the run began, so runs may share one registry in sequence.
	// nil gives the run a registry of its own.
	Metrics *obs.Registry
}

// The families a run counts into, one add per event. Stats are read
// back from them less their values when the run began.
const (
	requestsMetric     = "loadgen_requests_total"
	errorsMetric       = "loadgen_errors_total"
	retriesMetric      = "loadgen_retries_total"
	hitsMetric         = "loadgen_hits_total"
	missesMetric       = "loadgen_misses_total"
	shedMetric         = "loadgen_shed_total"
	cancelledMetric    = "loadgen_cancelled_total"
	logicalBytesMetric = "loadgen_logical_bytes_total"
	wireBytesMetric    = "loadgen_wire_bytes_total"
	// latencyMetric times each completed exchange from its scheduled
	// send; queuedDelayMetric how long it waited between its scheduled
	// (virtual-clock) send time and the moment a worker sent it.
	latencyMetric     = "loadgen_latency_seconds"
	queuedDelayMetric = "loadgen_queued_delay_seconds"
	// Completed exchanges by trace site and by response status.
	siteMetric   = "loadgen_site_requests_total"
	statusMetric = "loadgen_responses_total"
)

// maxRetryBackoff caps the exponential retry backoff: the delay doubles
// per attempt but never exceeds this, so a long retry budget cannot
// drive per-record sleeps into minutes.
const maxRetryBackoff = 2 * time.Second

// Stats summarizes a completed (or interrupted) run. Requests counts
// completed HTTP exchanges of any status (a 3xx is an answer, recorded
// in ByStatus, never followed); Errors counts records whose
// request still failed at the transport level after retries, or whose
// response body ended early.
type Stats struct {
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// FirstError is the first failure counted in Errors, so a run that
	// reports "1 errors" also names a cause.
	FirstError string `json:"first_error,omitempty"`
	Retries    int64  `json:"retries"`
	Hits       int64  `json:"hits"`
	Misses     int64  `json:"misses"`
	Shed       int64  `json:"shed"` // 503 responses from edge load shedding
	// Cancelled counts exchanges that ended without a cache verdict:
	// the per-attempt deadline fired mid-exchange, or a successful
	// response carried no X-TS-Cache header (e.g. the edge's implicit
	// response after a client gave up mid-origin-fetch). These requests
	// may still have been served — and counted — by the CDN, which is
	// why they are surfaced separately instead of silently skewing the
	// client-observed hit ratio.
	Cancelled    int64            `json:"cancelled"`
	LogicalBytes int64            `json:"logical_bytes"`
	WireBytes    int64            `json:"wire_bytes"`
	BySite       map[string]int64 `json:"by_site"`
	ByStatus     map[int]int64    `json:"by_status"`
	Duration     time.Duration    `json:"duration"`
	// Latency holds the response-time histogram of completed exchanges,
	// measured from each record's scheduled send time (the virtual
	// clock), not from the actual send: when workers fall behind, the
	// time a request spent queued client-side counts against the server
	// — the standard guard against coordinated omission. Use
	// Latency.Quantile for p50/p99.
	Latency obs.HistogramValue `json:"latency"`
	// QueuedDelay holds the queued-send-delay histogram (actual send −
	// scheduled send) of the same exchanges: near zero when the
	// generator keeps up, growing when the worker pool or the server
	// backs up. Latency already folds this in; QueuedDelay shows how
	// much of it was client-side queueing.
	QueuedDelay obs.HistogramValue `json:"queued_delay"`
}

// RPS returns completed requests per wall-clock second.
func (s *Stats) RPS() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Requests) / s.Duration.Seconds()
}

// HitRatio returns hits/(hits+misses) as observed from response headers.
func (s *Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// SLOWindow views the whole run as one SLO window, so a tsload summary
// can be gated by the same policy objectives the live /slo endpoint
// evaluates. Requests covers every attempted record (completed
// exchanges plus transport failures); Errors covers the client-visible
// failures among them (transport errors and truncated bodies, which
// already include mid-exchange deadline cancels, plus 503 sheds). The latency
// distribution holds completed exchanges only — transport failures
// never produced a response to time.
func (s *Stats) SLOWindow() slo.WindowStats {
	return slo.WindowStats{
		WindowSeconds: s.Duration.Seconds(),
		Requests:      s.Requests + s.Errors,
		Errors:        s.Errors + s.Shed,
		Hits:          s.Hits,
		Misses:        s.Misses,
		Latency:       s.Latency,
	}
}

// run carries one run's shared state across scheduler and workers.
type run struct {
	cfg  Config
	base string
	rt   http.RoundTripper

	reg      *obs.Registry
	start    obs.Snapshot // reg when the run began
	firstErr atomic.Pointer[string]

	requests, errors, retries, hits, misses  *obs.Counter
	shed, cancelled, logicalBytes, wireBytes *obs.Counter
	latency, qdelay                          *obs.Histogram
	sites, statuses                          series
}

// series is one labeled counter family of a run: a counter per label
// value, registered on first use. Workers cache the handles, so only a
// value's first sighting by a worker takes the lock.
type series struct {
	family, label string
	mu            sync.Mutex
	seen          map[string]*obs.Counter
}

// counter returns the family's counter for one label value.
func (s *series) counter(reg *obs.Registry, value string) *obs.Counter {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.seen[value]
	if c == nil {
		c = reg.Counter(obs.Name(s.family, s.label, value))
		s.seen[value] = c
	}
	return c
}

// job is one scheduled request: the record plus its virtual-clock send
// time, which latency is measured from. The record rides by value so the
// scheduler can reuse one scratch record for the whole trace read.
type job struct {
	rec       trace.Record
	scheduled time.Time
}

// worker is one worker goroutine's private state: its handles to the
// run's labeled counters, and the URL buffer and deadline every request
// it sends reuses.
type worker struct {
	sites    map[string]*obs.Counter
	statuses map[int]*obs.Counter
	url      []byte
	deadline deadline
}

// deadline is a worker's per-attempt timeout, one context and one timer
// reused by every attempt instead of a context.WithTimeout each. When
// the timer fires it cancels the context with cause
// context.DeadlineExceeded; that context is then retired, so a late
// timer can never cancel a later attempt.
type deadline struct {
	parent  context.Context
	timeout time.Duration
	ctx     context.Context
	cancel  context.CancelCauseFunc
	timer   *time.Timer
}

// arm starts the timeout of one attempt and returns the attempt's
// context.
func (d *deadline) arm() context.Context {
	if d.ctx == nil {
		ctx, cancel := context.WithCancelCause(d.parent)
		d.ctx, d.cancel = ctx, cancel
		d.timer = time.AfterFunc(d.timeout, func() { cancel(context.DeadlineExceeded) })
	} else {
		d.timer.Reset(d.timeout)
	}
	return d.ctx
}

// disarm ends the attempt once its body is closed. A timer that already
// fired retires its context; the cause it set (or is about to set) is
// the one given here, so the attempt reads as timed out either way.
func (d *deadline) disarm() {
	if !d.timer.Stop() {
		d.cancel(context.DeadlineExceeded)
		d.ctx = nil
	}
}

// stop releases the context when the worker exits, so nothing stays
// registered on the run's context.
func (d *deadline) stop() {
	if d.ctx != nil {
		d.timer.Stop()
		d.cancel(nil)
	}
}

// timedOut reports whether the attempt run in rctx ended because its
// own deadline fired, not because the run was cancelled.
func timedOut(ctx, rctx context.Context) bool {
	return ctx.Err() == nil && errors.Is(context.Cause(rctx), context.DeadlineExceeded)
}

// Run replays records from r against cfg.Target until the trace ends or
// ctx is cancelled. It always returns the Stats gathered so far; the
// error is non-nil for a trace read failure, cancellation, or an
// unusable config.
func Run(ctx context.Context, cfg Config, r trace.Reader) (*Stats, error) {
	if cfg.Target == "" {
		return nil, fmt.Errorf("loadgen: Config.Target is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 20 * time.Millisecond
	}
	rt, err := transport(cfg)
	if err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry() // Stats are read back from it
	}
	bounds := obs.ExpBuckets(50e-6, 1.6, 40)
	rn := &run{
		cfg:          cfg,
		base:         strings.TrimSuffix(cfg.Target, "/"),
		rt:           rt,
		reg:          reg,
		requests:     reg.Counter(requestsMetric),
		errors:       reg.Counter(errorsMetric),
		retries:      reg.Counter(retriesMetric),
		hits:         reg.Counter(hitsMetric),
		misses:       reg.Counter(missesMetric),
		shed:         reg.Counter(shedMetric),
		cancelled:    reg.Counter(cancelledMetric),
		logicalBytes: reg.Counter(logicalBytesMetric),
		wireBytes:    reg.Counter(wireBytesMetric),
		latency:      reg.Histogram(latencyMetric, bounds),
		qdelay:       reg.Histogram(queuedDelayMetric, bounds),
		sites:        series{family: siteMetric, label: "site", seen: map[string]*obs.Counter{}},
		statuses:     series{family: statusMetric, label: "code", seen: map[string]*obs.Counter{}},
	}
	rn.start = reg.Snapshot()

	// The scheduler may run up to four records per worker ahead of the
	// pool, so a worker never idles between one record and the next.
	jobs := make(chan job, 4*cfg.Workers)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &worker{
				sites:    map[string]*obs.Counter{},
				statuses: map[int]*obs.Counter{},
				deadline: deadline{parent: ctx, timeout: cfg.Timeout},
			}
			defer w.deadline.stop()
			for j := range jobs {
				rn.one(ctx, j, w)
			}
		}()
	}

	start := time.Now()
	readErr := rn.schedule(ctx, r, jobs, start)
	close(jobs)
	wg.Wait()

	st := rn.stats(time.Since(start))
	if readErr != nil {
		return st, readErr
	}
	return st, ctx.Err()
}

// schedule reads records and dispatches them at their virtual send
// times. It returns the first trace read error, nil otherwise.
//
// Each job carries its scheduled send time: under pacing that is the
// virtual-clock target even when the scheduler itself has fallen
// behind, so latency accounting charges the backlog to the run rather
// than silently forgiving it (coordinated omission); unpaced runs use
// the enqueue time, making queue wait part of the measured latency.
func (rn *run) schedule(ctx context.Context, r trace.Reader, jobs chan<- job, start time.Time) error {
	var t0 time.Time
	var pace *time.Timer
	first := true
	var rec trace.Record
	for {
		err := r.Read(&rec)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("loadgen: trace read: %w", err)
		}
		var scheduled time.Time
		if rn.cfg.Speedup > 0 {
			if first {
				t0 = rec.Timestamp
				first = false
			}
			scheduled = start.Add(time.Duration(float64(rec.Timestamp.Sub(t0)) / rn.cfg.Speedup))
			if d := time.Until(scheduled); d > 0 {
				// One timer serves the whole schedule: Reset after the
				// previous wait has drained the channel is race-free, and
				// reusing it avoids allocating a timer per paced record.
				if pace == nil {
					pace = time.NewTimer(d)
					defer pace.Stop()
				} else {
					pace.Reset(d)
				}
				select {
				case <-pace.C:
				case <-ctx.Done():
					return nil
				}
			}
		} else {
			scheduled = time.Now()
		}
		select {
		case jobs <- job{rec: rec, scheduled: scheduled}:
		case <-ctx.Done():
			return nil
		}
	}
}

// one issues a single record's request, retrying transport errors with
// exponential backoff. Latency is measured from the job's scheduled
// send time, so time spent queued behind other records (and in retry
// backoffs) counts; the queued-send delay is also recorded on its own.
func (rn *run) one(ctx context.Context, j job, w *worker) {
	rec := &j.rec
	queued := time.Since(j.scheduled)
	if queued < 0 {
		queued = 0 // scheduler timers can fire marginally early
	}
	w.url = edge.AppendRequestPath(append(w.url[:0], rn.base...), rec)
	url := string(w.url)
	backoff := rn.cfg.Backoff
	for attempt := 0; ; attempt++ {
		rctx := w.deadline.arm()
		req, err := http.NewRequestWithContext(rctx, http.MethodGet, url, nil)
		if err != nil {
			w.deadline.disarm()
			rn.fail(err)
			return
		}
		resp, err := rn.do(req)
		if err != nil {
			w.deadline.disarm()
			if timedOut(ctx, rctx) {
				// The deadline fired while the exchange was in flight: the
				// server has likely already served (and counted) the
				// record, so retrying would double-serve it and skew
				// live-vs-offline accounting. Count it as a cancelled
				// exchange instead.
				rn.cancelled.Inc()
				rn.fail(err)
				return
			}
			if ctx.Err() != nil || attempt >= rn.cfg.Retries {
				rn.fail(err)
				return
			}
			rn.retries.Inc()
			if !timeutil.SleepCtx(ctx, backoff) {
				rn.fail(err)
				return
			}
			backoff = nextBackoff(backoff)
			continue
		}
		wire, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		w.deadline.disarm()
		if err != nil {
			// The body ended early: the exchange did not complete, but the
			// server answered, so it counted the record — never retried.
			if timedOut(ctx, rctx) {
				rn.cancelled.Inc()
			}
			rn.fail(err)
			return
		}
		rn.latency.Observe(time.Since(j.scheduled).Seconds())
		rn.qdelay.Observe(queued.Seconds())
		rn.record(rec, resp, wire, w)
		return
	}
}

// requestHeader is the header of every request a run sends, shared
// read-only. The empty User-Agent keeps net/http from sending its
// default; identity keeps the transport from asking for gzip (which the
// edge never sends), so WireBytes is what crossed the wire.
var requestHeader = http.Header{"User-Agent": {""}, "Accept-Encoding": {"identity"}}

// do sends one attempt as a bare RoundTrip: whatever the target answers,
// a 3xx included, is the response. Errors are *url.Error, as
// http.Client returns them.
func (rn *run) do(req *http.Request) (*http.Response, error) {
	req.Header = requestHeader
	resp, err := rn.rt.RoundTrip(req)
	if err != nil {
		return nil, &neturl.Error{Op: "Get", URL: req.URL.Redacted(), Err: err}
	}
	return resp, nil
}

// transport is the RoundTripper a run sends on: Config.Client's, or a
// keep-alive transport sized to the worker pool. A Client field the run
// would have to ignore is an error instead.
func transport(cfg Config) (http.RoundTripper, error) {
	if c := cfg.Client; c != nil {
		switch {
		case c.Timeout != 0:
			return nil, errors.New("loadgen: Config.Client.Timeout is not used; set Config.Timeout")
		case c.CheckRedirect != nil:
			return nil, errors.New("loadgen: Config.Client.CheckRedirect is not used; a redirect is recorded, never followed")
		case c.Jar != nil:
			return nil, errors.New("loadgen: Config.Client.Jar is not used; requests carry no cookies")
		}
		if c.Transport != nil {
			return c.Transport, nil
		}
	}
	return &http.Transport{
		MaxIdleConns:        cfg.Workers + 2,
		MaxIdleConnsPerHost: cfg.Workers + 2,
		IdleConnTimeout:     time.Minute,
	}, nil
}

// fail counts one record whose request failed for good and keeps the
// first such error for Stats.FirstError.
func (rn *run) fail(err error) {
	rn.errors.Inc()
	if rn.firstErr.Load() == nil {
		msg := err.Error()
		rn.firstErr.CompareAndSwap(nil, &msg)
	}
}

// nextBackoff doubles the retry delay up to maxRetryBackoff.
func nextBackoff(cur time.Duration) time.Duration {
	next := cur * 2
	if next > maxRetryBackoff {
		next = maxRetryBackoff
	}
	return next
}

// record counts one completed exchange, whose latency is already
// observed: a reader never sees a request its latency histograms lack.
func (rn *run) record(rec *trace.Record, resp *http.Response, wire int64, w *worker) {
	rn.requests.Inc()
	rn.wireBytes.Add(wire)
	if resp.StatusCode == http.StatusServiceUnavailable {
		rn.shed.Inc()
	}
	switch resp.Header.Get(edge.HeaderCache) {
	case trace.CacheHit.String():
		rn.hits.Inc()
	case trace.CacheMiss.String():
		rn.misses.Inc()
	case "":
		// A successful exchange with no cache verdict means the edge
		// gave up on us mid-serve (implicit response after a client
		// cancel); shed 503s and bad requests are accounted elsewhere.
		if resp.StatusCode < 300 {
			rn.cancelled.Inc()
		}
	}
	if v := resp.Header.Get(edge.HeaderBytes); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			rn.logicalBytes.Add(n)
		}
	}
	site := w.sites[rec.Publisher]
	if site == nil {
		site = rn.sites.counter(rn.reg, rec.Publisher)
		w.sites[rec.Publisher] = site
	}
	site.Inc()
	status := w.statuses[resp.StatusCode]
	if status == nil {
		status = rn.statuses.counter(rn.reg, strconv.Itoa(resp.StatusCode))
		w.statuses[resp.StatusCode] = status
	}
	status.Inc()
}

// stats reads the run's families back from the registry, less what they
// held when the run began.
func (rn *run) stats(elapsed time.Duration) *Stats {
	now := rn.reg.Snapshot()
	count := func(name string) int64 { return now.Counters[name] - rn.start.Counters[name] }
	st := &Stats{
		Requests:     count(requestsMetric),
		Errors:       count(errorsMetric),
		Retries:      count(retriesMetric),
		Hits:         count(hitsMetric),
		Misses:       count(missesMetric),
		Shed:         count(shedMetric),
		Cancelled:    count(cancelledMetric),
		LogicalBytes: count(logicalBytesMetric),
		WireBytes:    count(wireBytesMetric),
		BySite:       map[string]int64{},
		ByStatus:     map[int]int64{},
		Duration:     elapsed,
		Latency:      now.Histograms[latencyMetric].Less(rn.start.Histograms[latencyMetric]),
		QueuedDelay:  now.Histograms[queuedDelayMetric].Less(rn.start.Histograms[queuedDelayMetric]),
	}
	if msg := rn.firstErr.Load(); msg != nil {
		st.FirstError = *msg
	}
	for site := range rn.sites.seen {
		st.BySite[site] = count(obs.Name(siteMetric, "site", site))
	}
	for code := range rn.statuses.seen {
		n, _ := strconv.Atoi(code)
		st.ByStatus[n] = count(obs.Name(statusMetric, "code", code))
	}
	return st
}
