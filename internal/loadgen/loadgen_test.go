package loadgen

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"trafficscope/internal/edge"
	"trafficscope/internal/obs"
	"trafficscope/internal/obs/slo"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// makeRecords builds n well-formed records spaced dt apart in trace time.
func makeRecords(n int, dt time.Duration) []*trace.Record {
	t0 := time.Date(2016, 4, 12, 0, 0, 0, 0, time.UTC)
	recs := make([]*trace.Record, n)
	for i := range recs {
		recs[i] = &trace.Record{
			Timestamp:  t0.Add(time.Duration(i) * dt),
			Publisher:  "V-1",
			ObjectID:   uint64(i),
			FileType:   "jpg",
			ObjectSize: 1024,
			UserID:     uint64(i % 3),
			Region:     timeutil.RegionNorthAmerica,
		}
	}
	return recs
}

// deadTarget returns a URL with nothing listening on it.
func deadTarget(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return "http://" + addr
}

func TestRunRequiresTarget(t *testing.T) {
	if _, err := Run(context.Background(), Config{}, trace.NewSliceReader(nil)); err == nil {
		t.Fatal("Run without Target: want error")
	}
}

func TestRetriesAndErrors(t *testing.T) {
	const n, retries = 4, 2
	st, err := Run(context.Background(), Config{
		Target:  deadTarget(t),
		Workers: 2,
		Retries: retries,
		Backoff: time.Millisecond,
		Timeout: time.Second,
	}, trace.NewSliceReader(makeRecords(n, 0)))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Errors != n {
		t.Errorf("errors = %d, want %d (every record fails)", st.Errors, n)
	}
	if st.Requests != 0 {
		t.Errorf("requests = %d, want 0 (nothing completed)", st.Requests)
	}
	if st.Retries != n*retries {
		t.Errorf("retries = %d, want %d (%d per record)", st.Retries, n*retries, retries)
	}
}

func TestStatusesAreNotRetried(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()

	const n = 5
	st, err := Run(context.Background(), Config{
		Target:  ts.URL,
		Retries: 3,
	}, trace.NewSliceReader(makeRecords(n, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != n {
		t.Errorf("server saw %d requests, want %d (HTTP errors must not retry)", got, n)
	}
	if st.Requests != n || st.Errors != 0 || st.Retries != 0 {
		t.Errorf("stats = %+v, want %d completed requests and no errors/retries", st, n)
	}
	if st.ByStatus[http.StatusInternalServerError] != n {
		t.Errorf("byStatus[500] = %d, want %d", st.ByStatus[http.StatusInternalServerError], n)
	}
}

// TestRunRedirectsDisabled: a 307 is the target's answer. It is recorded
// under its status, not followed and not counted as an error.
func TestRunRedirectsDisabled(t *testing.T) {
	var elsewhere atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		elsewhere.Add(1)
	}))
	defer backend.Close()
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, backend.URL+r.URL.RequestURI(), http.StatusTemporaryRedirect)
	}))
	defer front.Close()

	const n = 3
	st, err := Run(context.Background(), Config{Target: front.URL, Workers: 1},
		trace.NewSliceReader(makeRecords(n, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != n || st.Errors != 0 {
		t.Errorf("stats = %+v, want %d completed requests and no errors", st, n)
	}
	if st.ByStatus[http.StatusTemporaryRedirect] != n {
		t.Errorf("by-status = %v, want %d raw 307s", st.ByStatus, n)
	}
	if got := elsewhere.Load(); got != 0 {
		t.Errorf("the redirect target saw %d requests, want none", got)
	}
}

func TestResponseAccounting(t *testing.T) {
	// A synthetic edge: odd object IDs hit with 100 logical bytes, even
	// IDs are shed with 503.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := new(trace.Record)
		if err := edge.ParseRequestInto(r, rec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if rec.ObjectID%2 == 0 {
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set(edge.HeaderCache, trace.CacheHit.String())
		w.Header().Set(edge.HeaderBytes, strconv.Itoa(100))
		w.Write([]byte("hello"))
	}))
	defer ts.Close()

	const n = 6
	st, err := Run(context.Background(), Config{Target: ts.URL}, trace.NewSliceReader(makeRecords(n, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != n || st.Shed != n/2 || st.Hits != n/2 {
		t.Errorf("stats = %+v, want %d requests, %d shed, %d hits", st, n, n/2, n/2)
	}
	if st.LogicalBytes != 100*(n/2) {
		t.Errorf("logical bytes = %d, want %d", st.LogicalBytes, 100*(n/2))
	}
	if st.WireBytes != 5*(n/2)+int64(len("overloaded\n"))*(n/2) {
		t.Errorf("wire bytes = %d", st.WireBytes)
	}
	if st.BySite["V-1"] != n {
		t.Errorf("bySite = %v, want V-1:%d", st.BySite, n)
	}
	if st.Latency.Count != n {
		t.Errorf("latency count = %d, want %d", st.Latency.Count, n)
	}
	if st.RPS() <= 0 {
		t.Errorf("RPS = %v, want > 0", st.RPS())
	}
}

func TestOpenLoopPacing(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	// 11 records spaced 1 trace-second apart at 25x speedup: the last
	// dispatch happens 400ms after the first. Without pacing this trace
	// replays in a few milliseconds.
	start := time.Now()
	st, err := Run(context.Background(), Config{
		Target:  ts.URL,
		Speedup: 25,
		Workers: 4,
	}, trace.NewSliceReader(makeRecords(11, time.Second)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 11 {
		t.Fatalf("requests = %d, want 11", st.Requests)
	}
	if elapsed := time.Since(start); elapsed < 350*time.Millisecond {
		t.Errorf("paced replay finished in %v, want >= ~400ms", elapsed)
	}
}

func TestCancelStopsDispatch(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		<-release
		w.Write([]byte("ok"))
	}))
	defer ts.Close()
	defer close(release)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var st *Stats
	var runErr error
	go func() {
		defer close(done)
		st, runErr = Run(ctx, Config{
			Target:  ts.URL,
			Workers: 1,
			Timeout: 50 * time.Millisecond,
			Speedup: 1, // trace spans 1000s: cancellation must cut it short
		}, trace.NewSliceReader(makeRecords(1000, time.Second)))
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	if runErr != context.Canceled {
		t.Errorf("Run returned %v, want context.Canceled", runErr)
	}
	if st == nil {
		t.Fatal("Run returned nil stats on cancellation")
	}
	if total := st.Requests + st.Errors; total >= 1000 {
		t.Errorf("replay completed %d records despite cancellation", total)
	}
}

func TestCancelledExchangeCounted(t *testing.T) {
	// A 200 with no X-TS-Cache header models the edge's implicit
	// response after the client gave up mid-origin-fetch: it must land
	// in Cancelled, not in hits or misses.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	const n = 4
	st, err := Run(context.Background(), Config{Target: ts.URL}, trace.NewSliceReader(makeRecords(n, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Cancelled != n {
		t.Errorf("cancelled = %d, want %d", st.Cancelled, n)
	}
	if st.Hits != 0 || st.Misses != 0 {
		t.Errorf("hits/misses = %d/%d, want 0/0 (no cache verdict)", st.Hits, st.Misses)
	}
	if st.Requests != n {
		t.Errorf("requests = %d, want %d", st.Requests, n)
	}
}

func TestDeadlineExceededIsNotRetried(t *testing.T) {
	// The server has probably already served a timed-out request, so
	// retrying it would double-serve the record and skew
	// live-vs-offline accounting; the per-request deadline must count
	// as a cancelled error instead.
	var calls atomic.Int64
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		<-release
	}))
	defer ts.Close()
	defer close(release) // unblock the handler before ts.Close waits on it

	st, err := Run(context.Background(), Config{
		Target:  ts.URL,
		Workers: 1,
		Timeout: 50 * time.Millisecond,
		Retries: 3,
		Backoff: time.Millisecond,
	}, trace.NewSliceReader(makeRecords(1, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("server saw %d attempts, want 1 (deadline must not retry)", got)
	}
	if st.Retries != 0 || st.Errors != 1 || st.Cancelled != 1 {
		t.Errorf("stats = retries %d, errors %d, cancelled %d; want 0/1/1",
			st.Retries, st.Errors, st.Cancelled)
	}
}

// TestTruncatedBodyIsAnError: an exchange counts as completed only once
// its whole body arrived. A body cut short — the server died mid-body,
// or the deadline fired mid-body — is an error, never retried (the
// server already counted the record) and never a hit.
func TestTruncatedBodyIsAnError(t *testing.T) {
	const declared = 64 << 10
	for _, c := range []struct {
		name      string
		half      bool // write half the body, then stall past the deadline
		cancelled int64
		errSubstr string
	}{
		{name: "server dies mid-body", errSubstr: "unexpected EOF"},
		{name: "deadline mid-body", half: true, cancelled: 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Length", strconv.Itoa(declared))
				w.Header().Set(edge.HeaderCache, trace.CacheHit.String())
				if !c.half {
					w.Write(make([]byte, 100))
					return
				}
				w.Write(make([]byte, declared/2))
				w.(http.Flusher).Flush()
				select {
				case <-r.Context().Done():
				case <-time.After(5 * time.Second):
				}
			}))
			defer ts.Close()

			st, err := Run(context.Background(), Config{
				Target:  ts.URL,
				Workers: 1,
				Timeout: 100 * time.Millisecond,
				Retries: 2,
				Backoff: time.Millisecond,
			}, trace.NewSliceReader(makeRecords(1, 0)))
			if err != nil {
				t.Fatal(err)
			}
			if st.Requests != 0 || st.Errors != 1 || st.Hits != 0 || st.Retries != 0 || st.Cancelled != c.cancelled {
				t.Errorf("requests %d, errors %d, hits %d, retries %d, cancelled %d; want 0/1/0/0/%d",
					st.Requests, st.Errors, st.Hits, st.Retries, st.Cancelled, c.cancelled)
			}
			if len(st.ByStatus) != 0 {
				t.Errorf("by-status = %v, want nothing recorded", st.ByStatus)
			}
			if !strings.Contains(st.FirstError, c.errSubstr) {
				t.Errorf("first error %q, want it to contain %q", st.FirstError, c.errSubstr)
			}
		})
	}
}

// TestDeadlineReusedAcrossAttempts: one worker reuses one deadline for
// every attempt. The third record stalls past the timeout; its fired
// timer must not reach the records after it, which all complete.
func TestDeadlineReusedAcrossAttempts(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := new(trace.Record)
		if err := edge.ParseRequestInto(r, rec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if rec.ObjectID == 2 {
			time.Sleep(200 * time.Millisecond)
		}
		w.Header().Set(edge.HeaderCache, trace.CacheHit.String())
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	st, err := Run(context.Background(), Config{
		Target:  ts.URL,
		Workers: 1,
		Timeout: 50 * time.Millisecond,
	}, trace.NewSliceReader(makeRecords(6, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Cancelled != 1 || st.Errors != 1 || st.Requests != 5 || st.Hits != 5 {
		t.Errorf("cancelled %d, errors %d, requests %d, hits %d; want 1/1/5/5 (%s)",
			st.Cancelled, st.Errors, st.Requests, st.Hits, st.FirstError)
	}
}

// TestRunRequestHeaders pins what a request carries on the wire: no
// User-Agent and Accept-Encoding identity, whether Run builds its own
// transport or uses the one Config.Client carries. A Client field Run
// would ignore is refused, and a transport error still names the URL.
func TestRunRequestHeaders(t *testing.T) {
	type seen struct {
		agent    bool
		encoding []string
	}
	got := make(chan seen, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, agent := r.Header["User-Agent"]
		got <- seen{agent, r.Header.Values("Accept-Encoding")}
	}))
	defer ts.Close()

	for _, client := range []*http.Client{nil, {Transport: &http.Transport{}}} {
		if _, err := Run(context.Background(), Config{Target: ts.URL, Workers: 1, Client: client},
			trace.NewSliceReader(makeRecords(1, 0))); err != nil {
			t.Fatal(err)
		}
		h := <-got
		if h.agent {
			t.Errorf("client %v: request carried a User-Agent", client)
		}
		if len(h.encoding) != 1 || h.encoding[0] != "identity" {
			t.Errorf("client %v: Accept-Encoding %q, want exactly identity", client, h.encoding)
		}
	}

	for _, client := range []*http.Client{
		{Timeout: time.Second},
		{CheckRedirect: func(*http.Request, []*http.Request) error { return nil }},
		{Jar: noJar{}},
	} {
		if _, err := Run(context.Background(), Config{Target: ts.URL, Client: client},
			trace.NewSliceReader(makeRecords(1, 0))); err == nil {
			t.Errorf("Run with Client %+v: want an error", client)
		}
	}

	dead := deadTarget(t)
	st, err := Run(context.Background(), Config{Target: dead, Workers: 1},
		trace.NewSliceReader(makeRecords(1, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if want := `Get "` + dead + `/o/`; !strings.Contains(st.FirstError, want) {
		t.Errorf("first error %q, want it to contain %q", st.FirstError, want)
	}
}

// noJar is a cookie jar that keeps nothing.
type noJar struct{}

func (noJar) SetCookies(*url.URL, []*http.Cookie) {}
func (noJar) Cookies(*url.URL) []*http.Cookie     { return nil }

// TestLatencyIncludesQueuedDelay is the coordinated-omission regression
// test: with one worker, a paced schedule that dispatches records
// back-to-back, and a server that stalls each request, every record
// after the first waits client-side before it can even be sent. The old
// accounting started the latency clock at the actual send, hiding that
// wait exactly when the server was slow; latency must now be measured
// from the scheduled send time, with the queued share also reported in
// QueuedDelay.
func TestLatencyIncludesQueuedDelay(t *testing.T) {
	const stall = 40 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(stall)
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	// 5 records at the same trace timestamp, huge speedup: all are
	// scheduled at t=0, but the single worker serializes them, so record
	// i waits ~i*stall in the queue.
	const n = 5
	st, err := Run(context.Background(), Config{
		Target:  ts.URL,
		Workers: 1,
		Speedup: 1e9,
	}, trace.NewSliceReader(makeRecords(n, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != n {
		t.Fatalf("requests = %d, want %d", st.Requests, n)
	}
	if st.QueuedDelay.Count != n {
		t.Errorf("queued delay count = %d, want %d", st.QueuedDelay.Count, n)
	}
	// Total time in queue across the run is ~(0+1+...+n-1)*stall; the
	// histogram sum is a direct read of it (generous lower bound for CI
	// timer slop).
	wantQueued := (time.Duration(n*(n-1)/2) * stall).Seconds()
	if st.QueuedDelay.Sum < wantQueued/2 {
		t.Errorf("queued delay sum = %gs, want >= %gs (queue wait dropped?)",
			st.QueuedDelay.Sum, wantQueued/2)
	}
	// Latency must fold the queued share in: its sum is at least the
	// queued sum plus one stall per request.
	if minLat := st.QueuedDelay.Sum + float64(n)*stall.Seconds()/2; st.Latency.Sum < minLat {
		t.Errorf("latency sum = %gs, want >= %gs (queued delay not folded in)",
			st.Latency.Sum, minLat)
	}
}

// TestWorkerHistogramsMerge pins the per-worker-telemetry refactor:
// with many workers racing, the merged latency/queued-delay histograms
// and per-site/status maps must still account for every exchange
// exactly once, in the same snapshot shape as before.
func TestWorkerHistogramsMerge(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := new(trace.Record)
		if err := edge.ParseRequestInto(r, rec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set(edge.HeaderCache, trace.CacheHit.String())
		w.Header().Set(edge.HeaderBytes, strconv.FormatInt(rec.ObjectSize, 10))
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	const n = 200
	st, err := Run(context.Background(), Config{
		Target:  ts.URL,
		Workers: 8,
	}, trace.NewSliceReader(makeRecords(n, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != n || st.Hits != n {
		t.Fatalf("stats = %+v, want %d requests, all hits", st, n)
	}
	if st.Latency.Count != n {
		t.Errorf("latency count = %d, want %d (worker histograms lost in merge?)", st.Latency.Count, n)
	}
	if st.QueuedDelay.Count != n {
		t.Errorf("queued delay count = %d, want %d", st.QueuedDelay.Count, n)
	}
	if st.BySite["V-1"] != n {
		t.Errorf("bySite = %v, want V-1:%d", st.BySite, n)
	}
	if st.ByStatus[http.StatusOK] != n {
		t.Errorf("byStatus = %v, want 200:%d", st.ByStatus, n)
	}
	if st.Latency.Sum <= 0 {
		t.Errorf("latency sum = %g, want > 0", st.Latency.Sum)
	}
}

// TestRunsShareRegistry: Stats cover their own run only, histograms
// included, when runs count into one registry in sequence.
func TestRunsShareRegistry(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set(edge.HeaderCache, trace.CacheHit.String())
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	const n = 10
	reg := obs.NewRegistry()
	for run := 1; run <= 2; run++ {
		st, err := Run(context.Background(), Config{Target: ts.URL, Workers: 2, Metrics: reg},
			trace.NewSliceReader(makeRecords(n, 0)))
		if err != nil {
			t.Fatal(err)
		}
		if st.Requests != n || st.Hits != n || st.BySite["V-1"] != n || st.ByStatus[http.StatusOK] != n {
			t.Errorf("run %d: %+v, want %d requests, hits, V-1 and 200s", run, st, n)
		}
		if st.Latency.Count != st.Requests || st.QueuedDelay.Count != st.Requests {
			t.Errorf("run %d: latency count %d, queued delay count %d, want its %d requests",
				run, st.Latency.Count, st.QueuedDelay.Count, st.Requests)
		}
	}
	if got := reg.Snapshot().Counters["loadgen_requests_total"]; got != 2*n {
		t.Errorf("loadgen_requests_total = %d after two runs, want %d", got, 2*n)
	}
}

// TestLatencyCountedLive: a request is in the latency histograms as soon
// as loadgen_requests_total counts it, not only once the run ends. The
// paced trace sends ten records, then waits before its last.
func TestLatencyCountedLive(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	const n = 10
	recs := makeRecords(n+1, 0)
	recs[n].Timestamp = recs[0].Timestamp.Add(time.Second)
	reg := obs.NewRegistry()
	done := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), Config{Target: ts.URL, Workers: 2, Speedup: 2, Metrics: reg},
			trace.NewSliceReader(recs))
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); reg.Counter("loadgen_requests_total").Value() < n; {
		if time.Now().After(deadline) {
			t.Fatal("the first records never completed")
		}
		time.Sleep(time.Millisecond)
	}
	snap := reg.Snapshot()
	requests := snap.Counters["loadgen_requests_total"]
	for _, h := range []string{"loadgen_latency_seconds", "loadgen_queued_delay_seconds"} {
		if got := snap.Histograms[h].Count; got != requests {
			t.Errorf("mid-run %s counts %d, loadgen_requests_total %d", h, got, requests)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestNextBackoffCaps(t *testing.T) {
	b := 20 * time.Millisecond
	for i := 0; i < 20; i++ {
		b = nextBackoff(b)
		if b > maxRetryBackoff {
			t.Fatalf("backoff grew to %v past cap %v after %d doublings", b, maxRetryBackoff, i+1)
		}
	}
	if b != maxRetryBackoff {
		t.Errorf("backoff settled at %v, want cap %v", b, maxRetryBackoff)
	}
}

// SLOWindow maps a run summary onto the slo.WindowStats shape: attempts
// include transport failures, client-visible errors include sheds, and
// the latency histogram rides along unchanged.
func TestStatsSLOWindow(t *testing.T) {
	st := &Stats{
		Requests: 90, // completed exchanges (includes the 5 sheds)
		Errors:   10, // transport failures
		Hits:     60,
		Misses:   25,
		Shed:     5,
		Duration: 30 * time.Second,
		Latency:  obs.HistogramValue{Bounds: []float64{1}, Counts: []int64{90, 0}, Count: 90, Sum: 9},
	}
	ws := st.SLOWindow()
	if ws.Requests != 100 || ws.Errors != 15 || ws.Hits != 60 || ws.Misses != 25 {
		t.Fatalf("window: %+v", ws)
	}
	if ws.WindowSeconds != 30 {
		t.Fatalf("window seconds: %g", ws.WindowSeconds)
	}
	if ws.Latency.Count != 90 || ws.Latency.Sum != 9 {
		t.Fatalf("latency: %+v", ws.Latency)
	}
	if got := ws.ErrorRate(); got != 0.15 {
		t.Fatalf("error rate %g, want 0.15", got)
	}
	// A policy evaluated against the window sees the mapped numbers.
	p, err := slo.ParsePolicy("error-rate <= 10%; hit-ratio >= 50%")
	if err != nil {
		t.Fatal(err)
	}
	reps, breached := p.EvaluateStats(ws, "")
	if !breached {
		t.Fatal("15% error rate must breach the 10% ceiling")
	}
	if len(reps) != 2 || !reps[0].Breached || reps[1].Breached {
		t.Fatalf("verdicts: %+v", reps)
	}
}
