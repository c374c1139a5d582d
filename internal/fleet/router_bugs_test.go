package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"trafficscope/internal/edge"
	"trafficscope/internal/obs"
	"trafficscope/internal/timeutil"
)

// logCapture collects Logf lines for assertions, safe for the router's
// concurrent probe goroutines.
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (l *logCapture) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *logCapture) contains(substr string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if strings.Contains(line, substr) {
			return true
		}
	}
	return false
}

// TestProxyMidBodyBackendKill pins the proxy relay accounting: a backend
// that answers headers and then dies mid-body must NOT count as a
// successful proxy. The truncation is counted in
// fleet_proxy_body_errors_total and feeds the backend's health state, so
// a repeatedly-truncating backend is evicted without waiting for probes.
// Before the fix, proxy() counted fleet_proxied_total and noteSuccess()
// before relaying the body and dropped io.CopyBuffer's error, so a
// backend could die mid-body on every request and still look perfectly
// healthy.
func TestProxyMidBodyBackendKill(t *testing.T) {
	const declared, written = 64 << 10, 100
	mux := http.NewServeMux()
	mux.HandleFunc(edge.ObjectPrefix, func(w http.ResponseWriter, _ *http.Request) {
		// Promise a body, deliver a fraction, die: the server closes the
		// connection short and the router's body read errors mid-relay.
		w.Header().Set("Content-Length", fmt.Sprint(declared))
		w.WriteHeader(http.StatusOK)
		w.Write(make([]byte, written))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	b := NewBackend("eu-trunc", ts.URL, timeutil.RegionEurope)
	logs := &logCapture{}
	r, err := NewRouter(RouterConfig{
		Backends:  []*Backend{b},
		FailAfter: 2,
		Metrics:   obs.NewRegistry(),
		Logf:      logs.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(func() http.Handler {
		mux := http.NewServeMux()
		r.Register(mux)
		return mux
	}())
	defer front.Close()

	resp, err := http.Get(front.URL + edge.RequestPath(failoverRecord(1)))
	if err != nil {
		t.Fatal(err)
	}
	body, readErr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (headers were already relayed)", resp.StatusCode)
	}
	// The client sees the truncation, one way or another: either a short
	// body against the declared length or a read error.
	if readErr == nil && int64(len(body)) >= int64(declared) {
		t.Fatalf("client read %d bytes without error, want truncation below %d", len(body), declared)
	}

	if got := r.bodyErrors.Value(); got != 1 {
		t.Errorf("fleet_proxy_body_errors_total = %d, want 1", got)
	}
	if got := r.proxied.Value(); got != 0 {
		t.Errorf("fleet_proxied_total = %d, want 0 — a truncated relay is not a successful proxy", got)
	}
	if b.consecFails.Load() != 1 {
		t.Errorf("consecFails = %d, want 1 — truncation must feed the health state", b.consecFails.Load())
	}

	// A second truncated request crosses FailAfter: evicted, with the log
	// line the probe path would have printed.
	resp, err = http.Get(front.URL + edge.RequestPath(failoverRecord(2)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if b.Healthy() {
		t.Error("backend still healthy after FailAfter mid-body deaths")
	}
	if !logs.contains("evicted") {
		t.Errorf("no eviction logged; got %v", logs.lines)
	}
}

// abortingWriter is a ResponseWriter whose client "hangs up" after
// accepting limit body bytes: further writes fail the way a dead
// connection does once the server has noticed it.
type abortingWriter struct {
	*httptest.ResponseRecorder
	limit   int
	written int
}

func (w *abortingWriter) Write(p []byte) (int, error) {
	if w.written >= w.limit {
		return 0, fmt.Errorf("client went away")
	}
	n := len(p)
	if rem := w.limit - w.written; n > rem {
		n = rem
	}
	w.written += n
	w.ResponseRecorder.Write(p[:n])
	if n < len(p) {
		return n, fmt.Errorf("client went away")
	}
	return n, nil
}

// cancellingWriter is a ResponseWriter whose client hangs up right after
// the first body bytes arrive: the server cancels the request context,
// as net/http does when it sees the connection close.
type cancellingWriter struct {
	*httptest.ResponseRecorder
	cancel context.CancelFunc
}

func (w *cancellingWriter) Write(p []byte) (int, error) {
	defer w.cancel()
	return w.ResponseRecorder.Write(p)
}

// TestProxyClientAbortDoesNotPunishBackend is the other relay direction:
// the client hanging up mid-body is counted as a body error but must not
// feed the backend's failure state (the backend held up its end). The
// hang-up shows either as a failed write to the client or, while the
// backend is still sending, as a backend read cut short by the cancelled
// request context.
func TestProxyClientAbortDoesNotPunishBackend(t *testing.T) {
	for _, c := range []struct {
		name    string
		backend http.HandlerFunc
		writer  func(cancel context.CancelFunc) http.ResponseWriter
	}{
		{
			name: "write fails",
			backend: func(w http.ResponseWriter, _ *http.Request) {
				w.Write(make([]byte, 64<<10)) // a healthy backend, full body
			},
			writer: func(context.CancelFunc) http.ResponseWriter {
				return &abortingWriter{ResponseRecorder: httptest.NewRecorder(), limit: 100}
			},
		},
		{
			name: "request cancelled mid-read",
			backend: func(w http.ResponseWriter, r *http.Request) {
				// A healthy backend still sending when the client leaves.
				w.Header().Set("Content-Length", fmt.Sprint(64<<10))
				w.Write(make([]byte, 100))
				w.(http.Flusher).Flush()
				select {
				case <-r.Context().Done():
				case <-time.After(5 * time.Second):
				}
			},
			writer: func(cancel context.CancelFunc) http.ResponseWriter {
				return &cancellingWriter{ResponseRecorder: httptest.NewRecorder(), cancel: cancel}
			},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			mux := http.NewServeMux()
			mux.HandleFunc(edge.ObjectPrefix, c.backend)
			ts := httptest.NewServer(mux)
			defer ts.Close()

			b := NewBackend("eu-ok", ts.URL, timeutil.RegionEurope)
			r, err := NewRouter(RouterConfig{Backends: []*Backend{b}, Metrics: obs.NewRegistry(), Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req := httptest.NewRequest(http.MethodGet, edge.RequestPath(failoverRecord(1)), nil).WithContext(ctx)
			if !r.proxy(c.writer(cancel), req, b) {
				t.Fatal("proxy reported transport failure; the backend answered")
			}

			if got := r.bodyErrors.Value(); got != 1 {
				t.Errorf("fleet_proxy_body_errors_total = %d, want 1", got)
			}
			if got := r.proxied.Value(); got != 0 {
				t.Errorf("fleet_proxied_total = %d, want 0 for an aborted relay", got)
			}
			if got := b.consecFails.Load(); got != 0 {
				t.Errorf("consecFails = %d — a client abort must not punish the backend", got)
			}
			if !b.Healthy() {
				t.Error("backend unhealthy after a client abort")
			}
		})
	}
}

// TestProxyLogsLiveTrafficRecovery: the request path's noteSuccess()
// return value was discarded, so a backend restored by live traffic
// (rather than a probe) never logged "recovered". The log line is how
// operators see flap timelines; both recovery paths must emit it.
func TestProxyLogsLiveTrafficRecovery(t *testing.T) {
	ts := httptest.NewServer(newEuropeEdge(t).Handler())
	defer ts.Close()

	b := NewBackend("eu-flap", ts.URL, timeutil.RegionEurope)
	logs := &logCapture{}
	r, err := NewRouter(RouterConfig{Backends: []*Backend{b}, Metrics: obs.NewRegistry(), Logf: logs.logf})
	if err != nil {
		t.Fatal(err)
	}
	// Evict the backend, as a probe outage would have.
	b.noteFailure(1)
	if b.Healthy() {
		t.Fatal("backend should be evicted")
	}

	// Drive proxy() directly — the routing loop skips unhealthy backends,
	// but a request already in flight when the eviction lands takes this
	// path and is the live-traffic recovery the router must log.
	req := httptest.NewRequest(http.MethodGet, edge.RequestPath(failoverRecord(1)), nil)
	w := httptest.NewRecorder()
	if !r.proxy(w, req, b) {
		t.Fatal("proxy reported transport failure against a live backend")
	}
	if !b.Healthy() {
		t.Error("successful proxy did not restore the backend")
	}
	if !logs.contains("recovered") {
		t.Errorf("live-traffic recovery not logged; got %v", logs.lines)
	}
	if got := r.proxied.Value(); got != 1 {
		t.Errorf("fleet_proxied_total = %d, want 1", got)
	}
}

// TestProbeShutdownIsNotBackendFailure: on SIGINT the probe's
// context.WithTimeout inherits the dying root context, so every backend's
// in-flight probe failed at once — spurious "evicted" log lines and
// probe-failure counts on every shutdown. A probe cut short by shutdown
// must not count against the backend.
func TestProbeShutdownIsNotBackendFailure(t *testing.T) {
	probing := make(chan struct{}, 1)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		select {
		case probing <- struct{}{}:
		default:
		}
		<-req.Context().Done() // hold the probe until shutdown cancels it
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	b := NewBackend("eu-held", ts.URL, timeutil.RegionEurope)
	logs := &logCapture{}
	r, err := NewRouter(RouterConfig{
		Backends:      []*Backend{b},
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  time.Minute, // only shutdown can end the probe
		FailAfter:     1,
		Metrics:       obs.NewRegistry(),
		Logf:          logs.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.Start(ctx)
	<-probing // a probe is in flight against the held /healthz
	cancel()  // SIGINT

	// The cancelled probe fails back into probeLoop; give it time to
	// (wrongly) account the failure before asserting it didn't.
	time.Sleep(50 * time.Millisecond)
	if got := r.probeFails.Value(); got != 0 {
		t.Errorf("fleet_probe_failures_total = %d after shutdown, want 0", got)
	}
	if !b.Healthy() {
		t.Error("backend evicted by its own router's shutdown")
	}
	if logs.contains("evicted") {
		t.Errorf("shutdown logged a spurious eviction: %v", logs.lines)
	}
}

// TestCandidateOrderWideRegionAllocs: the route scratch's order buffer
// was a fixed [8]int, so a region with more than 8 backends grew a fresh
// slice on every request and threw it away at Put. The buffer is now
// sized from the largest region set at NewRouter time; the ring walk
// must stay allocation-free however wide the region is.
func TestCandidateOrderWideRegionAllocs(t *testing.T) {
	const n = 12 // wider than the old [8]int scratch
	bs := make([]*Backend, n)
	for i := range bs {
		bs[i] = NewBackend(fmt.Sprintf("eu-%d", i), "http://127.0.0.1:1", timeutil.RegionEurope)
	}
	r, err := NewRouter(RouterConfig{Backends: bs, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}

	// Correctness first: the walk covers every backend exactly once.
	sc := r.scratch.Get().(*routeScratch)
	sc.rec.ObjectID = 0xfeedface
	order := r.candidateOrder(sc, timeutil.RegionEurope)
	if len(order) != n {
		t.Fatalf("order covers %d backends, want %d", len(order), n)
	}
	seen := make([]bool, n)
	for _, i := range order {
		if i < 0 || i >= n || seen[i] {
			t.Fatalf("order %v is not a permutation of 0..%d", order, n-1)
		}
		seen[i] = true
	}
	r.scratch.Put(sc)

	var obj uint64
	allocs := testing.AllocsPerRun(200, func() {
		sc := r.scratch.Get().(*routeScratch)
		obj++
		sc.rec.ObjectID = obj * 0x9e3779b97f4a7c15
		if got := r.candidateOrder(sc, timeutil.RegionEurope); len(got) != n {
			t.Fatalf("order covers %d backends, want %d", len(got), n)
		}
		r.scratch.Put(sc)
	})
	if allocs != 0 {
		t.Errorf("candidate order for a %d-backend region allocates %.1f/op, want 0", n, allocs)
	}
}
