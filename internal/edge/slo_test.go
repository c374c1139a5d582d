package edge

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"trafficscope/internal/obs"
	"trafficscope/internal/obs/slo"
	"trafficscope/internal/timeutil"
)

func TestHealthzDraining(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func() (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}
	if code, body := get(); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("before drain: %d %q", code, body)
	}
	s.StartDraining()
	if code, body := get(); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("during drain: %d %q, want 503 draining", code, body)
	}
}

// With DrainGrace set, the listener keeps serving after ctx cancel long
// enough for a load balancer to see /healthz flip to 503 draining.
func TestDrainGraceExposesDrainingHealthz(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- s.ListenAndServe(ctx, ListenConfig{
			Addr:         "127.0.0.1:0",
			DrainTimeout: 2 * time.Second,
			DrainGrace:   500 * time.Millisecond,
			OnReady:      func(addr string) { ready <- addr },
		})
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}

	cancel()
	// Within the grace window the server still answers — and reports
	// draining. Retry briefly: StartDraining runs on the drain goroutine.
	deadline := time.Now().Add(400 * time.Millisecond)
	var code int
	var body string
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err != nil {
			t.Fatalf("healthz during grace: %v", err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		code, body = resp.StatusCode, string(b)
		if code == http.StatusServiceUnavailable {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("healthz during grace: %d %q, want 503 draining", code, body)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Errorf("drained server returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not exit after grace + drain")
	}
}

// End-to-end agreement check: the JSON /slo report and /metrics describe
// the same requests, because the windows are read from the edge's own
// series. While the 1m window covers every request since start, the
// global scope's latency is the sum of the edge_request_seconds series
// and a region scope's is its region's series, bucket for bucket; and
// /metrics carries no SLO series of its own.
func TestSLOEndpointAgreesWithMetrics(t *testing.T) {
	policy, err := slo.ParsePolicy("window 1m; interval 1s; burn-windows 5s 1m; hit-ratio >= 90%; latency p99 <= 10s")
	if err != nil {
		t.Fatal(err)
	}
	region := testRecord().Region.String()
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Metrics: reg, SLO: slo.NewEngine(policy, region)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Two distinct objects (2 misses), then the first again (1 hit): hit
	// ratio 1/3, breaching the 90% floor. The bad request reaches no
	// region, so it counts in the global scope alone.
	recA, recB := testRecord(), testRecord()
	recB.ObjectID++
	for _, path := range []string{RequestPath(recA), RequestPath(recB), RequestPath(recA), ObjectPrefix + "bad"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	var rep slo.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	g := rep.Scopes[slo.GlobalScope]
	if g == nil || rep.Scopes[region] == nil {
		t.Fatalf("report lacks the global or the %s scope: %+v", region, rep)
	}
	if ws := g.Windows["1m"]; ws.Requests != 4 || ws.Hits != 1 || ws.Misses != 2 || ws.Errors != 1 {
		t.Fatalf("global 1m window: %+v", ws)
	}
	if ws := rep.Scopes[region].Windows["1m"]; ws.Requests != 3 || ws.Hits != 1 || ws.Misses != 2 || ws.Errors != 0 {
		t.Fatalf("%s 1m window: %+v", region, ws)
	}
	if !rep.Breached || !g.Breached {
		t.Fatal("1/3 hit ratio must breach the 90% floor")
	}
	breached := map[string]bool{}
	for _, o := range g.Objectives {
		breached[o.Name] = o.Breached
	}
	if b, ok := breached["hit_ratio"]; !ok || !b {
		t.Errorf("hit_ratio objective must breach: %+v", g.Objectives)
	}
	if b, ok := breached["latency_p99"]; !ok || b {
		t.Errorf("latency_p99 objective must hold: %+v", g.Objectives)
	}

	hists := reg.Snapshot().Histograms
	var all obs.HistogramValue
	for name, h := range hists {
		if strings.HasPrefix(name, "edge_request_seconds{") {
			if err := all.Merge(h); err != nil {
				t.Fatal(err)
			}
		}
	}
	for scope, hist := range map[string]obs.HistogramValue{
		slo.GlobalScope: all,
		region:          hists[obs.Name("edge_request_seconds", "region", region)],
	} {
		ws := rep.Scopes[scope].Windows["1m"]
		if !slices.Equal(ws.Latency.Bounds, hist.Bounds) || !slices.Equal(ws.Latency.Counts, hist.Counts) ||
			ws.Latency.Count != hist.Count {
			t.Errorf("%s 1m window latency %+v, edge_request_seconds %+v: want the same buckets", scope, ws.Latency, hist)
		}
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{
		"edge_requests_total 4\n",
		`edge_request_seconds_count{region="none"} 1` + "\n",
		`edge_results_total{region="europe",result="hit"} 1` + "\n",
		`edge_results_total{region="europe",result="miss"} 2` + "\n",
		`edge_results_total{region="none",result="error"} 1` + "\n",
	} {
		if !strings.Contains(string(page), series) {
			t.Errorf("/metrics lacks %q:\n%s", series, page)
		}
	}
	if strings.Contains(string(page), "ts_slo_") {
		t.Errorf("/metrics carries SLO series; /slo is their one surface:\n%s", page)
	}
}

// Failures before the CDN verdict land in the SLO windows as errors: a
// bad request and a misrouted request both count. Neither reaches a
// region of the edge, so they count in the global scope alone, even when
// the engine tracks the region the misrouted request named.
func TestSLOWindowsCountErrors(t *testing.T) {
	policy, err := slo.ParsePolicy("window 1m; interval 1s; burn-windows 1m; error-rate <= 1%")
	if err != nil {
		t.Fatal(err)
	}
	engine := slo.NewEngine(policy, timeutil.RegionEurope.String(), timeutil.RegionAsia.String())
	s := newTestServer(t, Config{SLO: engine, Regions: []timeutil.Region{timeutil.RegionAsia}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for path, want := range map[string]int{
		ObjectPrefix + "bad":      http.StatusBadRequest,
		RequestPath(testRecord()): http.StatusMisdirectedRequest, // a europe request at an asia edge
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}

	rep := engine.Report()
	ws := rep.Scopes[slo.GlobalScope].Windows["1m"]
	if ws.Requests != 2 || ws.Errors != 2 || ws.Hits != 0 || ws.Misses != 0 {
		t.Fatalf("global window after a bad and a misrouted request: %+v", ws)
	}
	for _, scope := range []string{timeutil.RegionEurope.String(), timeutil.RegionAsia.String()} {
		if ws := rep.Scopes[scope].Windows["1m"]; ws.Requests != 0 {
			t.Errorf("%s window: %+v, want no request", scope, ws)
		}
	}
	st := policy.Objectives[0].Evaluate(ws)
	if !st.Breached {
		t.Fatalf("100%% error rate must breach: %+v", st)
	}
}

func TestDebugTraceEndpoint(t *testing.T) {
	ring := NewTraceRing(4, 1)
	s := newTestServer(t, Config{Trace: ring})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rec := testRecord()
	for i := 0; i < 6; i++ {
		resp, err := http.Get(ts.URL + RequestPath(rec))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	var reply debugTraceReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if reply.Total != 6 {
		t.Fatalf("total = %d, want 6", reply.Total)
	}
	if len(reply.Events) != 4 {
		t.Fatalf("events = %d, want ring size 4", len(reply.Events))
	}
	// Oldest-first, and IDs are the request sequence numbers.
	for i := 1; i < len(reply.Events); i++ {
		if reply.Events[i].ID <= reply.Events[i-1].ID {
			t.Fatalf("events not oldest-first: %+v", reply.Events)
		}
	}
	first := reply.Events[0]
	if first.Result != ResultMiss && first.Result != ResultHit {
		t.Fatalf("first event result %q", first.Result)
	}
	last := reply.Events[len(reply.Events)-1]
	if last.Result != ResultHit || last.DC != rec.Region.String() || last.Bytes != rec.BytesServed {
		t.Fatalf("last event: %+v", last)
	}
	if last.TotalNanos <= 0 {
		t.Fatalf("last event has no latency: %+v", last)
	}
}

func TestTraceRingSamplingAndEviction(t *testing.T) {
	r := NewTraceRing(2, 3)
	ids := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	for _, id := range ids {
		if r.ShouldSample(id) {
			r.Add(TraceEvent{ID: id})
		}
	}
	// Sampled: 3, 6, 9. Ring of 2 keeps 6, 9.
	ev := r.Events()
	if len(ev) != 2 || ev[0].ID != 6 || ev[1].ID != 9 {
		t.Fatalf("events: %+v", ev)
	}
	if r.Total() != 3 {
		t.Fatalf("total = %d, want 3", r.Total())
	}
	var nilRing *TraceRing
	if nilRing.ShouldSample(1) {
		t.Fatal("nil ring must not sample")
	}
	nilRing.Add(TraceEvent{}) // must not panic
	if nilRing.Events() != nil || nilRing.Total() != 0 {
		t.Fatal("nil ring must be empty")
	}
	if NewTraceRing(0, 1) != nil {
		t.Fatal("size 0 must disable the ring")
	}
}

// Without Config.SLO the edge still keeps SLO windows: /slo answers 200
// with no objectives. /debug/trace 404s when the ring is off, so probes
// distinguish "disabled" from "empty".
func TestSLOAndTraceDisabled(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	var rep slo.Report
	err = json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/slo: status %d, %v; want 200 and a report", resp.StatusCode, err)
	}
	if g := rep.Scopes[slo.GlobalScope]; g == nil || len(g.Objectives) != 0 || rep.Breached {
		t.Errorf("/slo without a policy: %+v, want a global scope and no objectives", rep)
	}
	resp, err = http.Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/trace: status %d, want 404", resp.StatusCode)
	}
	// Without Config.Metrics the edge counts into a registry of its own,
	// and /metrics renders it.
	var page []byte
	for _, path := range []string{RequestPath(testRecord()), "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		page, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			t.Errorf("%s: status %d, want 2xx", path, resp.StatusCode)
		}
	}
	if !strings.Contains(string(page), "edge_requests_total 1\n") {
		t.Errorf("/metrics lacks edge_requests_total 1:\n%s", page)
	}
}
