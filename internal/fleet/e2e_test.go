package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"trafficscope/internal/cdn"
	"trafficscope/internal/edge"
	"trafficscope/internal/loadgen"
	"trafficscope/internal/obs"
	"trafficscope/internal/obs/slo"
	"trafficscope/internal/synth"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// mkE2ECDN builds the order-insensitive CDN config both sides of the
// equivalence test share: caches too large to evict and whole-object
// caching, so per-DC totals are independent of request interleaving
// (see loadgen's TestLiveReplayConcurrentMatchesPerDCTotals for why).
func mkE2ECDN() *cdn.CDN {
	return cdn.New(cdn.Config{
		NewCache:   func() cdn.Cache { return cdn.NewLRU(16 << 30) },
		ChunkBytes: -1,
	})
}

// e2ePolicy carries generous thresholds: the e2e asserts the merged
// cluster /slo is gateable (tsgate would exit 0), not that this machine
// is fast.
func e2ePolicy(t *testing.T) slo.Policy {
	t.Helper()
	p, err := slo.ParsePolicy(`window 1m
interval 1s
burn-windows 5s 1m 5m

latency p99 <= 5s
error-rate <= 5%
hit-ratio >= 1%
`)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// dcBackend is one single-DC edge process stand-in: a region-scoped
// edge.Server over httptest wrapped as a fleet Backend.
type dcBackend struct {
	region timeutil.Region
	cdn    *cdn.CDN
	srv    *edge.Server
	ts     *httptest.Server
	b      *Backend
}

// startDCBackends spins one region-scoped backend per trace region,
// each with its own CDN, metrics registry and SLO engine — the in-proc
// equivalent of four `tsserve -dc <region>` processes. A non-empty
// shieldURL points every backend's miss path at an origin shield, the
// in-proc equivalent of `tsserve -shield <url>`.
func startDCBackends(t *testing.T, shieldURL string) []*dcBackend {
	t.Helper()
	var out []*dcBackend
	for _, r := range timeutil.AllRegions() {
		network := mkE2ECDN()
		srv, err := edge.New(edge.Config{
			CDN:       network,
			Regions:   []timeutil.Region{r},
			Name:      r.String(),
			ShieldURL: shieldURL,
			Metrics:   obs.NewRegistry(),
			SLO:       slo.NewEngine(e2ePolicy(t), r.String()),
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		out = append(out, &dcBackend{
			region: r,
			cdn:    network,
			srv:    srv,
			ts:     ts,
			b:      NewBackend(r.String(), ts.URL, r),
		})
	}
	return out
}

func e2eTrace(t *testing.T) []*trace.Record {
	t.Helper()
	gen, err := synth.NewGenerator(synth.Config{Seed: 43, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	trace.SortByTime(recs)
	return recs
}

// TestRouterReplayMatchesOfflinePerDC is the fleet's end-to-end
// acceptance test: tsload-style replay through a proxying router over
// four single-DC backends must produce per-DC totals identical to an
// offline CDN.Replay of the same records, and the collector's merged
// /stats and /slo must present the cluster as one gateable server.
func TestRouterReplayMatchesOfflinePerDC(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a few thousand records over HTTP")
	}
	recs := e2eTrace(t)

	offline := mkE2ECDN()
	if err := offline.Replay(trace.NewSliceReader(recs), func(*trace.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}

	backends := startDCBackends(t, "")
	bs := make([]*Backend, len(backends))
	for i, d := range backends {
		bs[i] = d.b
	}
	router, err := NewRouter(RouterConfig{Backends: bs, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	collector, err := NewCollector(CollectorConfig{Backends: bs, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	router.Start(ctx)

	mux := http.NewServeMux()
	router.Register(mux)
	collector.Register(mux)
	front := httptest.NewServer(mux)
	defer front.Close()

	st, err := loadgen.Run(ctx, loadgen.Config{
		Target:  front.URL,
		Workers: 8,
		Speedup: 0,
	}, trace.NewSliceReader(recs))
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 0 || st.Shed != 0 {
		t.Fatalf("replay through router: %d errors, %d shed", st.Errors, st.Shed)
	}
	if st.Requests != int64(len(recs)) {
		t.Fatalf("completed %d requests, want %d", st.Requests, len(recs))
	}

	// The per-DC equivalence guarantee, now across process boundaries:
	// each backend's single DC must match the offline replay exactly.
	var liveTotal cdn.DCStats
	for _, d := range backends {
		got := d.cdn.DC(d.region).StatsSnapshot()
		want := offline.DC(d.region).StatsSnapshot()
		if got != want {
			t.Errorf("DC %v: live totals %+v, want offline %+v", d.region, got, want)
		}
		addDCStats(&liveTotal, got)
		// No traffic may leak into a backend's foreign DCs.
		for _, other := range timeutil.AllRegions() {
			if other == d.region {
				continue
			}
			if foreign := d.cdn.DC(other).StatsSnapshot(); foreign.Requests != 0 {
				t.Errorf("backend %v served %d requests for foreign DC %v", d.region, foreign.Requests, other)
			}
		}
	}
	if wantTotal := offline.TotalStats(); liveTotal != wantTotal {
		t.Errorf("summed live totals %+v, want offline %+v", liveTotal, wantTotal)
	}

	// The collector must reassemble the same numbers into one cluster
	// view, reachable over the router's own /stats.
	collector.PollOnce(context.Background())
	stats, ok := collector.Stats()
	if !ok {
		t.Fatal("collector has not polled")
	}
	if len(stats.Unreachable) != 0 {
		t.Fatalf("unreachable backends: %v", stats.Unreachable)
	}
	if stats.Total != offline.TotalStats() {
		t.Errorf("merged cluster total %+v, want offline %+v", stats.Total, offline.TotalStats())
	}
	for _, r := range timeutil.AllRegions() {
		if got, want := stats.PerDC[r.String()], offline.DC(r).StatsSnapshot(); got != want {
			t.Errorf("merged per-DC %v: %+v, want %+v", r, got, want)
		}
	}

	var overHTTP ClusterStats
	getJSON(t, front.URL+"/stats", &overHTTP)
	if overHTTP.Total != offline.TotalStats() {
		t.Errorf("/stats over HTTP total %+v, want %+v", overHTTP.Total, offline.TotalStats())
	}

	// tsgate compatibility: the merged /slo must parse as a single
	// server's report, cover every region scope, and not be breached —
	// a compliant run gates green through the router.
	var rep slo.Report
	getJSON(t, front.URL+"/slo", &rep)
	if rep.Breached {
		t.Errorf("merged SLO report breached: %+v", rep)
	}
	for _, scope := range append([]string{slo.GlobalScope},
		"north-america", "south-america", "europe", "asia") {
		if _, ok := rep.Scopes[scope]; !ok {
			t.Errorf("merged report missing scope %q", scope)
		}
	}
	if st.Retries == 0 {
		gw := rep.Scopes[slo.GlobalScope].Windows[slo.WindowName(time.Minute)]
		if gw.Requests != int64(len(recs)) {
			t.Errorf("merged global 1m window saw %d requests, want %d", gw.Requests, len(recs))
		}
	}

	// The merged /metrics page serves the summed backend series plus
	// re-derived cluster SLO gauges.
	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/metrics status %d, want 200", resp.StatusCode)
	}
}

// TestRouterRedirectReplayMatchesOfflinePerDC repeats the equivalence
// run in redirect mode: the router answers 307s, the load generator
// follows them (one hop per request), and the per-DC totals must still
// match the offline replay.
func TestRouterRedirectReplayMatchesOfflinePerDC(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a few thousand records over HTTP")
	}
	recs := e2eTrace(t)

	offline := mkE2ECDN()
	if err := offline.Replay(trace.NewSliceReader(recs), func(*trace.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}

	backends := startDCBackends(t, "")
	bs := make([]*Backend, len(backends))
	for i, d := range backends {
		bs[i] = d.b
	}
	router, err := NewRouter(RouterConfig{Backends: bs, Redirect: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	router.Start(ctx)

	mux := http.NewServeMux()
	router.Register(mux)
	front := httptest.NewServer(mux)
	defer front.Close()

	// A non-following client sees the redirect itself: 307, a Location
	// on the owning backend, and the backend's name in X-TS-Backend.
	probe := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := probe.Get(front.URL + edge.RequestPath(recs[0]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("redirect-mode router answered %d, want 307", resp.StatusCode)
	}
	if resp.Header.Get(HeaderBackend) == "" || resp.Header.Get("Location") == "" {
		t.Fatalf("redirect missing backend/location headers: %v", resp.Header)
	}

	st, err := loadgen.Run(ctx, loadgen.Config{
		Target:  front.URL,
		Workers: 8,
		Speedup: 0,
	}, trace.NewSliceReader(recs))
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 0 {
		t.Fatalf("replay had %d errors", st.Errors)
	}
	if st.Requests != int64(len(recs)) {
		t.Fatalf("completed %d requests, want %d", st.Requests, len(recs))
	}
	// Every request took exactly one router hop.
	if st.Redirects != st.Requests {
		t.Errorf("followed %d redirects for %d requests, want one per request", st.Redirects, st.Requests)
	}

	for _, d := range backends {
		got := d.cdn.DC(d.region).StatsSnapshot()
		want := offline.DC(d.region).StatsSnapshot()
		if got != want {
			t.Errorf("DC %v: live totals %+v, want offline %+v", d.region, got, want)
		}
	}
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}
