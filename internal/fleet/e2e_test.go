package fleet

import (
	"context"
	"encoding/json"
	"net/http"
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

// e2eFleet is a launched fleet of four single-DC edges — the in-process
// equivalent of four `tsserve -dc <region>` behind a tsrouter — plus each
// edge's own CDN, which the equivalence checks read directly.
type e2eFleet struct {
	*Fleet
	cdns []*cdn.CDN // parallel to Fleet.Edges
}

// region is the one region edge i owns.
func (f *e2eFleet) region(i int) timeutil.Region { return f.Edges[i].Backend.Regions[0] }

// launchE2E launches one region-scoped edge per trace region, each with
// its own CDN, metrics registry and SLO engine, behind a front tier built
// from router; shield routes every edge's miss path through an origin
// shield there (`tscluster -shield`). The collector polls at launch and
// at Shutdown only, so a test's own PollOnce is the last word.
func launchE2E(t *testing.T, router RouterConfig, shield bool) *e2eFleet {
	t.Helper()
	return launchE2EWith(t, router, shield, mkE2ECDN)
}

// launchE2EWith is launchE2E with every edge's CDN built by newCDN.
func launchE2EWith(t *testing.T, router RouterConfig, shield bool, newCDN func() *cdn.CDN) *e2eFleet {
	t.Helper()
	f := &e2eFleet{}
	router.Logf = t.Logf
	cfg := LaunchConfig{
		Router:    router,
		Collector: CollectorConfig{Interval: time.Hour, Logf: t.Logf},
		NewEdge: func(regions []timeutil.Region, name, shieldURL string) (*edge.Server, error) {
			network := newCDN()
			f.cdns = append(f.cdns, network)
			return edge.New(edge.Config{
				CDN:       network,
				Regions:   regions,
				Name:      name,
				ShieldURL: shieldURL,
				Metrics:   obs.NewRegistry(),
				SLO:       slo.NewEngine(e2ePolicy(t), name),
			})
		},
	}
	for _, r := range timeutil.AllRegions() {
		cfg.Groups = append(cfg.Groups, []timeutil.Region{r})
	}
	if shield {
		cfg.Shield = &ShieldConfig{Metrics: obs.NewRegistry(), Logf: t.Logf}
	}
	var err error
	if f.Fleet, err = Launch(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Shutdown() })
	return f
}

// replayE2E replays recs through the fleet's router and requires a clean
// run: every record answered, none shed, and any failure named.
func replayE2E(t *testing.T, f *e2eFleet, recs []*trace.Record) *loadgen.Stats {
	t.Helper()
	st, err := loadgen.Run(context.Background(), loadgen.Config{
		Target:  f.URL,
		Workers: 8,
		Speedup: 0,
	}, trace.NewSliceReader(recs))
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 0 || st.Shed != 0 {
		t.Fatalf("replay through the fleet: %d errors (first: %s), %d shed", st.Errors, st.FirstError, st.Shed)
	}
	if st.Requests != int64(len(recs)) {
		t.Fatalf("completed %d requests, want %d", st.Requests, len(recs))
	}
	return st
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

	fl := launchE2E(t, RouterConfig{}, false)
	st := replayE2E(t, fl, recs)

	// The per-DC equivalence guarantee, now across listener boundaries:
	// each backend's single DC must match the offline replay exactly.
	var liveTotal cdn.DCStats
	for i, network := range fl.cdns {
		region := fl.region(i)
		got := network.DC(region).StatsSnapshot()
		want := offline.DC(region).StatsSnapshot()
		if got != want {
			t.Errorf("DC %v: live totals %+v, want offline %+v", region, got, want)
		}
		liveTotal.Add(got)
		// No traffic may leak into a backend's foreign DCs.
		for _, other := range timeutil.AllRegions() {
			if other == region {
				continue
			}
			if foreign := network.DC(other).StatsSnapshot(); foreign.Requests != 0 {
				t.Errorf("backend %v served %d requests for foreign DC %v", region, foreign.Requests, other)
			}
		}
	}
	if wantTotal := offline.TotalStats(); liveTotal != wantTotal {
		t.Errorf("summed live totals %+v, want offline %+v", liveTotal, wantTotal)
	}

	// The collector must reassemble the same numbers into one cluster
	// view, reachable over the router's own /stats.
	fl.Front.Collector.PollOnce(context.Background())
	stats, ok := fl.Front.Collector.Stats()
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
	getJSON(t, fl.URL+"/stats", &overHTTP)
	if overHTTP.Total != offline.TotalStats() {
		t.Errorf("/stats over HTTP total %+v, want %+v", overHTTP.Total, offline.TotalStats())
	}

	// tsgate compatibility: the merged /slo must parse as a single
	// server's report, cover every region scope, and not be breached —
	// a compliant run gates green through the router.
	var rep slo.Report
	getJSON(t, fl.URL+"/slo", &rep)
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
	resp, err := http.Get(fl.URL + "/metrics")
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

	fl := launchE2E(t, RouterConfig{Redirect: true}, false)

	// A non-following client sees the redirect itself: 307, a Location
	// on the owning backend, and the backend's name in X-TS-Backend.
	probe := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := probe.Get(fl.URL + edge.RequestPath(recs[0]))
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

	st := replayE2E(t, fl, recs)
	// Every request took exactly one router hop.
	if st.Redirects != st.Requests {
		t.Errorf("followed %d redirects for %d requests, want one per request", st.Redirects, st.Requests)
	}

	for i, network := range fl.cdns {
		region := fl.region(i)
		got := network.DC(region).StatsSnapshot()
		want := offline.DC(region).StatsSnapshot()
		if got != want {
			t.Errorf("DC %v: live totals %+v, want offline %+v", region, got, want)
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
