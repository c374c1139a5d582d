package fleet

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
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

// e2eCDN is the order-insensitive CDN config both sides of the
// equivalence test share: caches too large to evict and whole-object
// caching, so per-DC totals are independent of request interleaving
// (see loadgen's TestLiveReplayConcurrentMatchesPerDCTotals for why).
var e2eCDN = cdn.Config{
	NewCache:   func() cdn.Cache { return cdn.NewLRU(16 << 30) },
	ChunkBytes: -1,
}

func mkE2ECDN() *cdn.CDN { return cdn.New(e2eCDN) }

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
// its own CDN and SLO engine and one metrics registry for both (as
// tsserve builds them), behind a front tier with
// the default router; shield routes every edge's miss path through an origin
// shield there (`tscluster -shield`). The collector polls at launch and
// at Shutdown only, so a test's own PollOnce is the last word.
func launchE2E(t *testing.T, shield bool) *e2eFleet {
	t.Helper()
	return launchE2EWith(t, shield, e2eCDN)
}

// launchE2EWith is launchE2E with every edge's CDN built from cdnCfg.
func launchE2EWith(t *testing.T, shield bool, cdnCfg cdn.Config) *e2eFleet {
	t.Helper()
	f := &e2eFleet{}
	cfg := LaunchConfig{
		Router:    RouterConfig{Logf: t.Logf},
		Collector: CollectorConfig{Interval: time.Hour, Logf: t.Logf},
		NewEdge: func(regions []timeutil.Region, name, shieldURL string) (*edge.Server, error) {
			cfg := cdnCfg
			cfg.Metrics = obs.NewRegistry()
			network := cdn.New(cfg)
			f.cdns = append(f.cdns, network)
			return edge.New(edge.Config{
				CDN:       network,
				Regions:   regions,
				Name:      name,
				ShieldURL: shieldURL,
				Metrics:   cfg.Metrics,
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
// /metrics and /slo must present the cluster as one gateable server.
func TestRouterReplayMatchesOfflinePerDC(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a few thousand records over HTTP")
	}
	recs := e2eTrace(t)

	offline := mkE2ECDN()
	if err := offline.Replay(trace.NewSliceReader(recs), func(*trace.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}

	fl := launchE2E(t, false)
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
	// view, reachable over the router's own /metrics.
	fl.Front.Collector.PollOnce(context.Background())
	merged, ok := fl.Front.Collector.Merged()
	if !ok {
		t.Fatal("collector has not polled")
	}
	if len(merged.Unreachable) != 0 {
		t.Fatalf("unreachable backends: %v", merged.Unreachable)
	}
	if merged.CDN() != offline.TotalStats() {
		t.Errorf("merged cluster total %+v, want offline %+v", merged.CDN(), offline.TotalStats())
	}
	page := getPage(t, fl.URL+"/metrics")
	for _, r := range timeutil.AllRegions() {
		if got, want := cdn.ReadStats(r, pageReader(t, page)), offline.DC(r).StatsSnapshot(); got != want {
			t.Errorf("merged /metrics cdn_*_total{dc=%q}: %+v, want %+v", r, got, want)
		}
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

	// The merged /metrics page also serves the summed edge series and
	// the router's own counters.
	if v, ok := seriesValue(page, "edge_requests_total"); !ok || v != float64(liveTotal.Requests) {
		t.Errorf("merged edge_requests_total = %v (present %v), want the edges' %d", v, ok, liveTotal.Requests)
	}
	if _, ok := seriesValue(page, "fleet_requests_total"); !ok {
		t.Errorf("merged /metrics lacks the router's fleet_requests_total:\n%s", page)
	}
}

// getPage GETs a Prometheus text page and requires a 200.
func getPage(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v", url, resp.StatusCode, err)
	}
	return page
}

// pageReader reads page's series for cdn.ReadStats and
// edge.ReadFillStats; a series the page lacks fails the test.
func pageReader(t *testing.T, page []byte) func(series string) int64 {
	return func(series string) int64 {
		v, ok := seriesValue(page, series)
		if !ok {
			t.Errorf("page lacks %s", series)
		}
		return int64(v)
	}
}

// seriesValue returns the value of one series on a Prometheus text page.
func seriesValue(page []byte, series string) (float64, bool) {
	for _, line := range strings.Split(string(page), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
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
