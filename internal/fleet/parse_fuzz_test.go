package fleet

import (
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"trafficscope/internal/cdn"
	"trafficscope/internal/edge"
	"trafficscope/internal/obs"
	"trafficscope/internal/obs/slo"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// edgeMetricsPage is what a live edge under an SLO policy serves on
// /metrics after one miss and one hit, cdn_*{dc} series included: the
// page the collector merges.
func edgeMetricsPage(tb testing.TB) []byte {
	tb.Helper()
	policy, err := slo.ParsePolicy("latency p99 <= 100ms; error-rate <= 1%; hit-ratio >= 50% scope=europe")
	if err != nil {
		tb.Fatal(err)
	}
	cfg := e2eCDN
	cfg.Metrics = obs.NewRegistry()
	s, err := edge.New(edge.Config{CDN: cdn.New(cfg), Metrics: cfg.Metrics, SLO: slo.NewEngine(policy)})
	if err != nil {
		tb.Fatal(err)
	}
	rec := &trace.Record{
		Timestamp: time.Date(2016, 4, 12, 9, 30, 0, 0, time.UTC), Publisher: "V-1", ObjectID: 7,
		FileType: "mp4", ObjectSize: 5 << 20, UserID: 1, Region: timeutil.RegionEurope,
	}
	for range 2 {
		s.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, edge.RequestPath(rec), nil))
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		tb.Fatalf("/metrics status %d", w.Code)
	}
	return w.Body.Bytes()
}

// FuzzMergePrometheus: the collector merges whatever its backends'
// /metrics pages hold. The merge never panics and fails exactly when a
// page does; the page it produces is itself a page it accepts (the
// router's merged /metrics can be scraped and merged again); and that
// page holds the union of both pages' series, each the sum of a's value
// and b's, a missing series counting as 0. No family is dropped.
func FuzzMergePrometheus(f *testing.F) {
	page := edgeMetricsPage(f)
	f.Add(page, page)
	f.Add([]byte("# TYPE a counter\na 1\n"), []byte("a{x=\"y\"} NaN\na +Inf\n"))
	f.Add([]byte("# TYPE ts_slo_breached gauge\nts_slo_breached 1\n"), []byte("b -Inf\nb +Inf\n"))
	f.Add([]byte("lonely-token\n"), []byte(""))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		_, errA := parsePage(a)
		_, errB := parsePage(b)
		merged, err := mergePrometheus(a, b)
		if (err == nil) != (errA == nil && errB == nil) {
			t.Fatalf("merge error %v, page errors %v and %v", err, errA, errB)
		}
		if err != nil {
			return
		}
		got, err := parsePage(merged)
		if err != nil {
			t.Fatalf("merge output is not a mergeable page: %v\n%s", err, merged)
		}
		sa, sb := pageSeries(a), pageSeries(b)
		want := map[string]float64{}
		for _, series := range []map[string]float64{sa, sb} {
			for key, v := range series {
				want[key] += v
			}
		}
		if len(got.values) != len(want) {
			t.Fatalf("merged page has %d series, the pages %d between them:\n%s", len(got.values), len(want), merged)
		}
		for key, w := range want {
			v, ok := got.values[key]
			if !ok || !(v == w || math.IsNaN(v) && math.IsNaN(w)) {
				t.Fatalf("series %q: merged %g (present %v), want %g + %g", key, v, ok, sa[key], sb[key])
			}
		}
	})
}

// pageSeries sums each series of a page parsePage accepts, read line by
// line without it: the oracle FuzzMergePrometheus checks the merge by.
func pageSeries(page []byte) map[string]float64 {
	series := map[string]float64{}
	for _, line := range strings.Split(string(page), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, _ := strconv.ParseFloat(line[sp+1:], 64)
		series[line[:sp]] += v
	}
	return series
}

// FuzzParseBackendSpec: whatever a -backend flag holds, ParseBackendSpec
// either refuses it or returns a backend the router can route to: at
// least one known region and an http:// or https:// URL with a host.
func FuzzParseBackendSpec(f *testing.F) {
	for _, seed := range []string{
		"europe=http://127.0.0.1:8081",
		"north-america,south-america=http://h:1/",
		"asia=https://edge.example:443",
		"europe=127.0.0.1:8081", "mars=http://h:1", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		b, err := ParseBackendSpec(spec)
		if err != nil {
			return
		}
		if len(b.Regions) == 0 {
			t.Fatalf("ParseBackendSpec(%q) accepted no region", spec)
		}
		for _, r := range b.Regions {
			if r < 1 || r > timeutil.NumRegions {
				t.Fatalf("ParseBackendSpec(%q) accepted unknown region %v", spec, r)
			}
		}
		u, err := url.Parse(b.URL)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			t.Fatalf("ParseBackendSpec(%q) accepted URL %q with no http(s) host (%v)", spec, b.URL, err)
		}
	})
}
