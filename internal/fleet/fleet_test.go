package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"trafficscope/internal/timeutil"
)

func TestParseBackendSpec(t *testing.T) {
	b, err := ParseBackendSpec("europe=http://127.0.0.1:8081")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != "europe" || b.URL != "http://127.0.0.1:8081" {
		t.Errorf("got name=%q url=%q", b.Name, b.URL)
	}
	if len(b.Regions) != 1 || b.Regions[0] != timeutil.RegionEurope {
		t.Errorf("regions = %v, want [europe]", b.Regions)
	}
	if !b.Healthy() {
		t.Error("parsed backend must start healthy")
	}

	b, err = ParseBackendSpec("north-america,south-america=http://h:1/")
	if err != nil {
		t.Fatal(err)
	}
	if b.URL != "http://h:1" {
		t.Errorf("trailing slash not trimmed: %q", b.URL)
	}
	if len(b.Regions) != 2 {
		t.Errorf("regions = %v, want two", b.Regions)
	}

	for _, bad := range []string{
		"",
		"europe",
		"=http://127.0.0.1:8081",
		"europe=",
		"europe=127.0.0.1:8081", // no scheme
		"europe=ftp://127.0.0.1",
		"europe=http://",   // trims to "http:", no host
		"europe=http:///x", // a path, no host
		"mars=http://127.0.0.1:8081",
		"europe,=http://127.0.0.1:8081",
	} {
		if _, err := ParseBackendSpec(bad); err == nil {
			t.Errorf("ParseBackendSpec(%q) succeeded, want error", bad)
		}
	}
}

func TestBackendHealthTransitions(t *testing.T) {
	b := NewBackend("eu", "http://127.0.0.1:1", timeutil.RegionEurope)
	if !b.Healthy() {
		t.Fatal("new backend must start healthy")
	}
	if evicted := b.noteFailure(2); evicted || !b.Healthy() {
		t.Fatal("one failure below FailAfter must not evict")
	}
	if evicted := b.noteFailure(2); !evicted || b.Healthy() {
		t.Fatal("second consecutive failure must evict")
	}
	if evicted := b.noteFailure(2); evicted {
		t.Fatal("already-evicted backend must not report eviction again")
	}
	if recovered := b.noteSuccess(); !recovered || !b.Healthy() {
		t.Fatal("one success must restore an evicted backend")
	}
	if recovered := b.noteSuccess(); recovered {
		t.Fatal("healthy backend must not report recovery")
	}
	// One success resets the consecutive-failure streak.
	if evicted := b.noteFailure(2); evicted {
		t.Fatal("first failure after recovery must not evict")
	}

	st := b.Status()
	if st.Name != "eu" || !st.Healthy || st.Failures != 4 || st.Probes != 6 {
		t.Errorf("status = %+v", st)
	}
	if len(st.Regions) != 1 || st.Regions[0] != "europe" {
		t.Errorf("status regions = %v", st.Regions)
	}
}

func TestNewRouterValidation(t *testing.T) {
	if _, err := NewRouter(RouterConfig{}); err == nil {
		t.Error("NewRouter with no backends must fail")
	}
	if _, err := NewRouter(RouterConfig{Backends: []*Backend{{Name: "x", URL: "http://h:1"}}}); err == nil {
		t.Error("backend owning no regions must be rejected")
	}
	b := NewBackend("bad", "http://h:1", timeutil.Region(99))
	if _, err := NewRouter(RouterConfig{Backends: []*Backend{b}}); err == nil {
		t.Error("backend owning an unknown region must be rejected")
	}
}

func TestMergePrometheus(t *testing.T) {
	pageA := []byte(`# TYPE edge_requests_total counter
edge_requests_total 10
# TYPE edge_latency_seconds histogram
edge_latency_seconds_bucket{le="0.1"} 5
edge_latency_seconds_bucket{le="+Inf"} 10
edge_latency_seconds_sum 1.5
edge_latency_seconds_count 10
# TYPE edge_inflight gauge
edge_inflight 2
`)
	pageB := []byte(`# TYPE edge_requests_total counter
edge_requests_total 32
# TYPE edge_latency_seconds histogram
edge_latency_seconds_bucket{le="0.1"} 30
edge_latency_seconds_bucket{le="+Inf"} 32
edge_latency_seconds_sum 0.75
edge_latency_seconds_count 32
# TYPE edge_inflight gauge
edge_inflight 3
`)
	merged, err := mergePrometheus(pageA, pageB)
	if err != nil {
		t.Fatal(err)
	}
	out := string(merged)
	for _, want := range []string{
		"edge_requests_total 42\n",
		`edge_latency_seconds_bucket{le="0.1"} 35` + "\n",
		`edge_latency_seconds_bucket{le="+Inf"} 42` + "\n",
		"edge_latency_seconds_sum 2.25\n",
		"edge_latency_seconds_count 42\n",
		// A gauge sums into the cluster total like any other series.
		"edge_inflight 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("merged page missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per family, placed before the family's first series.
	if n := strings.Count(out, "# TYPE edge_requests_total counter"); n != 1 {
		t.Errorf("edge_requests_total TYPE line appears %d times", n)
	}
	typeIdx := strings.Index(out, "# TYPE edge_latency_seconds histogram")
	seriesIdx := strings.Index(out, "edge_latency_seconds_bucket")
	if typeIdx < 0 || seriesIdx < 0 || typeIdx > seriesIdx {
		t.Errorf("histogram TYPE line not before its series:\n%s", out)
	}

	if _, err := mergePrometheus([]byte("edge_requests_total notanumber\n")); err == nil {
		t.Error("malformed value must error")
	}
	if _, err := mergePrometheus([]byte("lonely-token\n")); err == nil {
		t.Error("valueless line must error")
	}
}

// mergePrometheus parses and merges pages as the collector does and
// renders the result.
func mergePrometheus(pages ...[]byte) ([]byte, error) {
	m := newPromMerger()
	for _, p := range pages {
		page, err := parsePage(p)
		if err != nil {
			return nil, err
		}
		m.merge(page)
	}
	var buf bytes.Buffer
	m.render(&buf)
	return buf.Bytes(), nil
}

// TestCollectorWarmupAndUnreachable drives the collector against a
// backend that does not exist: the merged endpoints must answer 503
// before the first poll, and afterwards the merged counters must degrade
// to an empty view that names the unreachable backend while /slo stays
// 503.
func TestCollectorWarmupAndUnreachable(t *testing.T) {
	b := NewBackend("ghost", "http://127.0.0.1:1", timeutil.RegionEurope)
	c, err := NewCollector(CollectorConfig{Backends: []*Backend{b}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	c.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	for _, ep := range []string{"/slo", "/metrics"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s before first poll: status %d, want 503", ep, resp.StatusCode)
		}
	}

	c.PollOnce(context.Background())
	merged, ok := c.Merged()
	if !ok {
		t.Fatal("PollOnce did not mark the collector polled")
	}
	if len(merged.Unreachable) != 1 || merged.Unreachable[0] != "ghost" {
		t.Errorf("unreachable = %v, want [ghost]", merged.Unreachable)
	}
	if merged.CDN().Requests != 0 {
		t.Errorf("total = %+v, want zero", merged.CDN())
	}
	if _, err := c.SLOReport(); err == nil {
		t.Error("SLO report with no reachable backend must error")
	}
}

// TestCollectorNullScopeAnswers503: a backend whose /slo names a scope
// but holds null for it must not take the collector down. The merge
// refuses the report, and the merged /slo answers 503 naming the scope.
func TestCollectorNullScopeAnswers503(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/slo":
			w.Write([]byte(`{"interval_seconds":1,"gate_window_seconds":60,"scopes":{"global":null}}`))
		}
	}))
	defer backend.Close()
	b := NewBackend("null-scope", backend.URL, timeutil.RegionEurope)
	c, err := NewCollector(CollectorConfig{Backends: []*Backend{b}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	c.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c.PollOnce(context.Background())
	resp, err := http.Get(ts.URL + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), `report 0 scope "global"`) {
		t.Errorf("/slo = %d %q, want 503 naming report 0's scope \"global\"", resp.StatusCode, body)
	}
}

// TestCollectorSkipsMalformedPage: a backend whose /metrics does not
// parse is unreachable for that poll, and the cluster page still carries
// every other backend's series.
func TestCollectorSkipsMalformedPage(t *testing.T) {
	backend := func(page string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/slo":
				w.Write([]byte(`{"interval_seconds":1,"gate_window_seconds":60,"scopes":{}}`))
			case "/metrics":
				w.Write([]byte(page))
			}
		}))
	}
	good := backend("# TYPE cdn_requests_total counter\n" + `cdn_requests_total{dc="europe"} 7` + "\n")
	defer good.Close()
	bad := backend("edge_requests_total notanumber\n")
	defer bad.Close()
	c, err := NewCollector(CollectorConfig{Backends: []*Backend{
		NewBackend("good", good.URL, timeutil.RegionEurope),
		NewBackend("bad", bad.URL, timeutil.RegionAsia),
	}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	c.Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c.PollOnce(context.Background())
	merged, _ := c.Merged()
	if len(merged.Unreachable) != 1 || merged.Unreachable[0] != "bad" || merged.CDN().Requests != 7 {
		t.Errorf("unreachable = %v, total = %+v; want [bad] and the good backend's 7 requests", merged.Unreachable, merged.CDN())
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := `cdn_requests_total{dc="europe"} 7`; resp.StatusCode != http.StatusOK || !strings.Contains(string(page), want) {
		t.Errorf("/metrics = %d, want 200 carrying %q:\n%s", resp.StatusCode, want, page)
	}
}

// TestCollectorCapsReplies: a backend whose reply runs past maxPollBytes
// is unreachable for that poll, not buffered whole.
func TestCollectorCapsReplies(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/metrics":
			// A valid page, padded with blank lines past the cap.
			w.Write([]byte(`cdn_requests_total{dc="europe"} 1` + "\n"))
			pad := bytes.Repeat([]byte("\n"), 64<<10)
			for n := 0; n <= maxPollBytes; n += len(pad) {
				if _, err := w.Write(pad); err != nil {
					return
				}
			}
		case "/slo":
			w.Write([]byte(`{"interval_seconds":1,"gate_window_seconds":60,"scopes":{}}`))
		}
	}))
	defer backend.Close()
	b := NewBackend("flood", backend.URL, timeutil.RegionEurope)
	var logged []string
	c, err := NewCollector(CollectorConfig{Backends: []*Backend{b}, Logf: func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}})
	if err != nil {
		t.Fatal(err)
	}
	c.PollOnce(context.Background())
	merged, _ := c.Merged()
	if len(merged.Unreachable) != 1 || merged.Unreachable[0] != "flood" || merged.CDN().Requests != 0 {
		t.Errorf("unreachable = %v, total = %+v; want [flood] and nothing merged", merged.Unreachable, merged.CDN())
	}
	if log := strings.Join(logged, "\n"); !strings.Contains(log, "flood unreachable") || !strings.Contains(log, "exceeds") {
		t.Errorf("log %q does not name the backend and the cap", logged)
	}
}
