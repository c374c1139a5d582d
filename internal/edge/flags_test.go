package edge

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"trafficscope/internal/timeutil"
)

// An edge built from the flags without a registry, as tscluster builds
// every edge, still exports the edge's and its CDN model's counters on
// /metrics.
func TestNewServerWithoutRegistryExportsCounters(t *testing.T) {
	f := AddFlags(flag.NewFlagSet("edge", flag.ContinueOnError))
	s, err := f.NewServer(nil, "", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var page []byte
	for _, path := range []string{RequestPath(testRecord()), "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		page, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	for _, series := range []string{"edge_requests_total 1\n", `cdn_requests_total{dc="europe"} 1` + "\n"} {
		if !strings.Contains(string(page), series) {
			t.Errorf("/metrics lacks %q:\n%s", series, page)
		}
	}
}

// An edge whose cache, or one of whose publisher partitions, holds no
// bytes would serve every request as a miss; NewServer refuses it.
func TestNewServerRejectsEmptyCaches(t *testing.T) {
	for _, args := range [][]string{
		{"-capacity", "0"},
		{"-capacity", "-1"},
		{"-publisher-caches", "V-1=1048576,P-1=0"},
		{"-publisher-caches", "V-1=-4096"},
	} {
		fs := flag.NewFlagSet("edge", flag.ContinueOnError)
		f := AddFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if _, err := f.NewServer(nil, "", "", nil); err == nil || !strings.Contains(err.Error(), "positive") {
			t.Errorf("%v: err %v, want one saying the size must be positive", args, err)
		}
	}
}

func TestParsePublisherCachesRejectsRepeatedSite(t *testing.T) {
	_, err := parsePublisherCaches("V-1=1048576,P-1=4096, V-1 =2097152")
	if err == nil || !strings.Contains(err.Error(), `"V-1"`) {
		t.Errorf("repeated V-1: err %v, want one naming the site", err)
	}
}

// FuzzParsePublisherCaches: -publisher-caches is operator input. Parsing
// never panics, and a spec it accepts names each site once (one partition
// per entry), each with a positive size.
func FuzzParsePublisherCaches(f *testing.F) {
	f.Add("V-1=268435456,P-1=134217728")
	f.Add("V-1=1048576,V-1=2097152")
	f.Add(" S-1 = 4096 ,")
	f.Add("P-2=0")
	f.Add("=7")
	f.Fuzz(func(t *testing.T, spec string) {
		parts, err := parsePublisherCaches(spec)
		if err != nil {
			return
		}
		if entries := strings.Count(spec, ",") + 1; spec != "" && len(parts) != entries {
			t.Fatalf("%q: %d partitions from %d entries", spec, len(parts), entries)
		}
		for site, mk := range parts {
			if c := mk(); c.Access(1, 1, time.Time{}) || !c.Contains(1) {
				t.Fatalf("%q: site %q accepted with a cache that cannot hold one byte", spec, site)
			}
		}
	})
}

// An objective scoped to a name that is no region is refused when the
// edge builds its engine; one scoped to a region the edge does not own,
// as in a fleet-wide policy, loads.
func TestNewServerChecksObjectiveScopes(t *testing.T) {
	for _, tc := range []struct {
		policy string
		ok     bool
	}{
		{"error-rate <= 1% scope=EU", false},
		{"latency p99 <= 5ms; hit-ratio >= 40% scope=Europe", false},
		{"latency p99 <= 5ms scope=asia; error-rate <= 1% scope=europe", true},
		{"error-rate <= 1% scope=global", true},
	} {
		fs := flag.NewFlagSet("edge", flag.ContinueOnError)
		f := AddFlags(fs)
		if err := fs.Parse([]string{"-slo-policy", tc.policy}); err != nil {
			t.Fatal(err)
		}
		_, err := f.NewServer([]timeutil.Region{timeutil.RegionEurope}, "", "", nil)
		if tc.ok && err != nil {
			t.Errorf("%q on a europe edge: %v", tc.policy, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "no region")) {
			t.Errorf("%q on a europe edge: err %v, want one saying the scope names no region", tc.policy, err)
		}
	}
}
