package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Counter("c").Add(5)
	r.Counter("c").Inc()
	r.Gauge("g").Set(3)
	r.Gauge("g").Add(1)
	r.Histogram("h", ExpBuckets(1, 2, 4)).Observe(2)
	if v := r.Counter("c").Value(); v != 0 {
		t.Fatalf("nil counter value = %d, want 0", v)
	}
	if v := r.Gauge("g").Value(); v != 0 {
		t.Fatalf("nil gauge value = %v, want 0", v)
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil registry /metrics not empty: %q", buf.String())
	}
}

func TestRegistryCountersGaugesHistograms(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total")
	c.Add(3)
	c.Inc()
	if c2 := r.Counter("reqs_total"); c2 != c {
		t.Fatal("Counter lookup did not return the same handle")
	}
	if got := r.Counter("reqs_total").Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}

	g := r.Gauge("depth")
	g.Set(10)
	g.Add(-2.5)
	if got := g.Value(); got != 7.5 {
		t.Fatalf("gauge = %v, want 7.5", got)
	}

	h := r.Histogram("lat_seconds", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	hv := r.Snapshot().Histograms["lat_seconds"]
	if hv.Count != 4 || hv.Sum != 5.555 {
		t.Fatalf("hist count/sum = %d/%v, want 4/5.555", hv.Count, hv.Sum)
	}
	want := []int64{1, 1, 1, 1}
	for i, n := range hv.Counts {
		if n != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, n, want[i], hv.Counts)
		}
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("shared_total").Inc()
				r.Gauge("g").Set(float64(i))
				r.Histogram("h", []float64{10, 100}).Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Snapshot().Histograms["h"].Count; got != 8000 {
		t.Fatalf("hist count = %d, want 8000", got)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter(Name("cdn_hits_total", "dc", "NA")).Add(7)
	r.Gauge("queue_depth").Set(3)
	r.Histogram("fold_seconds", []float64{0.1}).Observe(0.05)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE cdn_hits_total counter",
		`cdn_hits_total{dc="NA"} 7`,
		"queue_depth 3",
		`fold_seconds_bucket{le="0.1"} 1`,
		`fold_seconds_bucket{le="+Inf"} 1`,
		"fold_seconds_sum 0.05",
		"fold_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics output missing %q:\n%s", want, out)
		}
	}
}

func TestName(t *testing.T) {
	if got := Name("m"); got != "m" {
		t.Fatalf("Name() = %q", got)
	}
	if got := Name("m", "a", "x", "b", "y"); got != `m{a="x",b="y"}` {
		t.Fatalf("Name() = %q", got)
	}
}

func TestDebugServerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("pings_total").Add(2)
	srv, err := ServeDebug("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, "pings_total 2") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	if body := get("/debug/vars"); !strings.Contains(body, "cmdline") {
		t.Fatalf("/debug/vars unexpected:\n%s", body)
	}
	if body := get("/debug/pprof/cmdline"); len(body) == 0 {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}

func TestProgressRendersRateAndETA(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	var done float64
	p := StartProgress(w, "tsgen", 5*time.Millisecond, false, func() (float64, float64, string) {
		done += 1000
		return done, 10000, "records"
	})
	time.Sleep(30 * time.Millisecond)
	p.Stop()
	p.Stop() // idempotent
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "tsgen:") || !strings.Contains(out, "records") {
		t.Fatalf("progress output missing tool/unit: %q", out)
	}
	if !strings.Contains(out, "%") {
		t.Fatalf("progress output missing percentage: %q", out)
	}
	if !strings.Contains(out, "ETA") {
		t.Fatalf("progress output missing ETA: %q", out)
	}
	if !strings.Contains(out, "elapsed") {
		t.Fatalf("final progress line missing elapsed time: %q", out)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestManifestRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("records_total").Add(123)
	m := NewManifest("tsgen-test")
	m.Finalize(r, map[string]any{"records": 123, "out": "trace.bin"})
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if got.Tool != "tsgen-test" {
		t.Fatalf("tool = %q", got.Tool)
	}
	if got.GoVersion == "" || got.NumCPU < 1 {
		t.Fatalf("build/host info missing: %+v", got)
	}
	if got.Metrics.Counters["records_total"] != 123 {
		t.Fatalf("metrics snapshot missing counter: %+v", got.Metrics)
	}
	if got.Extra["records"].(float64) != 123 {
		t.Fatalf("extra missing: %+v", got.Extra)
	}
	if got.WallSeconds < 0 {
		t.Fatalf("wall seconds negative: %v", got.WallSeconds)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 10, 3)
	want := []float64{1, 10, 100}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	bounds := []float64{1, 10, 100}
	a := NewHistogram(bounds)
	b := NewHistogram(bounds)
	for _, v := range []float64{0.5, 5, 50} {
		a.Observe(v)
	}
	for _, v := range []float64{5, 500} {
		b.Observe(v)
	}
	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	got := a.Value()
	if got.Count != 5 {
		t.Errorf("count = %d, want 5", got.Count)
	}
	if got.Sum != 560.5 {
		t.Errorf("sum = %g, want 560.5", got.Sum)
	}
	wantCounts := []int64{1, 2, 1, 1} // <=1, <=10, <=100, +Inf
	for i, w := range wantCounts {
		if got.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, got.Counts[i], w, got.Counts)
		}
	}
	// src is untouched by the merge.
	if bv := b.Value(); bv.Count != 2 {
		t.Errorf("src count = %d, want 2", bv.Count)
	}

	if err := a.Merge(NewHistogram([]float64{1, 2})); err == nil {
		t.Error("Merge with fewer buckets: want error")
	}
	if err := a.Merge(NewHistogram([]float64{1, 10, 99})); err == nil {
		t.Error("Merge with different bounds: want error")
	}
	if av := a.Value(); av.Count != 5 {
		t.Errorf("failed merges must leave dst untouched, count = %d", av.Count)
	}

	// nil receiver and source are no-ops, like Observe.
	var nilH *Histogram
	if err := nilH.Merge(a); err != nil {
		t.Errorf("nil.Merge: %v", err)
	}
	if err := a.Merge(nil); err != nil {
		t.Errorf("Merge(nil): %v", err)
	}
}

func TestHistogramValueMerge(t *testing.T) {
	bounds := []float64{1, 10, 100}
	a := NewHistogram(bounds)
	b := NewHistogram(bounds)
	for _, v := range []float64{0.5, 5, 50} {
		a.Observe(v)
	}
	for _, v := range []float64{5, 500} {
		b.Observe(v)
	}
	av, bv := a.Value(), b.Value()
	if err := av.Merge(bv); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if av.Count != 5 || av.Sum != 560.5 {
		t.Errorf("count/sum = %d/%g, want 5/560.5", av.Count, av.Sum)
	}
	wantCounts := []int64{1, 2, 1, 1}
	for i, w := range wantCounts {
		if av.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, av.Counts[i], w, av.Counts)
		}
	}
	// The merged value keeps working as a snapshot: quantiles see the
	// pooled observations.
	if q := av.Quantile(0.5); q <= 0 {
		t.Errorf("median of merged value = %g", q)
	}
	// src is untouched.
	if bv.Count != 2 {
		t.Errorf("src count = %d, want 2", bv.Count)
	}

	// Merging into a zero value adopts the source wholesale — this is
	// how a collector folds the first backend's histogram in.
	var zero HistogramValue
	if err := zero.Merge(bv); err != nil {
		t.Fatalf("zero.Merge: %v", err)
	}
	if zero.Count != 2 || len(zero.Bounds) != 3 {
		t.Errorf("zero merge: %+v", zero)
	}
	// ... and the adopted buckets are a copy, not an alias.
	zero.Counts[0] += 100
	if b.Value().Counts[0] >= 100 {
		t.Error("zero merge aliased the source counts")
	}

	// Merging an empty value is a no-op.
	before := av.Count
	if err := av.Merge(HistogramValue{}); err != nil {
		t.Fatalf("Merge(empty): %v", err)
	}
	if av.Count != before {
		t.Error("empty merge changed dst")
	}

	// Mismatched layouts must error without corrupting dst.
	cv := NewHistogram([]float64{1, 10, 99}).Value()
	if err := av.Merge(cv); err == nil {
		t.Error("mismatched bounds: want error")
	}
	dv := NewHistogram([]float64{1, 10}).Value()
	if err := av.Merge(dv); err == nil {
		t.Error("mismatched bucket count: want error")
	}
	if av.Count != before {
		t.Error("failed merge changed dst")
	}

	// A source that disagrees with itself must error too, both into a
	// well-formed value and into a zero one (which would adopt it): too
	// many counts for its bounds, too few, or counts that do not sum to
	// Count.
	e := NewHistogram([]float64{1, 10})
	for _, v := range []float64{0.5, 5, 50} {
		e.Observe(v)
	}
	ev := e.Value()
	for _, bad := range []HistogramValue{
		{Bounds: []float64{1, 10}, Counts: []int64{1, 1, 1, 100, 0}, Count: 103},
		{Bounds: []float64{1, 10}, Counts: []int64{2}, Count: 2},
		{Bounds: []float64{1, 10}, Counts: []int64{1, 1, 1}, Count: 103},
		{Counts: []int64{}, Count: 4},
	} {
		before := ev.Count
		if err := ev.Merge(bad); err == nil {
			t.Errorf("Merge(%+v) into a well-formed value: want error", bad)
		}
		if ev.Count != before {
			t.Errorf("failed merge of %+v changed dst: count %d", bad, ev.Count)
		}
		var zero HistogramValue
		if err := zero.Merge(bad); err == nil {
			t.Errorf("Merge(%+v) into a zero value: want error", bad)
		}
	}
}
