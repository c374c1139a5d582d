package obs

import (
	"bytes"
	"math"
	"testing"
)

// Label values must use the text exposition format's escapes — exactly
// backslash, double quote and newline — and pass every other byte
// through verbatim (Go %q-style \t or \uXXXX escapes are invalid
// Prometheus and corrupt the series name).
func TestNameEscapesLabelValues(t *testing.T) {
	cases := []struct{ in, want string }{
		{`plain`, `m{l="plain"}`},
		{`back\slash`, `m{l="back\\slash"}`},
		{`quo"te`, `m{l="quo\"te"}`},
		{"new\nline", `m{l="new\nline"}`},
		{"tab\tand héllo", "m{l=\"tab\tand héllo\"}"}, // pass through verbatim
		{"\\\"\n", `m{l="\\\"\n"}`},
	}
	for _, c := range cases {
		if got := Name("m", "l", c.in); got != c.want {
			t.Errorf("Name(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Golden test of the full text exposition: counters (plain and
// labeled, with escaping), gauges, and a labeled histogram with its
// cumulative buckets, sum and count — byte-exact against the spec's
// rendering, not just substring checks.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("plain_total").Add(2)
	r.Counter(Name("requests_total", "note", "a\\b\nc", "path", `with"quote`)).Add(7)
	r.Gauge("temp").Set(1.5)
	h := r.Histogram(Name("lat_seconds", "dc", "NA"), []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE plain_total counter
plain_total 2
# TYPE requests_total counter
requests_total{note="a\\b\nc",path="with\"quote"} 7
# TYPE temp gauge
temp 1.5
# TYPE lat_seconds histogram
lat_seconds_bucket{dc="NA",le="0.1"} 1
lat_seconds_bucket{dc="NA",le="1"} 2
lat_seconds_bucket{dc="NA",le="+Inf"} 2
lat_seconds_sum{dc="NA"} 0.55
lat_seconds_count{dc="NA"} 2
`
	if got := buf.String(); got != want {
		t.Fatalf("WritePrometheus output:\n%s\nwant:\n%s", got, want)
	}
}

// Quantile at the extremes: q=0 is the lower edge of the first occupied
// bucket, q=1 the upper edge of the last (finite) occupied bucket.
func TestQuantileExtremes(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 40})
	for i := 0; i < 4; i++ {
		h.Observe(15) // all mass in (10, 20]
	}
	v := h.Value()
	if got := v.Quantile(0); got != 10 {
		t.Errorf("Quantile(0) = %v, want 10", got)
	}
	if got := v.Quantile(1); got != 20 {
		t.Errorf("Quantile(1) = %v, want 20", got)
	}
}

func TestFractionAbove(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 40})
	for i := 0; i < 4; i++ {
		h.Observe(15) // (10, 20]
	}
	h.Observe(30) // (20, 40]
	h.Observe(30)
	h.Observe(100) // +Inf
	v := h.Value()

	cases := []struct {
		x, want float64
	}{
		{5, 1},          // below every observation
		{10, 1},         // at the first bound: every observation is above
		{20, 3.0 / 7},   // exactly a bound: the two 30s and the +Inf obs
		{30, 2.0 / 7},   // splits (20,40] in half: 1 of 2 + the +Inf obs
		{1000, 1.0 / 7}, // +Inf observations are above any finite x
	}
	for _, c := range cases {
		if got := v.FractionAbove(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("FractionAbove(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	var empty HistogramValue
	if got := empty.FractionAbove(1); got != 0 {
		t.Errorf("empty FractionAbove = %v, want 0", got)
	}
}
