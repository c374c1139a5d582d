// Package obs is the repository's run-wide telemetry layer: a
// dependency-free metrics registry (atomic counters, gauges and
// fixed-bucket histograms), a Prometheus-style text exposition, a debug
// HTTP endpoint (pprof, expvar, /metrics), a periodic progress line and
// an end-of-run JSON manifest.
//
// The layer is built to cost nothing when unused: every accessor and
// mutator is nil-safe, so instrumented code unconditionally calls
// reg.Counter(...).Add(1) against a possibly-nil *Registry and pays only
// a predictable nil-check branch when observability is off. Hot paths
// should fetch metric handles once and hold them; handle lookups take a
// registry lock, mutations are single atomic operations.
package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; a nil Counter silently discards updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; zero on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous value that can go up or down. The zero value
// is ready to use; a nil Gauge silently discards updates.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adjusts the gauge by delta (CAS loop). No-op on a nil receiver.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value; zero on a nil receiver.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets (cumulative
// Prometheus semantics: bucket i counts observations <= Bounds[i], with
// an implicit +Inf bucket). Its count is the sum of its buckets, so a
// reading can never disagree with itself. A nil Histogram discards
// observations.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64  // math.Float64bits of the running sum
}

// NewHistogram builds a standalone histogram over the given bucket upper
// bounds (sorted ascending), for callers that keep histograms outside a
// registry. The histogram keeps bounds rather than a copy, so histograms
// built over one slice share it; the caller must not modify it.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Merge folds src's observations into h. The histograms must share
// identical bucket bounds; mismatched bounds return an error and leave
// h untouched. Merging is atomic per field (like Observe), so h may be
// concurrently observed or snapshotted mid-merge; nil receivers and
// sources are no-ops.
func (h *Histogram) Merge(src *Histogram) error {
	if h == nil || src == nil {
		return nil
	}
	if len(h.bounds) != len(src.bounds) {
		return fmt.Errorf("obs: merging histogram with %d buckets into %d", len(src.bounds), len(h.bounds))
	}
	for i, b := range h.bounds {
		if src.bounds[i] != b {
			return fmt.Errorf("obs: histogram bucket bound %d differs: %g vs %g", i, src.bounds[i], b)
		}
	}
	for i := range src.counts {
		if n := src.counts[i].Load(); n != 0 {
			h.counts[i].Add(n)
		}
	}
	h.addSum(math.Float64frombits(src.sum.Load()))
	return nil
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.addSum(v)
}

// addSum adds delta to the running sum (CAS loop).
func (h *Histogram) addSum(delta float64) {
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Reset zeroes every bucket and the sum. It is not atomic as a whole:
// an Observe racing with it may land on either side of it.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.Store(0)
}

// HistogramValue is a point-in-time histogram reading.
type HistogramValue struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"` // per bucket, +Inf last
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Value reads the histogram: each bucket atomically, Count as their
// sum. Bounds is the histogram's own slice, not a copy.
func (h *Histogram) Value() HistogramValue {
	out := HistogramValue{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		out.Counts[i] = h.counts[i].Load()
		out.Count += out.Counts[i]
	}
	return out
}

// Merge folds src's observations into v — the snapshot-level counterpart
// of Histogram.Merge, for aggregators (the fleet collector) combining
// histogram readings fetched from remote processes without access to the
// live *Histogram. A zero-valued receiver adopts src's bucket layout;
// otherwise the bounds must match exactly. A src that disagrees with
// itself (not one count per bucket plus +Inf, or counts that do not sum
// to Count) or whose bounds differ from v's returns an error leaving v
// untouched. Merging a zero-count src with no bounds is a no-op.
func (v *HistogramValue) Merge(src HistogramValue) error {
	if len(src.Bounds) == 0 && src.Count == 0 {
		return nil
	}
	if len(src.Counts) != len(src.Bounds)+1 {
		return fmt.Errorf("obs: histogram value has %d counts for %d bounds, want %d", len(src.Counts), len(src.Bounds), len(src.Bounds)+1)
	}
	var sum int64
	for _, c := range src.Counts {
		sum += c
	}
	if sum != src.Count {
		return fmt.Errorf("obs: histogram value counts sum to %d, not its count %d", sum, src.Count)
	}
	if len(v.Bounds) == 0 && v.Count == 0 {
		v.Bounds = append([]float64(nil), src.Bounds...)
		v.Counts = append([]int64(nil), src.Counts...)
		v.Count = src.Count
		v.Sum = src.Sum
		return nil
	}
	if len(src.Bounds) != len(v.Bounds) {
		return fmt.Errorf("obs: merging histogram value with %d buckets into %d", len(src.Bounds), len(v.Bounds))
	}
	for i, b := range v.Bounds {
		if src.Bounds[i] != b {
			return fmt.Errorf("obs: histogram value bucket bound %d differs: %g vs %g", i, src.Bounds[i], b)
		}
	}
	// Counts may be shorter than len(Bounds)+1 on hand-built values;
	// normalize so the +Inf bucket exists before adding.
	if n := len(v.Bounds) + 1; len(v.Counts) < n {
		v.Counts = append(v.Counts, make([]int64, n-len(v.Counts))...)
	}
	for i, c := range src.Counts {
		v.Counts[i] += c
	}
	v.Count += src.Count
	v.Sum += src.Sum
	return nil
}

// Less returns the observations in v that base, an earlier reading of
// the same histogram, does not hold: what the histogram observed between
// the two readings. Neither v nor base changes.
func (v HistogramValue) Less(base HistogramValue) HistogramValue {
	v.Counts = slices.Clone(v.Counts)
	for i, c := range base.Counts {
		v.Counts[i] -= c
	}
	v.Count -= base.Count
	v.Sum -= base.Sum
	return v
}

// Quantile estimates the q-th quantile (0 <= q <= 1) from the bucket
// counts by linear interpolation within the containing bucket — the
// standard Prometheus histogram_quantile estimator. Observations in the
// +Inf bucket clamp to the highest finite bound, so tail quantiles are
// lower bounds when the histogram saturates.
func (v HistogramValue) Quantile(q float64) float64 {
	if v.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(v.Count)
	var cum, lower float64
	for i, c := range v.Counts {
		upper := math.Inf(1)
		if i < len(v.Bounds) {
			upper = v.Bounds[i]
		}
		next := cum + float64(c)
		if next >= rank && c > 0 {
			if math.IsInf(upper, 1) {
				return lower
			}
			frac := (rank - cum) / float64(c)
			return lower + (upper-lower)*frac
		}
		cum = next
		if i < len(v.Bounds) {
			lower = v.Bounds[i]
		}
	}
	return lower
}

// FractionAbove estimates the fraction of observations strictly above x
// by linear interpolation within the bucket containing x — the
// complement of the Quantile estimator, used for SLO bad-fraction math
// ("what share of requests exceeded the latency target"). Observations
// in the +Inf bucket always count as above any finite x.
func (v HistogramValue) FractionAbove(x float64) float64 {
	if v.Count == 0 {
		return 0
	}
	var below, lower float64
	for i, c := range v.Counts {
		upper := math.Inf(1)
		if i < len(v.Bounds) {
			upper = v.Bounds[i]
		}
		if x >= upper {
			below += float64(c)
			lower = upper
			continue
		}
		if c > 0 && !math.IsInf(upper, 1) && x > lower {
			// x splits this bucket; attribute counts uniformly.
			below += float64(c) * (x - lower) / (upper - lower)
		}
		break
	}
	frac := 1 - below/float64(v.Count)
	if frac < 0 {
		return 0
	}
	return frac
}

// ExpBuckets returns n bucket upper bounds starting at start and growing
// by factor — the usual latency-histogram layout.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Name formats a metric name with label pairs in Prometheus text syntax:
// Name("cdn_hits_total", "dc", "NA") -> `cdn_hits_total{dc="NA"}`.
// Registry names are plain strings, so labeled series are just distinct
// entries that render natively on the /metrics page. Label values are
// escaped per the text exposition format (backslash, double quote and
// newline only — Go %q-style \t or \u escapes are not valid Prometheus).
func Name(base string, kv ...string) string {
	if len(kv) == 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes a label value for the Prometheus text
// exposition format: exactly backslash, double quote and newline are
// escaped; every other byte passes through verbatim.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// Registry is a named collection of metrics. A nil *Registry is the
// no-op default: its accessors return nil handles whose mutators do
// nothing, so "observability off" costs only nil checks.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a valid no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// (a valid no-op handle) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (bounds must be sorted ascending;
// they are ignored on later lookups). Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewHistogram(append([]float64(nil), bounds...))
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every metric. Each individual
// metric is read atomically; the set as a whole is weakly consistent
// (counters may advance between reads), which is the usual contract of
// a live metrics endpoint.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters,omitempty"`
	Gauges     map[string]float64        `json:"gauges,omitempty"`
	Histograms map[string]HistogramValue `json:"histograms,omitempty"`
}

// Snapshot captures the current value of every registered metric. A nil
// registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramValue{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Value()
	}
	return s
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (one line per series, histograms as cumulative _bucket series,
// one # TYPE header per metric family).
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	typed := map[string]bool{}
	writeType := func(name, kind string) error {
		base := baseName(name)
		if typed[base] {
			return nil
		}
		typed[base] = true
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, kind)
		return err
	}
	var names []string
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := writeType(name, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", name, s.Counters[name]); err != nil {
			return err
		}
	}
	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := writeType(name, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %g\n", name, s.Gauges[name]); err != nil {
			return err
		}
	}
	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		if err := writeType(name, "histogram"); err != nil {
			return err
		}
		var cum int64
		for i, c := range h.Counts {
			cum += c
			le := "+Inf"
			if i < len(h.Bounds) {
				le = fmt.Sprintf("%g", h.Bounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", histSeries(name, le), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %g\n%s %d\n",
			suffixName(name, "_sum"), h.Sum, suffixName(name, "_count"), h.Count); err != nil {
			return err
		}
	}
	return nil
}

// baseName strips a label block from a series name.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// suffixName appends a suffix to the metric name, before any label block.
func suffixName(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}

// histSeries renders one cumulative bucket series with its le label
// merged into any existing label block.
func histSeries(name, le string) string {
	le = escapeLabelValue(le)
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return fmt.Sprintf("%s_bucket%s,le=\"%s\"}", name[:i], strings.TrimSuffix(name[i:], "}"), le)
	}
	return fmt.Sprintf("%s_bucket{le=\"%s\"}", name, le)
}
