// Package slo is the serving stack's service-level-objective layer:
// declarative objectives (latency quantile targets, error-rate ceilings,
// hit-ratio floors, per-DC or global scope) evaluated against rolling
// time windows of live traffic, the way production CDNs gate deploys.
//
// The package has two parts. A Policy (this file) declares objectives in
// a tiny dependency-free text format loadable from a file or an inline
// flag. An Engine (engine.go) reads the series the serving tier records
// each request into once — a latency histogram and hit, miss and error
// counters per scope, in the tier's own obs.Registry — into a ring of
// per-interval readings; a window is the series' current values less
// the reading that opened it. The engine computes multi-window burn
// rates against the policy and renders the verdict as a JSON report, the
// edge's /slo endpoint.
//
// Burn rate follows the SRE-workbook definition: the fraction of the
// error budget consumed per unit of budget allowed. For an objective
// with allowed bad fraction B (1-q for a latency quantile target, the
// ceiling itself for an error rate, 1-floor for a hit ratio), a window
// whose observed bad fraction is b burns at rate b/B: burn 1.0 consumes
// the budget exactly as fast as allowed, burn > 1 in the gate window is
// a breach.
package slo

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"trafficscope/internal/obs"
)

// Kind identifies what an Objective constrains.
type Kind int

const (
	// KindLatency targets a latency quantile: Quantile of the windowed
	// latency distribution must stay <= Threshold seconds.
	KindLatency Kind = iota
	// KindErrorRate caps the windowed error fraction at Threshold.
	KindErrorRate
	// KindHitRatio floors the windowed cache hit ratio at Threshold.
	KindHitRatio
)

// String returns the policy-file keyword for the kind.
func (k Kind) String() string {
	switch k {
	case KindLatency:
		return "latency"
	case KindErrorRate:
		return "error-rate"
	case KindHitRatio:
		return "hit-ratio"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// BurnCap bounds reported burn rates so a zero budget (e.g. an
// error-rate ceiling of 0 with any error observed) stays JSON-encodable
// instead of overflowing to +Inf.
const BurnCap = 1e9

// Objective is one declarative service-level objective.
type Objective struct {
	Kind Kind `json:"kind"`
	// Quantile is the targeted latency quantile (KindLatency only),
	// e.g. 0.99 for "p99 <= Threshold".
	Quantile float64 `json:"quantile,omitempty"`
	// Threshold is the objective bound: seconds for KindLatency, a max
	// fraction for KindErrorRate, a min fraction for KindHitRatio.
	Threshold float64 `json:"threshold"`
	// Scope restricts the objective to one DC/region name; empty means
	// global (all traffic).
	Scope string `json:"scope,omitempty"`
}

// Name renders a stable identifier for the objective, its name in a
// Report: "latency_p99", "error_rate", "hit_ratio".
func (o Objective) Name() string {
	switch o.Kind {
	case KindLatency:
		q := strconv.FormatFloat(o.Quantile*100, 'f', -1, 64)
		return "latency_p" + q
	case KindErrorRate:
		return "error_rate"
	case KindHitRatio:
		return "hit_ratio"
	default:
		return o.Kind.String()
	}
}

// budget is the allowed bad fraction the burn rate is measured against.
func (o Objective) budget() float64 {
	switch o.Kind {
	case KindLatency:
		return 1 - o.Quantile
	case KindErrorRate:
		return o.Threshold
	case KindHitRatio:
		return 1 - o.Threshold
	default:
		return 0
	}
}

// Validate rejects objectives whose parameters are outside their domain.
// Each bound is written as !(in range) so that NaN, which compares false
// with everything, is out of every range.
func (o Objective) Validate() error {
	switch o.Kind {
	case KindLatency:
		if !(0 < o.Quantile && o.Quantile < 1) {
			return fmt.Errorf("slo: latency quantile %g outside (0, 1)", o.Quantile)
		}
		if !(0 < o.Threshold && o.Threshold < math.Inf(1)) {
			return fmt.Errorf("slo: latency threshold %g must be positive and finite", o.Threshold)
		}
	case KindErrorRate:
		if !(0 <= o.Threshold && o.Threshold < 1) {
			return fmt.Errorf("slo: error-rate ceiling %g outside [0, 1)", o.Threshold)
		}
	case KindHitRatio:
		if !(0 < o.Threshold && o.Threshold <= 1) {
			return fmt.Errorf("slo: hit-ratio floor %g outside (0, 1]", o.Threshold)
		}
	default:
		return fmt.Errorf("slo: unknown objective kind %d", int(o.Kind))
	}
	return nil
}

// WindowStats is one rolling window's aggregated traffic: the raw
// numbers every objective is evaluated against. Requests counts all
// recorded requests; Errors the client-visible failures among them
// (shed, bad request, cancelled, transport errors); Hits/Misses the
// requests that reached a cache verdict. Latency holds the full
// windowed latency distribution (all outcomes, same contract as the
// edge_request_seconds histogram).
type WindowStats struct {
	WindowSeconds float64            `json:"window_seconds"`
	Requests      int64              `json:"requests"`
	Errors        int64              `json:"errors"`
	Hits          int64              `json:"hits"`
	Misses        int64              `json:"misses"`
	Latency       obs.HistogramValue `json:"latency"`
}

// ErrorRate returns the windowed error fraction (0 when idle).
func (w WindowStats) ErrorRate() float64 {
	if w.Requests == 0 {
		return 0
	}
	return float64(w.Errors) / float64(w.Requests)
}

// HitRatio returns hits/(hits+misses); 0 when no request reached a
// cache verdict.
func (w WindowStats) HitRatio() float64 {
	total := w.Hits + w.Misses
	if total == 0 {
		return 0
	}
	return float64(w.Hits) / float64(total)
}

// Status is the verdict of one objective over one window.
type Status struct {
	// Actual is the observed value in the objective's own unit: the
	// latency quantile in seconds, the error fraction, or the hit ratio.
	Actual float64 `json:"actual"`
	// BadFraction is the share of observations that violate the
	// objective (latency above threshold, errors, misses).
	BadFraction float64 `json:"bad_fraction"`
	// BurnRate is BadFraction divided by the objective's error budget,
	// clamped to BurnCap. Burn > 1 consumes budget faster than allowed.
	BurnRate float64 `json:"burn_rate"`
	// Observed is the number of observations the verdict rests on; a
	// window with zero observations is vacuously compliant.
	Observed int64 `json:"observed"`
	// Breached reports BurnRate > 1 with at least one observation.
	Breached bool `json:"breached"`
}

// Evaluate computes the objective's verdict over one window.
func (o Objective) Evaluate(ws WindowStats) Status {
	var st Status
	switch o.Kind {
	case KindLatency:
		st.Observed = ws.Latency.Count
		st.Actual = ws.Latency.Quantile(o.Quantile)
		st.BadFraction = ws.Latency.FractionAbove(o.Threshold)
	case KindErrorRate:
		st.Observed = ws.Requests
		st.Actual = ws.ErrorRate()
		st.BadFraction = st.Actual
	case KindHitRatio:
		st.Observed = ws.Hits + ws.Misses
		st.Actual = ws.HitRatio()
		st.BadFraction = 1 - st.Actual
	}
	if st.Observed == 0 {
		st.BadFraction = 0
		return st
	}
	if budget := o.budget(); budget > 0 {
		st.BurnRate = st.BadFraction / budget
	} else if st.BadFraction > 0 {
		st.BurnRate = math.Inf(1)
	}
	if st.BurnRate > BurnCap {
		st.BurnRate = BurnCap
	}
	st.Breached = st.BurnRate > 1
	return st
}

// Policy is a declarative SLO: the objectives plus the window geometry
// they are evaluated over. The zero value is usable after Normalize
// (default windows, no objectives).
type Policy struct {
	// Window is the gating window: the objectives' breach verdicts (and
	// tsgate's exit code) are computed over this span. Default 1m.
	Window time.Duration `json:"window"`
	// Interval is the bucket resolution of the rolling windows.
	// Default 1s.
	Interval time.Duration `json:"interval"`
	// BurnWindows are the spans burn rates are reported over (the
	// multi-window pattern: a short window catches fast burn, a long one
	// slow burn). Default 5s, 1m, 5m; Window is always included.
	BurnWindows []time.Duration `json:"burn_windows"`
	// Objectives are the targets; empty means "windows only" (the
	// engine still tracks and reports, nothing can breach).
	Objectives []Objective `json:"objectives"`
}

// Default window geometry.
const (
	DefaultWindow   = time.Minute
	DefaultInterval = time.Second
)

// DefaultBurnWindows returns the default multi-window burn-rate spans.
func DefaultBurnWindows() []time.Duration {
	return []time.Duration{5 * time.Second, time.Minute, 5 * time.Minute}
}

// Normalize fills defaults and canonicalizes the window set: burn
// windows are deduplicated, rounded up to whole intervals, sorted
// ascending, and always include the gate window.
func (p Policy) Normalize() Policy {
	if p.Window <= 0 {
		p.Window = DefaultWindow
	}
	if p.Interval <= 0 {
		p.Interval = DefaultInterval
	}
	if len(p.BurnWindows) == 0 {
		p.BurnWindows = DefaultBurnWindows()
	}
	roundUp := func(d time.Duration) time.Duration {
		if rem := d % p.Interval; rem != 0 {
			d += p.Interval - rem
		}
		if d < p.Interval {
			d = p.Interval
		}
		return d
	}
	p.Window = roundUp(p.Window)
	seen := map[time.Duration]bool{}
	var ws []time.Duration
	for _, d := range append(append([]time.Duration{}, p.BurnWindows...), p.Window) {
		d = roundUp(d)
		if !seen[d] {
			seen[d] = true
			ws = append(ws, d)
		}
	}
	for i := 1; i < len(ws); i++ { // insertion sort: the set is tiny
		for j := i; j > 0 && ws[j] < ws[j-1]; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
	p.BurnWindows = ws
	return p
}

// Span returns the longest burn window — the history an Engine's ring
// of readings must retain. Call on a normalized policy.
func (p Policy) Span() time.Duration {
	span := p.Window
	for _, d := range p.BurnWindows {
		if d > span {
			span = d
		}
	}
	return span
}

// maxBuckets bounds the ring of readings an Engine keeps (Span/Interval
// + 1 interval readings of ≈ 290 bytes per scope): 2 h 46 m of 1 s
// intervals, or 27 h of 10 s. A policy that asks for more, such as
// "interval 1ns" under the default 5 m burn window, is refused instead
// of exhausting memory in the engine.
const maxBuckets = 10_000

// Validate checks every objective and that the normalized windows fit in
// maxBuckets intervals; other geometry problems are fixed by Normalize
// rather than reported.
func (p Policy) Validate() error {
	if n := p.Normalize(); n.Span()/n.Interval > maxBuckets {
		return fmt.Errorf("slo: a %v window at %v intervals needs more than %d buckets", n.Span(), n.Interval, maxBuckets)
	}
	for i, o := range p.Objectives {
		if err := o.Validate(); err != nil {
			return fmt.Errorf("objective %d (%s): %w", i+1, o.Name(), err)
		}
	}
	return nil
}

// ParsePolicy parses the policy text format. Statements are separated
// by newlines or semicolons; '#' starts a comment. The grammar:
//
//	window 1m
//	interval 1s
//	burn-windows 5s 1m 5m
//	latency p99 <= 5ms [scope=europe]
//	error-rate <= 1% [scope=north-america]
//	hit-ratio >= 40% [scope=europe]
//
// Rate thresholds accept percentages ("1%") or fractions ("0.01").
// Latency quantiles are "p50", "p99", "p99.9", …; scope names must
// match the serving stack's DC/region names ("north-america",
// "south-america", "europe", "asia"); an edge refuses any other.
func ParsePolicy(src string) (Policy, error) {
	var p Policy
	lines := strings.FieldsFunc(src, func(r rune) bool { return r == '\n' || r == ';' })
	for _, line := range lines {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		stmt := strings.Join(fields, " ")
		switch fields[0] {
		case "window", "interval":
			if len(fields) != 2 {
				return p, fmt.Errorf("slo: %q: want one duration", stmt)
			}
			d, err := time.ParseDuration(fields[1])
			if err != nil || d <= 0 {
				return p, fmt.Errorf("slo: %q: bad duration %q", stmt, fields[1])
			}
			if fields[0] == "window" {
				p.Window = d
			} else {
				p.Interval = d
			}
		case "burn-windows":
			if len(fields) < 2 {
				return p, fmt.Errorf("slo: %q: want at least one duration", stmt)
			}
			for _, f := range fields[1:] {
				d, err := time.ParseDuration(f)
				if err != nil || d <= 0 {
					return p, fmt.Errorf("slo: %q: bad duration %q", stmt, f)
				}
				p.BurnWindows = append(p.BurnWindows, d)
			}
		case "latency", "error-rate", "hit-ratio":
			o, err := parseObjective(fields)
			if err != nil {
				return p, fmt.Errorf("slo: %q: %w", stmt, err)
			}
			p.Objectives = append(p.Objectives, o)
		default:
			return p, fmt.Errorf("slo: unknown statement %q", stmt)
		}
	}
	p = p.Normalize()
	return p, p.Validate()
}

// parseObjective parses one objective statement already split into
// fields, e.g. ["latency" "p99" "<=" "5ms" "scope=europe"].
func parseObjective(fields []string) (Objective, error) {
	var o Objective
	rest := fields[1:]
	if len(rest) > 0 && strings.HasPrefix(rest[len(rest)-1], "scope=") {
		o.Scope = strings.TrimPrefix(rest[len(rest)-1], "scope=")
		if o.Scope == "" || o.Scope == "global" {
			o.Scope = ""
		}
		rest = rest[:len(rest)-1]
	}
	switch fields[0] {
	case "latency":
		o.Kind = KindLatency
		if len(rest) != 3 || !strings.HasPrefix(rest[0], "p") {
			return o, fmt.Errorf("want: latency p<q> <= <duration>")
		}
		pct, err := strconv.ParseFloat(rest[0][1:], 64)
		if err != nil || !(0 < pct && pct < 100) {
			return o, fmt.Errorf("bad quantile %q", rest[0])
		}
		o.Quantile = pct / 100
		if rest[1] != "<=" && rest[1] != "<" {
			return o, fmt.Errorf("latency objectives use <=, got %q", rest[1])
		}
		d, err := time.ParseDuration(rest[2])
		if err != nil || d <= 0 {
			return o, fmt.Errorf("bad latency bound %q", rest[2])
		}
		o.Threshold = d.Seconds()
	case "error-rate", "hit-ratio":
		wantCmp := "<="
		o.Kind = KindErrorRate
		if fields[0] == "hit-ratio" {
			o.Kind = KindHitRatio
			wantCmp = ">="
		}
		if len(rest) != 2 {
			return o, fmt.Errorf("want: %s %s <fraction|percent>", fields[0], wantCmp)
		}
		if rest[0] != wantCmp && rest[0] != wantCmp[:1] {
			return o, fmt.Errorf("%s objectives use %s, got %q", fields[0], wantCmp, rest[0])
		}
		frac, err := parseFraction(rest[1])
		if err != nil {
			return o, err
		}
		o.Threshold = frac
	}
	return o, o.Validate()
}

// parseFraction parses "1%" or "0.01" into a fraction.
func parseFraction(s string) (float64, error) {
	div := 1.0
	if strings.HasSuffix(s, "%") {
		s, div = strings.TrimSuffix(s, "%"), 100
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || !(0 <= v && v < math.Inf(1)) {
		return 0, fmt.Errorf("bad fraction %q", s)
	}
	return v / div, nil
}

// LoadPolicy resolves a -slo-policy/-policy flag value: if spec names an
// existing file it is read and parsed, otherwise spec itself is parsed
// as inline policy text (so both `-policy policies/demo.slo` and
// `-policy 'latency p99 <= 5ms; hit-ratio >= 40%'` work).
func LoadPolicy(spec string) (Policy, error) {
	if st, err := os.Stat(spec); err == nil && !st.IsDir() {
		data, err := os.ReadFile(spec)
		if err != nil {
			return Policy{}, fmt.Errorf("slo: %w", err)
		}
		p, err := ParsePolicy(string(data))
		if err != nil {
			return p, fmt.Errorf("%s: %w", spec, err)
		}
		return p, nil
	}
	return ParsePolicy(spec)
}
