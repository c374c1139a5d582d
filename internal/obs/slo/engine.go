package slo

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"trafficscope/internal/obs"
	"trafficscope/internal/report"
)

// DefaultLatencyBounds returns the serving stack's request-latency
// bucket layout: 22 doubling bounds from 50µs to 105s, past which a
// request lands in the +Inf bucket. The edge's edge_request_seconds
// histograms use it, and so does every window an Engine reports.
func DefaultLatencyBounds() []float64 {
	return obs.ExpBuckets(50e-6, 2, 22)
}

// Engine evaluates a Policy against live traffic that the serving tier
// records once, into handles of its own registry (a Source per stream of
// requests, attached with Attach). Readings of those handles, one per
// policy interval, sit in a ring as long as the policy's longest window,
// and a window is the handles' current values less the reading that
// opened it — the subtraction a tsload summary makes over its run. The
// global scope sums every source; a named scope (the serving stack names
// them by DC/region) sums the sources attached under its name.
type Engine struct {
	policy Policy
	order  []string  // named scopes, in registration order
	bounds []float64 // the one latency layout every tally shares
	now    func() time.Time

	mu      sync.Mutex
	sources []source
	ring    []reading // the reading of epoch e sits at e % len(ring)
	last    int64     // epoch of the newest reading, -1 before the first
}

// Source is one stream of requests as the serving tier records it: one
// latency observation per request, and the hits, misses and errors among
// them. The histogram uses DefaultLatencyBounds; nil counters count zero.
type Source struct {
	Latency              *obs.Histogram
	Hits, Misses, Errors *obs.Counter
}

// source is an attached Source and the tally it adds into: the index of
// its named scope, or len(order) when it counts toward the global scope
// alone.
type source struct {
	Source
	group int
}

// reading holds the sources' values as the interval epoch (interval
// index since the Unix epoch) opened, summed into one tally per group.
// groups is nil until the ring slot is first used.
type reading struct {
	epoch  int64
	groups []tally
}

// tally is one group's counts at a reading.
type tally struct {
	hits, misses, errors int64
	latency              *obs.Histogram
}

// NewEngine builds an engine for the (normalized) policy and the given
// scope names. Scope names referenced by policy objectives but missing
// from scopes are added automatically so the objectives are evaluable.
func NewEngine(p Policy, scopes ...string) *Engine {
	p = p.Normalize()
	e := &Engine{
		policy: p,
		bounds: DefaultLatencyBounds(),
		now:    time.Now,
		ring:   make([]reading, p.Span()/p.Interval+1),
		last:   -1,
	}
	add := func(name string) {
		if name != "" && !slices.Contains(e.order, name) {
			e.order = append(e.order, name)
		}
	}
	for _, s := range scopes {
		add(s)
	}
	for _, o := range p.Objectives {
		add(o.Scope)
	}
	return e
}

// SetClock replaces the time source Report judges windows by (test
// hook).
func (e *Engine) SetClock(now func() time.Time) { e.now = now }

// Attach adds a stream of requests to the engine: it counts toward the
// global scope and, when scope names one of the engine's scopes, toward
// that scope as well. Attach a source before it records its first
// request.
func (e *Engine) Attach(scope string, src Source) error {
	if err := obs.NewHistogram(e.bounds).Merge(src.Latency); err != nil {
		return fmt.Errorf("slo: source latency: %w", err)
	}
	group := slices.Index(e.order, scope)
	if group < 0 {
		group = len(e.order)
	}
	e.mu.Lock()
	e.sources = append(e.sources, source{src, group})
	e.mu.Unlock()
	return nil
}

// Read takes the reading that opens now's interval, unless that interval
// or a later one has been read already, and returns the Unix nanosecond
// at which the interval after the newest reading opens. A recorder calls
// it before recording its first request at or past that instant, so a
// request counts in the interval it is recorded in. An interval in which
// no request is recorded needs no reading: the sources did not move.
func (e *Engine) Read(now time.Time) int64 {
	epoch := now.UnixNano() / int64(e.policy.Interval)
	e.mu.Lock()
	defer e.mu.Unlock()
	if epoch > e.last {
		r := &e.ring[epoch%int64(len(e.ring))]
		if r.groups == nil {
			r.groups = e.tallies()
		}
		r.epoch = epoch
		e.readInto(r.groups)
		e.last = epoch
	}
	return (e.last + 1) * int64(e.policy.Interval)
}

// tallies allocates one empty tally per group.
func (e *Engine) tallies() []tally {
	ts := make([]tally, len(e.order)+1)
	for i := range ts {
		ts[i].latency = obs.NewHistogram(e.bounds)
	}
	return ts
}

// readInto sums the sources' current values into ts. Call with e.mu
// held.
func (e *Engine) readInto(ts []tally) {
	for i := range ts {
		ts[i] = tally{latency: ts[i].latency}
		ts[i].latency.Reset()
	}
	for _, s := range e.sources {
		t := &ts[s.group]
		t.hits += s.Hits.Value()
		t.misses += s.Misses.Value()
		t.errors += s.Errors.Value()
		t.latency.Merge(s.Latency) // one layout, checked by Attach
	}
}

// opening returns the reading that opened the window starting at epoch
// from: the first one taken at or after it, since the sources did not
// move in the intervals before it that took none. nil means no request
// was recorded since from. Call with e.mu held.
func (e *Engine) opening(from int64) *reading {
	n := int64(len(e.ring))
	for epoch := from; epoch <= e.last && epoch < from+n; epoch++ {
		if r := &e.ring[epoch%n]; r.epoch == epoch && r.groups != nil {
			return r
		}
	}
	return nil
}

// ObjectiveReport is one objective's multi-window verdict.
type ObjectiveReport struct {
	Name     string  `json:"name"`
	Kind     string  `json:"kind"`
	Scope    string  `json:"scope,omitempty"`
	Quantile float64 `json:"quantile,omitempty"`
	// Threshold is the objective bound in its own unit (seconds or
	// fraction).
	Threshold float64 `json:"threshold"`
	// Actual, BadFraction and Observed are measured over the gate window.
	Actual      float64 `json:"actual"`
	BadFraction float64 `json:"bad_fraction"`
	Observed    int64   `json:"observed"`
	// BurnRates maps burn-window name ("5s", "1m", ...) to the burn rate
	// over that window.
	BurnRates map[string]float64 `json:"burn_rates"`
	// BudgetRemaining is 1 - (gate-window burn rate): the fraction of
	// the gate window's error budget still unspent (negative when
	// overspent, floored at -BurnCap).
	BudgetRemaining float64 `json:"budget_remaining"`
	// Breached reports a gate-window burn rate above 1 with traffic
	// observed.
	Breached bool `json:"breached"`
}

// ScopeReport is one scope's windows and objective verdicts.
type ScopeReport struct {
	// Windows maps window name ("5s", "1m", ...) to that window's
	// aggregated traffic.
	Windows map[string]WindowStats `json:"windows"`
	// Objectives holds the verdicts for objectives bound to this scope.
	Objectives []ObjectiveReport `json:"objectives,omitempty"`
	// Breached reports whether any objective in this scope breached.
	Breached bool `json:"breached"`
}

// Report is a point-in-time SLO compliance snapshot — the payload of
// the edge's /slo endpoint and tsgate's input.
type Report struct {
	IntervalSeconds   float64 `json:"interval_seconds"`
	GateWindowSeconds float64 `json:"gate_window_seconds"`
	// WindowsSeconds lists the burn-window spans, ascending.
	WindowsSeconds []float64 `json:"windows_seconds"`
	// Scopes maps scope name to its report; "global" is always present.
	Scopes map[string]*ScopeReport `json:"scopes"`
	// Breached reports whether any objective anywhere breached.
	Breached bool `json:"breached"`
}

// GlobalScope is the Scopes key for the all-traffic scope.
const GlobalScope = "global"

// WindowName renders a window span the way reports key them ("5s",
// "1m", "2m30s") — time.Duration.String with the trailing zero units
// ("1m0s") trimmed.
func WindowName(d time.Duration) string {
	s := d.String()
	if strings.HasSuffix(s, "m0s") {
		s = s[:len(s)-2]
	}
	if strings.HasSuffix(s, "h0m") {
		s = s[:len(s)-2]
	}
	return s
}

// Report evaluates the policy over the windows as of now.
func (e *Engine) Report() Report {
	rep := Report{
		IntervalSeconds:   e.policy.Interval.Seconds(),
		GateWindowSeconds: e.policy.Window.Seconds(),
		Scopes:            map[string]*ScopeReport{},
	}
	for _, w := range e.policy.BurnWindows {
		rep.WindowsSeconds = append(rep.WindowsSeconds, w.Seconds())
	}

	// Group g of a reading is scope e.order[g]; the last, the sources of
	// no named scope, shows only in the global scope, which sums them all.
	scopes := make([]*ScopeReport, len(e.order)+1)
	for g := range scopes {
		scopes[g] = &ScopeReport{Windows: make(map[string]WindowStats, len(e.policy.BurnWindows))}
		if g < len(e.order) {
			rep.Scopes[e.order[g]] = scopes[g]
		}
	}
	global := &ScopeReport{Windows: make(map[string]WindowStats, len(e.policy.BurnWindows))}
	rep.Scopes[GlobalScope] = global

	newest := e.now().UnixNano() / int64(e.policy.Interval)
	live := e.tallies()
	e.mu.Lock()
	e.readInto(live)
	for _, span := range e.policy.BurnWindows {
		name := WindowName(span)
		base := live // no reading since the window opened: it is empty
		if r := e.opening(newest - int64(span/e.policy.Interval) + 1); r != nil {
			base = r.groups
		}
		for g, t := range live {
			b := base[g]
			lat := t.latency.Value().Less(b.latency.Value())
			ws := WindowStats{
				WindowSeconds: span.Seconds(),
				Requests:      lat.Count,
				Errors:        t.errors - b.errors,
				Hits:          t.hits - b.hits,
				Misses:        t.misses - b.misses,
				Latency:       lat,
			}
			scopes[g].Windows[name] = ws
			global.Windows[name], _ = mergeWindow(global.Windows[name], ws) // one layout throughout
		}
	}
	e.mu.Unlock()

	for _, o := range e.policy.Objectives {
		scopeName := o.Scope
		if scopeName == "" {
			scopeName = GlobalScope
		}
		sr := rep.Scopes[scopeName]
		or := o.report(sr.Windows, WindowName(e.policy.Window))
		sr.Objectives = append(sr.Objectives, or)
		if or.Breached {
			sr.Breached = true
			rep.Breached = true
		}
	}
	return rep
}

// EvaluateStats runs the policy's objectives against a single
// already-aggregated window (a tsload run summary). Only objectives
// whose scope matches scopeName (or global objectives when scopeName is
// "") are evaluated. Returns the verdicts and whether any breached.
func (p Policy) EvaluateStats(ws WindowStats, scopeName string) ([]ObjectiveReport, bool) {
	var out []ObjectiveReport
	breached := false
	wn := WindowName(time.Duration(ws.WindowSeconds * float64(time.Second)))
	windows := map[string]WindowStats{wn: ws}
	for _, o := range p.Objectives {
		if o.Scope != scopeName {
			continue
		}
		or := o.report(windows, wn)
		out = append(out, or)
		if or.Breached {
			breached = true
		}
	}
	return out, breached
}

// report is the one place an objective becomes a verdict: its burn rate
// over every window in windows, and over the window named gate the
// measurements a breach is judged on. Engine.Report, MergeReports and
// EvaluateStats differ only in where their windows come from.
func (o Objective) report(windows map[string]WindowStats, gate string) ObjectiveReport {
	or := ObjectiveReport{
		Name:      o.Name(),
		Kind:      o.Kind.String(),
		Scope:     o.Scope,
		Quantile:  o.Quantile,
		Threshold: o.Threshold,
		BurnRates: make(map[string]float64, len(windows)),
	}
	for wn, ws := range windows {
		st := o.Evaluate(ws)
		or.BurnRates[wn] = st.BurnRate
		if wn == gate {
			or.Actual = st.Actual
			or.BadFraction = st.BadFraction
			or.Observed = st.Observed
			or.Breached = st.Breached
			or.BudgetRemaining = 1 - st.BurnRate
			if or.BudgetRemaining < -BurnCap {
				or.BudgetRemaining = -BurnCap
			}
		}
	}
	return or
}

// VerdictTable renders one row per objective verdict, with the burn rate
// over the gate window gate — the table tsgate prints.
func VerdictTable(title string, verdicts []ObjectiveReport, gate string) *report.Table {
	tab := report.NewTable(title, "objective", "scope", "actual", "threshold", "burn", "verdict")
	value := func(kind string, v float64) string {
		if kind == KindLatency.String() {
			return time.Duration(v * float64(time.Second)).Round(10 * time.Microsecond).String()
		}
		return report.Percent(v)
	}
	for _, r := range verdicts {
		scope := r.Scope
		if scope == "" {
			scope = GlobalScope
		}
		verdict := "ok"
		if r.Breached {
			verdict = "BREACH"
		}
		tab.AddRow(r.Name, scope, value(r.Kind, r.Actual), value(r.Kind, r.Threshold),
			fmt.Sprintf("%.2f", r.BurnRates[gate]), verdict)
	}
	return tab
}
