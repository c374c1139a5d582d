package slo

import (
	"fmt"
	"strings"
	"time"

	"trafficscope/internal/report"
)

// Engine evaluates a Policy against live traffic: one Tracker for the
// global stream plus one per named scope (the serving stack scopes by
// DC/region name). Construct with NewEngine, hand scope trackers to the
// request path, and ask for Report snapshots from the control plane.
type Engine struct {
	policy Policy
	global *Tracker
	scopes map[string]*Tracker
	order  []string // scope iteration order (registration order)
}

// NewEngine builds an engine for the (normalized) policy and the given
// scope names. Scope names referenced by policy objectives but missing
// from scopes are added automatically so the objectives are evaluable.
func NewEngine(p Policy, scopes ...string) *Engine {
	p = p.Normalize()
	e := &Engine{policy: p, scopes: map[string]*Tracker{}}
	span, bounds := p.Span(), DefaultLatencyBounds()
	e.global = NewTracker(p.Interval, span, bounds)
	add := func(name string) {
		if name == "" {
			return
		}
		if _, ok := e.scopes[name]; !ok {
			e.scopes[name] = NewTracker(p.Interval, span, bounds)
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

// Global returns the all-traffic tracker. Nil-safe.
func (e *Engine) Global() *Tracker {
	if e == nil {
		return nil
	}
	return e.global
}

// Scope returns the tracker for a named scope, or nil if the scope is
// not tracked (callers record into nil trackers as no-ops).
func (e *Engine) Scope(name string) *Tracker {
	if e == nil {
		return nil
	}
	return e.scopes[name]
}

// SetClock replaces the time source of every tracker (test hook). Must
// be called before any traffic is recorded.
func (e *Engine) SetClock(now func() time.Time) {
	e.global.SetClock(now)
	for _, t := range e.scopes {
		t.SetClock(now)
	}
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

// Report evaluates the policy over the trackers as of now.
func (e *Engine) Report() Report {
	rep := Report{
		IntervalSeconds:   e.policy.Interval.Seconds(),
		GateWindowSeconds: e.policy.Window.Seconds(),
		Scopes:            map[string]*ScopeReport{},
	}
	for _, w := range e.policy.BurnWindows {
		rep.WindowsSeconds = append(rep.WindowsSeconds, w.Seconds())
	}

	scopeWindows := func(t *Tracker) map[string]WindowStats {
		m := make(map[string]WindowStats, len(e.policy.BurnWindows))
		for _, w := range e.policy.BurnWindows {
			m[WindowName(w)] = t.Window(w)
		}
		return m
	}
	rep.Scopes[GlobalScope] = &ScopeReport{Windows: scopeWindows(e.global)}
	for _, name := range e.order {
		rep.Scopes[name] = &ScopeReport{Windows: scopeWindows(e.scopes[name])}
	}

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
