package slo

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func almost(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("%s = %g, want %g", name, got, want)
	}
}

func TestParsePolicy(t *testing.T) {
	p, err := ParsePolicy(`
		# demo policy
		window 30s
		interval 1s
		burn-windows 5s 30s 2m
		latency p99 <= 5ms
		error-rate <= 1% scope=NA
		hit-ratio >= 40%
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Window != 30*time.Second || p.Interval != time.Second {
		t.Fatalf("geometry: window %v interval %v", p.Window, p.Interval)
	}
	want := []time.Duration{5 * time.Second, 30 * time.Second, 2 * time.Minute}
	if len(p.BurnWindows) != len(want) {
		t.Fatalf("burn windows %v, want %v", p.BurnWindows, want)
	}
	for i := range want {
		if p.BurnWindows[i] != want[i] {
			t.Fatalf("burn windows %v, want %v", p.BurnWindows, want)
		}
	}
	if len(p.Objectives) != 3 {
		t.Fatalf("objectives: %+v", p.Objectives)
	}
	lat := p.Objectives[0]
	if lat.Kind != KindLatency || lat.Quantile != 0.99 {
		t.Fatalf("latency objective: %+v", lat)
	}
	almost(t, "latency threshold", lat.Threshold, 0.005)
	er := p.Objectives[1]
	if er.Kind != KindErrorRate || er.Scope != "NA" {
		t.Fatalf("error-rate objective: %+v", er)
	}
	almost(t, "error-rate ceiling", er.Threshold, 0.01)
	hr := p.Objectives[2]
	if hr.Kind != KindHitRatio {
		t.Fatalf("hit-ratio objective: %+v", hr)
	}
	almost(t, "hit-ratio floor", hr.Threshold, 0.40)
	if lat.Name() != "latency_p99" || er.Name() != "error_rate" || hr.Name() != "hit_ratio" {
		t.Fatalf("names: %q %q %q", lat.Name(), er.Name(), hr.Name())
	}
}

func TestParsePolicySemicolonsAndFractions(t *testing.T) {
	p, err := ParsePolicy("window 10s; error-rate <= 0.02; latency p99.9 <= 250ms")
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "ceiling", p.Objectives[0].Threshold, 0.02)
	almost(t, "quantile", p.Objectives[1].Quantile, 0.999)
	// Normalize must fold the gate window into the burn windows.
	found := false
	for _, w := range p.BurnWindows {
		if w == 10*time.Second {
			found = true
		}
	}
	if !found {
		t.Fatalf("gate window missing from burn windows %v", p.BurnWindows)
	}
}

func TestParsePolicyErrors(t *testing.T) {
	for _, src := range []string{
		"frobnicate 5",
		"window nope",
		"window -3s",
		"latency p99 >= 5ms",   // wrong comparator
		"latency p0 <= 5ms",    // quantile out of range
		"latency p200 <= 5ms",  // quantile out of range
		"error-rate >= 1%",     // wrong comparator
		"error-rate <= 150%",   // ceiling >= 1
		"hit-ratio <= 40%",     // wrong comparator
		"hit-ratio >= 0%",      // floor must be positive
		"burn-windows",         // missing operand
		"latency p99 <= 5ms x", // trailing junk
		"latency pNaN <= 5ms",  // NaN passes every range check written as x < lo || x > hi
		"error-rate <= NaN",
		"hit-ratio >= NaN%",
		"error-rate <= Inf",
		"interval 1ns",           // a 5 m ring of 1 ns buckets
		"burn-windows 1m 10001s", // the longest window, one interval past maxBuckets
	} {
		if _, err := ParsePolicy(src); err == nil {
			t.Errorf("ParsePolicy(%q): want error", src)
		}
	}
	// A Policy built in code is held to the same bounds.
	nan := math.NaN()
	for _, o := range []Objective{
		{Kind: KindLatency, Quantile: nan, Threshold: 0.005},
		{Kind: KindLatency, Quantile: 0.99, Threshold: nan},
		{Kind: KindLatency, Quantile: 0.99, Threshold: math.Inf(1)},
		{Kind: KindErrorRate, Threshold: nan},
		{Kind: KindHitRatio, Threshold: nan},
	} {
		if err := (Policy{Objectives: []Objective{o}}).Validate(); err == nil {
			t.Errorf("Validate(%+v): want error", o)
		}
	}
	if _, err := ParsePolicy("window 2h; interval 1s"); err != nil {
		t.Errorf("a 7200-bucket ring must parse: %v", err)
	}
}

func TestLoadPolicyFileAndInline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.slo")
	if err := os.WriteFile(path, []byte("latency p90 <= 10ms\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := LoadPolicy(path)
	if err != nil {
		t.Fatal(err)
	}
	inline, err := LoadPolicy("latency p90 <= 10ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(fromFile.Objectives) != 1 || len(inline.Objectives) != 1 {
		t.Fatalf("objectives: file %+v inline %+v", fromFile.Objectives, inline.Objectives)
	}
	if fromFile.Objectives[0] != inline.Objectives[0] {
		t.Fatalf("file %+v != inline %+v", fromFile.Objectives[0], inline.Objectives[0])
	}
}

// at returns a fixed base instant plus an offset; tests pin absolute
// time so interval-epoch math is deterministic.
func at(d time.Duration) time.Time {
	return time.Unix(1_700_000_000, 0).Add(d)
}

// Hand-computed burn-rate fixture: 1000 requests in the gate window, 25
// above the 5ms latency target, 12 errors, 772 hits / 216 misses.
//
//	latency p99 <= 5ms:  bad fraction 25/1000 = 0.025, budget 0.01
//	                     → burn 2.5 (breach)
//	error-rate <= 2%:    bad fraction 12/1000 = 0.012, budget 0.02
//	                     → burn 0.6 (ok)
//	hit-ratio >= 70%:    bad fraction 216/988 ≈ 0.2186, budget 0.30
//	                     → burn 0.7287 (ok)
func TestBurnRateFixture(t *testing.T) {
	p, err := ParsePolicy("window 10s; interval 1s; burn-windows 2s 10s; latency p99 <= 5ms; error-rate <= 2%; hit-ratio >= 70%")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(p)
	// Drive via the engine's own clock so recording and Report agree.
	now := at(0)
	e.SetClock(func() time.Time { return now })

	r := newRecorder(t, e)
	rec := func(n int, lat float64, result int) {
		for i := 0; i < n; i++ {
			r.record(now, "", lat, result)
		}
	}
	// Spread over intervals 0..9 by advancing the clock; the exact split
	// is irrelevant to the window totals.
	for iv := 0; iv < 10; iv++ {
		now = at(time.Duration(iv) * time.Second)
		// 100 requests per interval.
		if iv == 0 {
			// All 25 slow requests (hits at 20ms > 5ms target)...
			rec(25, 0.020, hit)
			// ...and all 12 errors (1ms, no cache verdict).
			rec(12, 0.001, failed)
			rec(63, 0.001, hit)
		} else {
			rec(24, 0.001, miss) // 24 misses per interval * 10 = 240
			rec(68, 0.001, hit)
			rec(8, 0.001, hit)
		}
	}
	// Totals: requests 1000; errors 12; hits 88 + 9*76 = 772; misses
	// 9*24 = 216.
	now = at(9*time.Second + 500*time.Millisecond)
	rep := e.Report()
	g := rep.Scopes[GlobalScope]
	ws := g.Windows["10s"]
	if ws.Requests != 1000 || ws.Errors != 12 {
		t.Fatalf("window totals: %+v", ws)
	}

	// Latency objective (hand-computed): 25 of 1000 above 5ms. The 20ms
	// observations land in the (12.8ms, 25.6ms] histogram bucket, fully
	// above the 5ms bound, and FractionAbove of the 1ms bucket
	// interpolates 0 above 5ms... 1ms observations land in the
	// (0.8ms, 1.6ms] bucket which straddles nothing at 5ms. So bad
	// fraction is exactly 25/1000.
	var latRep, errRep, hitRep ObjectiveReport
	for _, o := range g.Objectives {
		switch o.Name {
		case "latency_p99":
			latRep = o
		case "error_rate":
			errRep = o
		case "hit_ratio":
			hitRep = o
		}
	}
	almost(t, "latency bad fraction", latRep.BadFraction, 0.025)
	almost(t, "latency burn", latRep.BurnRates["10s"], 2.5)
	if !latRep.Breached || !g.Breached || !rep.Breached {
		t.Fatalf("latency breach not propagated: %+v", latRep)
	}
	almost(t, "latency budget remaining", latRep.BudgetRemaining, 1-2.5)

	almost(t, "error bad fraction", errRep.BadFraction, 0.012)
	almost(t, "error burn", errRep.BurnRates["10s"], 0.6)
	if errRep.Breached {
		t.Fatalf("error objective breached: %+v", errRep)
	}
	almost(t, "error budget remaining", errRep.BudgetRemaining, 0.4)

	// Hit ratio with the actual totals: hits 772, misses 216 → bad
	// fraction 216/988, burn = (216/988)/0.30.
	almost(t, "hit bad fraction", hitRep.BadFraction, 216.0/988.0)
	almost(t, "hit burn", hitRep.BurnRates["10s"], (216.0/988.0)/0.30)
	if hitRep.Breached {
		t.Fatalf("hit objective breached: %+v", hitRep)
	}

	// The short burn window (2s) covers intervals 8..9 only: 200
	// requests, no errors, no slow requests → burn 0 for latency and
	// error objectives; hit-ratio burn = (48/200)/0.30 = 0.8.
	almost(t, "latency short burn", latRep.BurnRates["2s"], 0)
	almost(t, "error short burn", errRep.BurnRates["2s"], 0)
	almost(t, "hit short burn", hitRep.BurnRates["2s"], (48.0/200.0)/0.30)
}

// An idle window is vacuously compliant: burn 0, no breach.
func TestEvaluateIdleWindow(t *testing.T) {
	o := Objective{Kind: KindErrorRate, Threshold: 0.01}
	st := o.Evaluate(WindowStats{})
	if st.Breached || st.BurnRate != 0 || st.Observed != 0 {
		t.Fatalf("idle window: %+v", st)
	}
}

// A zero-budget objective (error-rate <= 0) with any error burns at the
// cap, not +Inf.
func TestEvaluateZeroBudgetClamps(t *testing.T) {
	o := Objective{Kind: KindErrorRate, Threshold: 0}
	st := o.Evaluate(WindowStats{Requests: 10, Errors: 1})
	if math.IsInf(st.BurnRate, 1) || st.BurnRate != BurnCap || !st.Breached {
		t.Fatalf("zero budget: %+v", st)
	}
}

func TestEngineScopes(t *testing.T) {
	p, err := ParsePolicy("window 5s; interval 1s; burn-windows 5s; error-rate <= 10% scope=EU")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(p, "NA", "EU")
	e.SetClock(func() time.Time { return at(500 * time.Millisecond) })
	// A request recorded under a scope counts toward it and toward the
	// global scope; one recorded under a scope the engine does not track
	// counts toward the global scope alone.
	r := newRecorder(t, e, "NA", "EU", "nope")
	for i := 0; i < 10; i++ {
		result := hit
		if i < 2 { // 20% errors in EU
			result = failed
		}
		r.record(at(0), "EU", 0.001, result)
	}
	for i := 0; i < 10; i++ {
		r.record(at(0), "NA", 0.001, hit)
	}
	r.record(at(0), "nope", 0.001, hit)
	rep := e.Report()
	eu := rep.Scopes["EU"]
	if len(eu.Objectives) != 1 || !eu.Objectives[0].Breached || !rep.Breached {
		t.Fatalf("EU scope: %+v", eu)
	}
	if rep.Scopes["NA"].Breached {
		t.Fatalf("NA scope wrongly breached")
	}
	if got := rep.Scopes[GlobalScope].Windows["5s"].Requests; got != 21 {
		t.Fatalf("global requests = %d, want 21", got)
	}
	if eu.Windows["5s"].Requests != 10 || rep.Scopes["nope"] != nil {
		t.Fatalf("EU window %+v, untracked scope %+v", eu.Windows["5s"], rep.Scopes["nope"])
	}
}

func TestPolicyEvaluateStats(t *testing.T) {
	p, err := ParsePolicy("latency p99 <= 5ms; hit-ratio >= 90%")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(p)
	e.SetClock(func() time.Time { return at(0) })
	r := newRecorder(t, e)
	for i := 0; i < 100; i++ {
		r.record(at(0), "", 0.001, i%2)
	}
	ws := e.Report().Scopes[GlobalScope].Windows["1m"]
	reps, breached := p.EvaluateStats(ws, "")
	if len(reps) != 2 {
		t.Fatalf("reports: %+v", reps)
	}
	if !breached {
		t.Fatal("50% hit ratio must breach the 90% floor")
	}
	if reps[0].Breached || !reps[1].Breached {
		t.Fatalf("verdicts: %+v", reps)
	}
}
