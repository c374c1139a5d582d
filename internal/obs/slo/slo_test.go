package slo

import (
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
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

func TestTrackerWindowBasic(t *testing.T) {
	tr := NewTracker(time.Second, 10*time.Second, DefaultLatencyBounds())
	// 3 requests in interval 0: two hits at 1ms, one miss at 100ms.
	tr.RecordAt(at(0), 0.001, true, false, false)
	tr.RecordAt(at(100*time.Millisecond), 0.001, true, false, false)
	tr.RecordAt(at(200*time.Millisecond), 0.100, false, true, false)
	// 1 error in interval 2 (no cache verdict).
	tr.RecordAt(at(2*time.Second), 0.050, false, false, true)

	ws := tr.WindowAt(at(2500*time.Millisecond), 5*time.Second)
	if ws.Requests != 4 || ws.Errors != 1 || ws.Hits != 2 || ws.Misses != 1 {
		t.Fatalf("window: %+v", ws)
	}
	almost(t, "hit ratio", ws.HitRatio(), 2.0/3.0)
	almost(t, "error rate", ws.ErrorRate(), 0.25)
	if ws.Latency.Count != 4 {
		t.Fatalf("latency count %d", ws.Latency.Count)
	}
	almost(t, "latency sum", ws.Latency.Sum, 0.001+0.001+0.100+0.050)

	// A 1s window at t=2.5s sees only the interval-2 error.
	ws1 := tr.WindowAt(at(2500*time.Millisecond), time.Second)
	if ws1.Requests != 1 || ws1.Errors != 1 {
		t.Fatalf("1s window: %+v", ws1)
	}
}

func TestTrackerPartialWindow(t *testing.T) {
	// Only 2 of the last 5 intervals ever saw traffic: the window must
	// report exactly that traffic, not fail or extrapolate.
	tr := NewTracker(time.Second, 10*time.Second, DefaultLatencyBounds())
	tr.RecordAt(at(0), 0.001, true, false, false)
	tr.RecordAt(at(time.Second), 0.001, true, false, false)
	ws := tr.WindowAt(at(4*time.Second), 5*time.Second)
	if ws.Requests != 2 {
		t.Fatalf("partial window requests = %d, want 2", ws.Requests)
	}
	if ws.WindowSeconds != 5 {
		t.Fatalf("window seconds = %g", ws.WindowSeconds)
	}
}

func TestTrackerRollover(t *testing.T) {
	// Span 5s => 6 ring slots. Record in interval 0, then in interval 7
	// (same slot 7%6=1 is different; interval 6 reuses slot 0). After
	// rollover, a window covering the old interval must not see the old
	// bucket's data.
	tr := NewTracker(time.Second, 5*time.Second, DefaultLatencyBounds())
	tr.RecordAt(at(0), 0.001, true, false, false) // interval 0, slot i0
	// Reuse interval 0's slot: 6 intervals later.
	tr.RecordAt(at(6*time.Second), 0.002, false, true, false)

	// Window [2s..6s] as of t=6.5s: only the second record.
	ws := tr.WindowAt(at(6500*time.Millisecond), 5*time.Second)
	if ws.Requests != 1 || ws.Misses != 1 || ws.Hits != 0 {
		t.Fatalf("post-rollover window: %+v", ws)
	}
	// The old interval's data is gone even when asking at its own time:
	// the slot was recycled.
	old := tr.WindowAt(at(500*time.Millisecond), time.Second)
	if old.Requests != 0 {
		t.Fatalf("recycled slot still visible: %+v", old)
	}
}

func TestTrackerLateRecordDropped(t *testing.T) {
	tr := NewTracker(time.Second, 5*time.Second, DefaultLatencyBounds())
	tr.RecordAt(at(10*time.Second), 0.001, true, false, false)
	// A record 6 intervals in the past lands on a slot already stamped
	// with a newer epoch; it must be dropped, not misfiled.
	tr.RecordAt(at(4*time.Second), 0.002, false, true, false)
	ws := tr.WindowAt(at(10*time.Second), 5*time.Second)
	if ws.Requests != 1 || ws.Misses != 0 {
		t.Fatalf("late record misfiled: %+v", ws)
	}
}

func TestTrackerRecordNoAlloc(t *testing.T) {
	tr := NewTracker(time.Second, time.Minute, DefaultLatencyBounds())
	now := at(0)
	tr.SetClock(func() time.Time { return now })
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Record(0.003, true, false, false)
		now = now.Add(3 * time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f per op, want 0", allocs)
	}
}

func TestTrackerNil(t *testing.T) {
	var tr *Tracker
	tr.Record(0.1, true, false, false) // must not panic
	if ws := tr.Window(time.Minute); ws.Requests != 0 {
		t.Fatalf("nil tracker window: %+v", ws)
	}
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
	// Drive via the engine's own clock so Record and Report agree.
	now := at(0)
	e.SetClock(func() time.Time { return now })

	tr := e.Global()
	rec := func(n int, lat float64, hit, miss, isErr bool) {
		for i := 0; i < n; i++ {
			tr.Record(lat, hit, miss, isErr)
		}
	}
	// Spread over intervals 0..9 by advancing the clock; the exact split
	// is irrelevant to the window totals.
	for iv := 0; iv < 10; iv++ {
		now = at(time.Duration(iv) * time.Second)
		// 100 requests per interval.
		if iv == 0 {
			// All 25 slow requests (hits at 20ms > 5ms target)...
			rec(25, 0.020, true, false, false)
			// ...and all 12 errors (1ms, no cache verdict).
			rec(12, 0.001, false, false, true)
			rec(63, 0.001, true, false, false)
		} else {
			rec(24, 0.001, false, true, false) // 24 misses per interval * 10 = 240
			rec(68, 0.001, true, false, false)
			rec(8, 0.001, true, false, false)
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

// Hammer Record from many goroutines across interval boundaries while
// a reader assembles windows: the rotation path must stay race-clean
// and no sample may be lost or duplicated.
func TestTrackerConcurrent(t *testing.T) {
	tr := NewTracker(time.Millisecond, 100*time.Millisecond, DefaultLatencyBounds())
	var clock atomic.Int64 // nanos offset from base
	base := at(0)
	tr.SetClock(func() time.Time { return base.Add(time.Duration(clock.Load())) })

	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				clock.Add(int64(5 * time.Microsecond)) // ~80ms total spread
				tr.Record(0.001, true, false, false)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = tr.Window(50 * time.Millisecond)
		}
	}()
	wg.Wait()
	<-done
	ws := tr.WindowAt(base.Add(time.Duration(clock.Load())), 100*time.Millisecond)
	if want := int64(workers * perWorker); ws.Requests != want {
		t.Fatalf("requests = %d, want %d", ws.Requests, want)
	}
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
	now := at(0)
	e.SetClock(func() time.Time { return now })
	// Global + per-scope recording is the caller's job (the edge records
	// into both); mirror that here.
	for i := 0; i < 10; i++ {
		isErr := i < 2 // 20% errors in EU
		e.Global().Record(0.001, !isErr, false, isErr)
		e.Scope("EU").Record(0.001, !isErr, false, isErr)
	}
	for i := 0; i < 10; i++ {
		e.Global().Record(0.001, true, false, false)
		e.Scope("NA").Record(0.001, true, false, false)
	}
	now = at(500 * time.Millisecond)
	rep := e.Report()
	eu := rep.Scopes["EU"]
	if len(eu.Objectives) != 1 || !eu.Objectives[0].Breached || !rep.Breached {
		t.Fatalf("EU scope: %+v", eu)
	}
	if rep.Scopes["NA"].Breached {
		t.Fatalf("NA scope wrongly breached")
	}
	if got := rep.Scopes[GlobalScope].Windows["5s"].Requests; got != 20 {
		t.Fatalf("global requests = %d, want 20", got)
	}
	// An unknown scope returns a nil tracker that swallows records.
	e.Scope("nope").Record(0.001, true, false, false)
}

func TestPolicyEvaluateStats(t *testing.T) {
	p, err := ParsePolicy("latency p99 <= 5ms; hit-ratio >= 90%")
	if err != nil {
		t.Fatal(err)
	}
	bounds := DefaultLatencyBounds()
	tr := NewTracker(time.Second, time.Minute, bounds)
	for i := 0; i < 100; i++ {
		tr.RecordAt(at(0), 0.001, i%2 == 0, i%2 == 1, false)
	}
	ws := tr.WindowAt(at(0), time.Minute)
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
