package slo

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// twoBackendReports builds two engine reports the way a fleet produces
// them: each backend records its own traffic into global + its DC scope,
// and the collector snapshots both at the same instant.
func twoBackendReports(t *testing.T, policy string) (Report, Report) {
	t.Helper()
	p, err := ParsePolicy(policy)
	if err != nil {
		t.Fatal(err)
	}
	now := at(5 * time.Second)
	mk := func(scope string) (*Engine, *recorder) {
		e := NewEngine(p, scope)
		e.SetClock(func() time.Time { return now })
		return e, newRecorder(t, e, scope)
	}
	eu, euRec := mk("europe")
	as, asRec := mk("asia")

	// Backend A (europe): 100 hits at 1ms, clean.
	for i := 0; i < 100; i++ {
		euRec.record(at(time.Second), "europe", 0.001, hit)
	}
	// Backend B (asia): 49 hits + 49 misses at 2ms, and 2 errors.
	for i := 0; i < 100; i++ {
		result := i % 2
		if i < 2 {
			result = failed
		}
		asRec.record(at(2*time.Second), "asia", 0.002, result)
	}
	return eu.Report(), as.Report()
}

func TestMergeReports(t *testing.T) {
	repA, repB := twoBackendReports(t,
		"window 10s; interval 1s; burn-windows 2s 10s; latency p99 <= 100ms; error-rate <= 5%; hit-ratio >= 50%")
	merged, err := MergeReports(repA, repB)
	if err != nil {
		t.Fatal(err)
	}

	for _, scope := range []string{GlobalScope, "europe", "asia"} {
		if merged.Scopes[scope] == nil {
			t.Fatalf("merged report missing scope %q", scope)
		}
	}
	g := merged.Scopes[GlobalScope].Windows["10s"]
	if g.Requests != 200 || g.Errors != 2 || g.Hits != 149 || g.Misses != 49 {
		t.Fatalf("merged global 10s window: %+v", g)
	}
	if g.Latency.Count != 200 {
		t.Fatalf("merged latency count = %d, want 200", g.Latency.Count)
	}
	almost(t, "merged latency sum", g.Latency.Sum, 100*0.001+100*0.002)
	// Per-DC scopes carry only their own backend's traffic.
	if eu := merged.Scopes["europe"].Windows["10s"]; eu.Requests != 100 || eu.Hits != 100 {
		t.Fatalf("merged europe window: %+v", eu)
	}
	if as := merged.Scopes["asia"].Windows["10s"]; as.Requests != 100 || as.Errors != 2 {
		t.Fatalf("merged asia window: %+v", as)
	}

	// Objectives were re-evaluated over the pooled traffic: error rate
	// 2/200 = 1% under the 5% budget, hit ratio 149/198 > 50%.
	if merged.Breached {
		t.Fatalf("merged report breached: %+v", merged.Scopes[GlobalScope].Objectives)
	}
	gObjs := merged.Scopes[GlobalScope].Objectives
	if len(gObjs) != 3 {
		t.Fatalf("merged global objectives: %d, want 3", len(gObjs))
	}
	for _, o := range gObjs {
		if o.Observed == 0 {
			t.Fatalf("objective %s saw no traffic", o.Name)
		}
		if _, ok := o.BurnRates["2s"]; !ok {
			t.Fatalf("objective %s missing 2s burn window: %v", o.Name, o.BurnRates)
		}
	}

	// tsgate reads the report back over HTTP: the merged report must
	// survive a JSON round trip with its verdicts intact.
	buf, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Breached != merged.Breached || back.Scopes[GlobalScope].Windows["10s"].Requests != 200 {
		t.Fatal("merged report did not survive JSON round trip")
	}
}

func TestMergeReportsPooledBreach(t *testing.T) {
	// The verdict must come from pooled traffic, not from any single
	// backend: A is clean (1000 requests, 0 errors), B is tiny but on
	// fire (20 requests, 15 errors). Pooled error rate 15/1020 ≈ 1.47%
	// breaches a 1% budget even though A alone is far under it.
	p, err := ParsePolicy("window 10s; interval 1s; burn-windows 10s; error-rate <= 1%")
	if err != nil {
		t.Fatal(err)
	}
	now := at(5 * time.Second)
	mk := func() (*Engine, *recorder) {
		e := NewEngine(p)
		e.SetClock(func() time.Time { return now })
		return e, newRecorder(t, e)
	}
	a, aRec := mk()
	b, bRec := mk()
	for i := 0; i < 1000; i++ {
		aRec.record(at(time.Second), "", 0.001, hit)
	}
	for i := 0; i < 20; i++ {
		result := hit
		if i < 15 {
			result = failed
		}
		bRec.record(at(time.Second), "", 0.001, result)
	}
	repA, repB := a.Report(), b.Report()
	if repA.Breached {
		t.Fatal("backend A alone must be compliant")
	}
	merged, err := MergeReports(repA, repB)
	if err != nil {
		t.Fatal(err)
	}
	if !merged.Breached {
		t.Fatal("pooled error rate 15/1020 must breach the 1% budget")
	}
	o := merged.Scopes[GlobalScope].Objectives[0]
	almost(t, "pooled actual", o.Actual, 15.0/1020.0)
	almost(t, "pooled burn", o.BurnRates["10s"], (15.0/1020.0)/0.01)
}

func TestMergeReportsSingleIsIdentity(t *testing.T) {
	repA, _ := twoBackendReports(t,
		"window 10s; interval 1s; burn-windows 2s 10s; latency p99 <= 100ms; error-rate <= 5%")
	merged, err := MergeReports(repA)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(repA)
	got, _ := json.Marshal(merged)
	if string(got) != string(want) {
		t.Fatalf("single-report merge is not the identity:\n got %s\nwant %s", got, want)
	}
}

func TestMergeReportsErrors(t *testing.T) {
	if _, err := MergeReports(); err == nil {
		t.Error("no reports: want error")
	}
	repA, _ := twoBackendReports(t, "window 10s; interval 1s; burn-windows 10s; error-rate <= 5%")
	repB, _ := twoBackendReports(t, "window 20s; interval 1s; burn-windows 20s; error-rate <= 5%")
	if _, err := MergeReports(repA, repB); err == nil {
		t.Error("mismatched gate windows: want error")
	}
}

// TestMergeReportsNullScope: a /slo reply holding null for a scope is an
// error naming the report and the scope, not a nil dereference on the
// collector's goroutine.
func TestMergeReportsNullScope(t *testing.T) {
	repA, _ := twoBackendReports(t, "window 10s; interval 1s; burn-windows 10s; error-rate <= 5%")
	var null Report
	if err := json.Unmarshal([]byte(`{"interval_seconds":1,"gate_window_seconds":10,"scopes":{"global":null}}`), &null); err != nil {
		t.Fatal(err)
	}
	_, err := MergeReports(repA, null)
	if err == nil || !strings.Contains(err.Error(), `report 1 scope "global"`) {
		t.Errorf("merge with a null scope: err %v, want one naming report 1 scope \"global\"", err)
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range []Kind{KindLatency, KindErrorRate, KindHitRatio} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("throughput"); err == nil {
		t.Error("unknown kind: want error")
	}
}

// TestOneEvaluator: the three ways an objective becomes a verdict —
// Engine.Report, MergeReports of that one report, and
// Policy.EvaluateStats on the report's gate window — agree field for
// field on every objective, including a breached one and one whose burn
// rate runs past BurnCap (a zero error budget with an error observed).
func TestOneEvaluator(t *testing.T) {
	p, err := ParsePolicy("window 10s; interval 1s; burn-windows 2s 10s; " +
		"latency p99 <= 100ms; latency p50 <= 1ms; error-rate <= 0%; hit-ratio >= 90%; " +
		"hit-ratio >= 10% scope=europe; error-rate <= 50% scope=europe")
	if err != nil {
		t.Fatal(err)
	}
	now := at(5 * time.Second)
	e := NewEngine(p, "europe")
	e.SetClock(func() time.Time { return now })
	r := newRecorder(t, e, "europe")
	// 100 requests at 2ms, 25 a second: half hits, half misses, two errors.
	for i := 0; i < 100; i++ {
		result := i % 2
		if i < 2 {
			result = failed
		}
		r.record(at(time.Duration(i/25)*time.Second), "europe", 0.002, result)
	}
	rep := e.Report()
	merged, err := MergeReports(rep)
	if err != nil {
		t.Fatal(err)
	}
	const gate = "10s"
	var breached, capped int
	for scopeKey, sr := range rep.Scopes {
		scope := scopeKey
		if scope == GlobalScope {
			scope = ""
		}
		stats, _ := p.EvaluateStats(sr.Windows[gate], scope)
		if len(stats) != len(sr.Objectives) || len(merged.Scopes[scopeKey].Objectives) != len(sr.Objectives) {
			t.Fatalf("scope %s: %d engine verdicts, %d merged, %d from EvaluateStats",
				scopeKey, len(sr.Objectives), len(merged.Scopes[scopeKey].Objectives), len(stats))
		}
		for i, want := range sr.Objectives {
			if got := merged.Scopes[scopeKey].Objectives[i]; !reflect.DeepEqual(got, want) {
				t.Errorf("scope %s %s: merged %+v, engine %+v", scopeKey, want.Name, got, want)
			}
			// EvaluateStats sees the gate window alone, so it reports
			// that one burn rate; every other field must match.
			narrowed := want
			narrowed.BurnRates = map[string]float64{gate: want.BurnRates[gate]}
			if !reflect.DeepEqual(stats[i], narrowed) {
				t.Errorf("scope %s %s: EvaluateStats %+v, engine %+v", scopeKey, want.Name, stats[i], narrowed)
			}
			if len(want.BurnRates) != 2 || want.Observed == 0 {
				t.Errorf("scope %s %s: verdict rests on %d windows, %d observations", scopeKey, want.Name, len(want.BurnRates), want.Observed)
			}
			if want.Breached {
				breached++
			}
			if want.BurnRates[gate] == BurnCap {
				capped++
				// Evaluate caps the burn rate, so the budget bottoms out
				// one short of the report's own -BurnCap floor.
				if want.BudgetRemaining != 1-BurnCap {
					t.Errorf("scope %s %s: budget remaining %g at the burn cap, want %g", scopeKey, want.Name, want.BudgetRemaining, 1-BurnCap)
				}
			}
		}
	}
	// Breached: p50 <= 1ms, error-rate <= 0% (capped) and hit-ratio >= 90%.
	if breached != 3 || capped != 1 {
		t.Errorf("%d breached objectives (%d at BurnCap), want 3 (1)", breached, capped)
	}
}
