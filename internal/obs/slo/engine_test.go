package slo

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trafficscope/internal/obs"
)

// Request results, as the edge records them: exactly one per request.
const (
	hit = iota
	miss
	failed
)

// recorder records requests the way the edge does: once, into the
// Source of the request's scope ("" counts toward the global scope
// alone), after having the engine read the sources when the request is
// the first recorded at or past the instant Read last returned.
type recorder struct {
	e    *Engine
	next atomic.Int64
	srcs map[string]Source
}

func newRecorder(t testing.TB, e *Engine, scopes ...string) *recorder {
	t.Helper()
	r := &recorder{e: e, srcs: map[string]Source{}}
	for _, scope := range append([]string{""}, scopes...) {
		src := Source{
			Latency: obs.NewHistogram(DefaultLatencyBounds()),
			Hits:    new(obs.Counter),
			Misses:  new(obs.Counter),
			Errors:  new(obs.Counter),
		}
		if err := e.Attach(scope, src); err != nil {
			t.Fatal(err)
		}
		r.srcs[scope] = src
	}
	return r
}

func (r *recorder) record(now time.Time, scope string, latency float64, result int) {
	if now.UnixNano() >= r.next.Load() {
		r.next.Store(r.e.Read(now))
	}
	src := r.srcs[scope]
	src.Latency.Observe(latency)
	switch result {
	case hit:
		src.Hits.Inc()
	case miss:
		src.Misses.Inc()
	default:
		src.Errors.Inc()
	}
}

// windowAt returns the scope's window of the given span as the engine
// reports it at now.
func windowAt(e *Engine, now time.Time, scope string, span time.Duration) WindowStats {
	e.SetClock(func() time.Time { return now })
	return e.Report().Scopes[scope].Windows[WindowName(span)]
}

func newTestEngine(t *testing.T, policy string, scopes ...string) *Engine {
	t.Helper()
	p, err := ParsePolicy(policy)
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(p, scopes...)
}

func TestEngineWindowBasic(t *testing.T) {
	e := newTestEngine(t, "window 5s; interval 1s; burn-windows 1s 5s")
	r := newRecorder(t, e)
	// 3 requests in interval 0: two hits at 1ms, one miss at 100ms.
	r.record(at(0), "", 0.001, hit)
	r.record(at(100*time.Millisecond), "", 0.001, hit)
	r.record(at(200*time.Millisecond), "", 0.100, miss)
	// 1 error in interval 2 (no cache verdict).
	r.record(at(2*time.Second), "", 0.050, failed)

	ws := windowAt(e, at(2500*time.Millisecond), GlobalScope, 5*time.Second)
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
	ws1 := windowAt(e, at(2500*time.Millisecond), GlobalScope, time.Second)
	if ws1.Requests != 1 || ws1.Errors != 1 {
		t.Fatalf("1s window: %+v", ws1)
	}
}

// Right after start, and while only 2 of the last 5 intervals saw
// traffic, a window reports exactly the traffic seen so far: it neither
// fails nor extrapolates.
func TestEnginePartialWindow(t *testing.T) {
	e := newTestEngine(t, "window 5s; interval 1s; burn-windows 5s")
	if ws := windowAt(e, at(0), GlobalScope, 5*time.Second); ws.Requests != 0 || len(ws.Latency.Counts) != len(DefaultLatencyBounds())+1 {
		t.Fatalf("window before any request: %+v", ws)
	}
	r := newRecorder(t, e)
	r.record(at(0), "", 0.001, hit)
	r.record(at(time.Second), "", 0.001, hit)
	ws := windowAt(e, at(4*time.Second), GlobalScope, 5*time.Second)
	if ws.Requests != 2 || ws.Hits != 2 {
		t.Fatalf("partial window: %+v, want 2 requests", ws)
	}
	if ws.WindowSeconds != 5 {
		t.Fatalf("window seconds = %g", ws.WindowSeconds)
	}
}

// Past the policy's longest window the ring reuses its slots, and a
// window keeps only its own span: one request per interval for 20
// intervals, under a 5s span (a ring of 6 readings), leaves 5 in the
// longest window and 2 in the shortest.
func TestEngineRollover(t *testing.T) {
	e := newTestEngine(t, "window 5s; interval 1s; burn-windows 2s 5s")
	r := newRecorder(t, e)
	for i := 0; i < 20; i++ {
		r.record(at(time.Duration(i)*time.Second+100*time.Millisecond), "", 0.001, miss)
	}
	now := at(19*time.Second + 500*time.Millisecond)
	if ws := windowAt(e, now, GlobalScope, 5*time.Second); ws.Requests != 5 || ws.Misses != 5 {
		t.Fatalf("5s window after rollover: %+v, want 5 requests", ws)
	}
	if ws := windowAt(e, now, GlobalScope, 2*time.Second); ws.Requests != 2 {
		t.Fatalf("2s window after rollover: %+v, want 2 requests", ws)
	}
}

// An interval no request is recorded in takes no reading, and the
// windows around it stay exact: idle windows are empty, and a window
// that opens in an idle stretch starts at the next recorded request.
func TestEngineIdleInterval(t *testing.T) {
	e := newTestEngine(t, "window 5s; interval 1s; burn-windows 1s 2s 5s; error-rate <= 10%")
	r := newRecorder(t, e)
	r.record(at(0), "", 0.001, failed)
	if ws := windowAt(e, at(2500*time.Millisecond), GlobalScope, time.Second); ws.Requests != 0 {
		t.Fatalf("idle 1s window: %+v", ws)
	}
	r.record(at(4*time.Second), "", 0.001, miss)
	now := at(4500 * time.Millisecond)
	for span, want := range map[time.Duration]int64{time.Second: 1, 2 * time.Second: 1, 5 * time.Second: 2} {
		if ws := windowAt(e, now, GlobalScope, span); ws.Requests != want {
			t.Errorf("%v window at 4.5s: %d requests, want %d", span, ws.Requests, want)
		}
	}
	// Five idle intervals later every window is empty, and an empty
	// window is vacuously compliant.
	e.SetClock(func() time.Time { return at(9500 * time.Millisecond) })
	rep := e.Report()
	for name, ws := range rep.Scopes[GlobalScope].Windows {
		if ws.Requests != 0 {
			t.Errorf("%s window after 5 idle intervals: %+v", name, ws)
		}
	}
	if rep.Breached {
		t.Errorf("idle windows breached: %+v", rep.Scopes[GlobalScope].Objectives)
	}
}

// Recording from many goroutines across interval boundaries while a
// reader assembles reports must stay race-clean, and no request may be
// lost or counted twice.
func TestEngineConcurrent(t *testing.T) {
	p := Policy{Window: 100 * time.Millisecond, Interval: time.Millisecond, BurnWindows: []time.Duration{50 * time.Millisecond}}
	e := NewEngine(p, "europe")
	var clock atomic.Int64 // nanos offset from base
	base := at(0)
	now := func() time.Time { return base.Add(time.Duration(clock.Load())) }
	e.SetClock(now)
	r := newRecorder(t, e, "europe")

	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(scope string) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				clock.Add(int64(5 * time.Microsecond)) // ~80ms total spread
				r.record(now(), scope, 0.001, hit)
			}
		}([]string{"", "europe"}[w%2])
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = e.Report()
		}
	}()
	wg.Wait()
	<-done
	rep := e.Report()
	if got, want := rep.Scopes[GlobalScope].Windows["100ms"].Requests, int64(workers*perWorker); got != want {
		t.Fatalf("global requests = %d, want %d", got, want)
	}
	if got, want := rep.Scopes["europe"].Windows["100ms"].Hits, int64(workers*perWorker/2); got != want {
		t.Fatalf("europe hits = %d, want %d", got, want)
	}
}

// Once the ring has wrapped, Read allocates nothing: the edge calls it
// from its request path once per interval.
func TestEngineReadNoAlloc(t *testing.T) {
	e := newTestEngine(t, "window 2s; interval 1s; burn-windows 2s", "europe")
	newRecorder(t, e, "europe")
	now := at(0)
	for i := 0; i < 3; i++ {
		e.Read(now)
		now = now.Add(time.Second)
	}
	allocs := testing.AllocsPerRun(100, func() {
		e.Read(now)
		now = now.Add(time.Second)
	})
	if allocs != 0 {
		t.Fatalf("Read allocates %.1f per op, want 0", allocs)
	}
}

// TestEngineMatchesRequestLog: for random request times, scopes, results
// and latencies, every window of every scope the engine reports equals a
// brute-force sum over a plain log of the requests recorded in the
// window's intervals.
func TestEngineMatchesRequestLog(t *testing.T) {
	type logged struct {
		epoch   int64
		scope   string
		latency float64
		result  int
	}
	const interval = time.Second
	e := newTestEngine(t, "window 10s; interval 1s; burn-windows 1s 3s 10s; error-rate <= 1% scope=EU", "europe", "asia")
	r := newRecorder(t, e, "europe", "asia")
	rng := rand.New(rand.NewSource(1))
	scopes := []string{"", "europe", "asia"}
	var log []logged
	now := at(0)
	for step := 0; step < 60; step++ {
		// A burst of requests, then a gap of up to 12 intervals: some
		// idle, some longer than the longest window.
		for n := rng.Intn(30); n > 0; n-- {
			now = now.Add(time.Duration(rng.Int63n(int64(300 * time.Millisecond))))
			l := logged{
				epoch:   now.UnixNano() / int64(interval),
				scope:   scopes[rng.Intn(len(scopes))],
				latency: rng.ExpFloat64() * 0.01,
				result:  rng.Intn(3),
			}
			r.record(now, l.scope, l.latency, l.result)
			log = append(log, l)
		}
		now = now.Add(time.Duration(rng.Int63n(int64(12 * interval))))
		e.SetClock(func() time.Time { return now })
		rep := e.Report()
		newest := now.UnixNano() / int64(interval)
		for _, scope := range []string{GlobalScope, "europe", "asia", "EU"} {
			for _, span := range e.policy.BurnWindows {
				want := WindowStats{WindowSeconds: span.Seconds()}
				lat := obs.NewHistogram(DefaultLatencyBounds())
				for _, l := range log {
					if l.epoch <= newest-int64(span/interval) || (scope != GlobalScope && scope != l.scope) {
						continue
					}
					want.Requests++
					lat.Observe(l.latency)
					switch l.result {
					case hit:
						want.Hits++
					case miss:
						want.Misses++
					default:
						want.Errors++
					}
				}
				got := rep.Scopes[scope].Windows[WindowName(span)]
				lv := lat.Value()
				if got.Requests != want.Requests || got.Hits != want.Hits || got.Misses != want.Misses ||
					got.Errors != want.Errors || got.WindowSeconds != want.WindowSeconds || got.Latency.Count != lv.Count {
					t.Fatalf("step %d scope %s %v window: got %+v, want %+v", step, scope, span, got, want)
				}
				for i, c := range lv.Counts {
					if got.Latency.Counts[i] != c {
						t.Fatalf("step %d scope %s %v window: latency counts %v, want %v", step, scope, span, got.Latency.Counts, lv.Counts)
					}
				}
				if d := got.Latency.Sum - lv.Sum; d > 1e-9 || d < -1e-9 {
					t.Fatalf("step %d scope %s %v window: latency sum %g, want %g", step, scope, span, got.Latency.Sum, lv.Sum)
				}
			}
		}
	}
}
