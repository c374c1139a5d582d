package slo

import (
	"encoding/json"
	"testing"
	"time"
)

// FuzzMergeReports: whatever two backends answer on /slo, the
// collector's merge either refuses the pair or returns windows whose
// latency histograms agree with themselves (the count is the sum of the
// buckets), so a merged quantile or bad fraction is computed from
// consistent data. It never panics: the merge runs on the collector's
// own goroutine, and a panic there takes tsrouter or tscluster down.
func FuzzMergeReports(f *testing.F) {
	p, err := ParsePolicy("window 10s; interval 1s; burn-windows 10s; latency p99 <= 100ms; error-rate <= 5% scope=europe")
	if err != nil {
		f.Fatal(err)
	}
	e := NewEngine(p, "europe")
	e.SetClock(func() time.Time { return at(5 * time.Second) })
	r := newRecorder(f, e, "europe")
	for i := 0; i < 20; i++ {
		result := i % 2
		if i == 3 {
			result = failed
		}
		r.record(at(time.Second), "europe", 0.001*float64(i), result)
	}
	real, err := json.Marshal(e.Report())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real, real)
	f.Add(real, []byte(`{"interval_seconds":1,"gate_window_seconds":10,"scopes":{"global":null}}`))
	f.Add([]byte(`{"interval_seconds":1,"gate_window_seconds":10,"scopes":{"global":{"windows":{"10s":{"requests":3,"latency":{"bounds":[1,10],"counts":[1,1,1],"count":3}}}}}}`),
		[]byte(`{"interval_seconds":1,"gate_window_seconds":10,"scopes":{"global":{"windows":{"10s":{"requests":103,"latency":{"bounds":[1,10],"counts":[1,1,1,100,0],"count":103}}}}}}`))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var ra, rb Report
		if json.Unmarshal(a, &ra) != nil || json.Unmarshal(b, &rb) != nil {
			return
		}
		merged, err := MergeReports(ra, rb)
		if err != nil {
			return
		}
		for scope, sr := range merged.Scopes {
			for wn, ws := range sr.Windows {
				var sum int64
				for _, c := range ws.Latency.Counts {
					sum += c
				}
				if sum != ws.Latency.Count {
					t.Fatalf("scope %q window %q: latency count %d, buckets sum to %d", scope, wn, ws.Latency.Count, sum)
				}
			}
		}
	})
}
