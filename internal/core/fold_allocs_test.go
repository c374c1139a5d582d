package core

import (
	"runtime"
	"testing"

	"trafficscope/internal/trace"
)

// TestFoldAllocsPerRecord guards the slot-indexed analyzer state: the
// fold allocates when a slice of per-slot state, a key table, a chunk of
// series rows or of the session log grows, never per key — let alone per
// record. When every analyzer kept maps, one slice per user and one
// array per object, this trace took 0.79 allocations a record to fold
// exactly and 0.72 under the budget.
func TestFoldAllocsPerRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-0.03 replay in -short mode")
	}
	replayed := func() []*trace.Record {
		study, err := NewStudy(Config{Seed: 42, Scale: 0.03})
		if err != nil {
			t.Fatal(err)
		}
		var recs []*trace.Record
		err = study.NewCDN().ReplayStream(mustOpen(t, study.Source()), func(r *trace.Record) error {
			cp := *r
			recs = append(recs, &cp)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}()
	for _, mode := range []struct {
		name   string
		budget int
		max    float64
	}{
		{"exact", 0, 0.15},
		{"budget 5000", 5000, 0.10},
	} {
		study, err := NewStudy(Config{Seed: 42, Scale: 0.03, Workers: 2, MemoryBudget: mode.budget})
		if err != nil {
			t.Fatal(err)
		}
		fold := func() {
			res, err := study.AnalyzeOnly(trace.NewSliceReader(replayed))
			if err != nil {
				t.Fatal(err)
			}
			if res.Records != int64(len(replayed)) {
				t.Fatalf("folded %d of %d records", res.Records, len(replayed))
			}
		}
		fold() // untimed: warms the runtime and the batch pool
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fold()
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs-before.Mallocs) / float64(len(replayed))
		t.Logf("%s: %d records, %.4f allocs/record, %.1f B/record", mode.name, len(replayed), allocs,
			float64(after.TotalAlloc-before.TotalAlloc)/float64(len(replayed)))
		if allocs > mode.max {
			t.Errorf("%s: %.4f allocs/record, want <= %.2f", mode.name, allocs, mode.max)
		}
	}
}

func mustOpen(t *testing.T, src trace.Source) trace.Reader {
	t.Helper()
	r, err := src.Open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { trace.CloseReader(r) })
	return r
}
