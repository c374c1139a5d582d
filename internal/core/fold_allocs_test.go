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
// exactly and 0.72 under the budget. It also guards the routing: each
// site is folded on one worker and merged by adoption, so two workers
// allocate what one does. When batches went to whichever worker was free,
// both built state for every site and the merge re-inserted it: 58 %
// more bytes a record on this trace.
//
// Measured at either worker count: 0.014 allocations a record exact and
// 0.023 under the budget, 0.018 and 0.027 in a -race build; the ceilings
// leave about a third above the plain build.
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
		{"exact", 0, 0.019},
		{"budget 5000", 5000, 0.031},
	} {
		var bytes [3]float64 // B/record by worker count
		for _, workers := range []int{1, 2} {
			study, err := NewStudy(Config{Seed: 42, Scale: 0.03, Workers: workers, MemoryBudget: mode.budget})
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
			fold() // untimed: warms the runtime
			// The least of three folds, so that a collection emptying the
			// batch pool mid-fold does not count.
			var allocs float64
			for rep := 0; rep < 3; rep++ {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				fold()
				runtime.ReadMemStats(&after)
				b := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(replayed))
				if rep == 0 || b < bytes[workers] {
					allocs = float64(after.Mallocs-before.Mallocs) / float64(len(replayed))
					bytes[workers] = b
				}
			}
			t.Logf("%s, %d workers: %d records, %.4f allocs/record, %.1f B/record",
				mode.name, workers, len(replayed), allocs, bytes[workers])
			if allocs > mode.max {
				t.Errorf("%s, %d workers: %.4f allocs/record, want <= %.2f", mode.name, workers, allocs, mode.max)
			}
		}
		// A -race build's sync.Pool drops a random share of the batches
		// put back, which moves either count by more than the margin.
		if !raceEnabled && bytes[2] > 1.05*bytes[1] {
			t.Errorf("%s: %.1f B/record on 2 workers against %.1f on 1, want at most 5%% more",
				mode.name, bytes[2], bytes[1])
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
