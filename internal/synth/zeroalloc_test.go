package synth

import (
	"io"
	"runtime"
	"testing"
	"unsafe"

	"trafficscope/internal/trace"
)

// TestGenerationAllocsPerRecord guards the slab-backed record flow on
// both generation paths: records are carved out of one slab per (site,
// hour) shard, so a run allocates per shard — well under 0.05 times per
// record at a scale where shards hold a few dozen records — and little
// more than the records themselves plus, on the parallel path, one
// pointer each. The byte bound is what catches an over-sized slab.
func TestGenerationAllocsPerRecord(t *testing.T) {
	g := newTestGenerator(t, 3, 0.03)
	paths := []struct {
		name string
		run  func(sink func(*trace.Record) error) error
	}{
		{"GenerateTo", g.GenerateTo},
		{"ParallelReader", func(sink func(*trace.Record) error) error {
			r := g.ParallelReader(ParallelOptions{Workers: 2})
			defer r.Close()
			var rec trace.Record
			for {
				if err := r.Read(&rec); err == io.EOF {
					return nil
				} else if err != nil {
					return err
				}
				if err := sink(&rec); err != nil {
					return err
				}
			}
		}},
	}
	const maxBytes = 1.25*float64(unsafe.Sizeof(trace.Record{})) + float64(unsafe.Sizeof(uintptr(0)))
	for _, p := range paths {
		var records int
		count := func(*trace.Record) error { records++; return nil }
		if err := p.run(count); err != nil { // untimed: sizes the run, warms the runtime
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		records = 0
		if err := p.run(count); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs-before.Mallocs) / float64(records)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(records)
		t.Logf("%s: %d records, %.4f allocs/record, %.1f B/record", p.name, records, allocs, bytes)
		if allocs > 0.05 {
			t.Errorf("%s: %.4f allocs/record, want <= 0.05", p.name, allocs)
		}
		if bytes > maxBytes {
			t.Errorf("%s: %.1f B/record, want <= %.1f (1.25 x record + pointer)", p.name, bytes, maxBytes)
		}
	}
}
