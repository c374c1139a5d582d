package synth

import (
	"io"
	"runtime"
	"testing"
	"unsafe"

	"trafficscope/internal/trace"
)

// TestGenerationAllocsPerRecord guards the record flow of both generation
// paths. GenerateTo carves records out of one fresh slab per (site, hour)
// shard, so a run allocates per shard — well under 0.05 times per record
// at a scale where shards hold a few dozen records — and little more
// than the records themselves; the byte bound is what catches an
// over-sized slab. ParallelReader recycles its chunks, key slices and
// blocks within a site pipeline, so a pass allocates what is live at the
// week's busiest moment and no more: under half a record per record.
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
	maxBytes := map[string]float64{
		"GenerateTo":     1.25*float64(unsafe.Sizeof(trace.Record{})) + float64(unsafe.Sizeof(uintptr(0))),
		"ParallelReader": 0.5 * float64(unsafe.Sizeof(trace.Record{})),
	}
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
		if bytes > maxBytes[p.name] {
			t.Errorf("%s: %.1f B/record, want <= %.1f", p.name, bytes, maxBytes[p.name])
		}
	}
}
