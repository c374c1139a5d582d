package synth

import (
	"io"
	"runtime"
	"testing"
	"unsafe"

	"trafficscope/internal/trace"
)

// TestGenerationAllocsPerRecord guards the record flow of both generation
// paths. GenerateTo carves records in order out of fresh chunks of
// freshRecords, hours sharing them, so a run allocates one chunk per
// freshRecords records plus a few objects per site (its shard scratch) —
// not one per (site, hour) shard — and little more than the records
// themselves; the byte bound is what catches an over-sized chunk.
// ParallelReader recycles its chunks, key slices and
// blocks within a site pipeline, so a pass allocates what is live at the
// week's busiest moment and no more: under half a record per record.
// The readers of one ParallelSource share those pools, so its second
// Open — the measured pass of a study — reuses what the first left and
// allocates only the pipelines' goroutines and channels.
func TestGenerationAllocsPerRecord(t *testing.T) {
	g := newTestGenerator(t, 3, 0.03)
	drain := func(r trace.Reader, sink func(*trace.Record) error) error {
		defer trace.CloseReader(r)
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
	}
	src := g.ParallelSource(ParallelOptions{Workers: 2})
	// Each path runs twice, the second run measured: for ParallelSource
	// that is the second Open of one source.
	paths := []struct {
		name string
		run  func(sink func(*trace.Record) error) error
	}{
		{"GenerateTo", g.GenerateTo},
		{"ParallelReader", func(sink func(*trace.Record) error) error {
			return drain(g.ParallelReader(ParallelOptions{Workers: 2}), sink)
		}},
		{"ParallelSource, second Open", func(sink func(*trace.Record) error) error {
			r, err := src.Open()
			if err != nil {
				return err
			}
			return drain(r, sink)
		}},
	}
	maxBytes := map[string]float64{
		"GenerateTo":                  1.1 * float64(unsafe.Sizeof(trace.Record{})),
		"ParallelReader":              0.5 * float64(unsafe.Sizeof(trace.Record{})),
		"ParallelSource, second Open": 0.05 * float64(unsafe.Sizeof(trace.Record{})),
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
		maxAllocs := 0.05
		if p.name == "GenerateTo" {
			maxAllocs = (float64(records)/freshRecords + 1 + 8*float64(len(g.plans))) / float64(records)
		}
		if allocs > maxAllocs {
			t.Errorf("%s: %.4f allocs/record, want <= %.4f", p.name, allocs, maxAllocs)
		}
		if bytes > maxBytes[p.name] {
			t.Errorf("%s: %.1f B/record, want <= %.1f", p.name, bytes, maxBytes[p.name])
		}
	}
}

// GenerateTo's sink may keep every record it is handed: records are
// carved in order from fresh chunks and never written again. One pass's
// pointers, all kept, must still hold what a second pass hands out, field
// by field. The kept pointers' addresses show the carving: record k is
// record k%freshRecords of chunk k/freshRecords, so at this scale, as the
// hours' sizes show, several hours share a chunk and some hour spans two.
func TestGenerateToRecordsOutliveTheirHour(t *testing.T) {
	g := newTestGenerator(t, 4, 0.01)
	var kept []*trace.Record
	if err := g.GenerateTo(func(r *trace.Record) error { kept = append(kept, r); return nil }); err != nil {
		t.Fatal(err)
	}
	var again []trace.Record
	if err := g.GenerateTo(func(r *trace.Record) error { again = append(again, *r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(kept) != len(again) {
		t.Fatalf("passes emitted %d and %d records", len(kept), len(again))
	}
	for k := range again {
		if *kept[k] != again[k] {
			t.Fatalf("record %d changed after its hour: kept %+v, second pass %+v", k, *kept[k], again[k])
		}
	}

	size := unsafe.Sizeof(trace.Record{})
	for k := 1; k < len(kept); k++ {
		if k%freshRecords != 0 && uintptr(unsafe.Pointer(kept[k])) != uintptr(unsafe.Pointer(kept[k-1]))+size {
			t.Fatalf("record %d does not follow record %d in their fresh chunk", k, k-1)
		}
	}
	hours := make(map[int]int) // fresh chunk -> hours with records in it
	var start, spanning int
	for _, n := range hourSizes(g) {
		if n == 0 {
			continue
		}
		first, last := start/freshRecords, (start+n-1)/freshRecords
		hours[first]++
		if last != first {
			hours[last]++
			spanning++
		}
		start += n
	}
	if start != len(kept) {
		t.Fatalf("hours hold %d records, the pass %d", start, len(kept))
	}
	if spanning == 0 || hours[0] < 2 {
		t.Fatalf("%d hours span two chunks and %d share the first: the scale does not exercise the carving", spanning, hours[0])
	}
}

// hourSizes lists the records of g's (site, hour) shards in GenerateTo's
// order, each generated alone into pooled storage.
func hourSizes(g *Generator) []int {
	var sizes []int
	for i, plan := range g.plans {
		if plan == nil {
			continue
		}
		sc := newShardScratch(plan)
		for _, h := range plan.hours {
			hour := slab{pool: &chunkPool{}}
			g.generateHour(i, h, sc, &hour)
			n := 0
			for _, c := range hour.chunks {
				n += len(c)
			}
			sizes = append(sizes, n)
		}
	}
	return sizes
}
