package core

import (
	"os"
	"path/filepath"
	"testing"

	"trafficscope/internal/trace"
)

// BenchmarkRunStreaming measures the fused generate→replay→analyze path
// end to end: reopenable generator source, warm-up + measured CDN
// passes, analysis pipeline. The benchmarks of this file are un-gated
// developer tools (go test -run NONE -bench . -benchmem ./internal/core);
// the gated numbers are the study-stream and study-disk workloads of
// benchmark/.
func BenchmarkRunStreaming(b *testing.B) {
	study, err := NewStudy(Config{Seed: 42, Scale: 0.002})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := study.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyzeOnly measures the single-pass analysis pipeline over a
// pre-replayed in-memory trace, isolating analyzer fold cost from
// generation and replay.
func BenchmarkAnalyzeOnly(b *testing.B) {
	study, err := NewStudy(Config{Seed: 42, Scale: 0.002})
	if err != nil {
		b.Fatal(err)
	}
	recs, err := study.Generator().Generate()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := study.AnalyzeOnly(trace.NewSliceReader(recs)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineFull measures the complete full-scale data plane in
// miniature: generate to a v2 block trace file, external-sort it (with
// MaxInMemory forced low enough to spill and k-way merge runs), then
// replay+analyze the sorted file. SetBytes carries the record count, so
// the "MB/s" column reads as millions of records per second end to end;
// the disk-B/rec metric is the v2 codec's on-disk footprint. The
// study-disk workload of benchmark/ runs the same stages at scale 0.1.
func BenchmarkPipelineFull(b *testing.B) {
	study, err := NewStudy(Config{Seed: 42, Scale: 0.002})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	raw := filepath.Join(dir, "raw.tsb")
	sorted := filepath.Join(dir, "sorted.tsb")

	runOnce := func() (records int64, diskBytes int64) {
		w, err := trace.CreateFile(raw, trace.FormatBlock)
		if err != nil {
			b.Fatal(err)
		}
		if err := study.Generator().GenerateTo(w.Write); err != nil {
			b.Fatal(err)
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		fi, err := os.Stat(raw)
		if err != nil {
			b.Fatal(err)
		}
		r, err := trace.OpenFile(raw, trace.FormatBlock)
		if err != nil {
			b.Fatal(err)
		}
		sw, err := trace.CreateFile(sorted, trace.FormatBlock)
		if err != nil {
			b.Fatal(err)
		}
		if err := trace.ExternalSort(r, sw, trace.ExternalSortOptions{MaxInMemory: 4096, TempDir: dir}); err != nil {
			b.Fatal(err)
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			b.Fatal(err)
		}
		res, err := study.RunSource(trace.FileSource{Path: sorted})
		if err != nil {
			b.Fatal(err)
		}
		return res.Records, fi.Size()
	}

	records, diskBytes := runOnce() // warm-up sizes SetBytes before timing
	b.SetBytes(records)
	b.ReportMetric(float64(diskBytes)/float64(records), "disk-B/rec")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOnce()
	}
}
