package pipeline

import (
	"errors"
	"io"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"trafficscope/internal/obs"
	"trafficscope/internal/synth"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

func makeRecords(n int) []*trace.Record {
	rng := rand.New(rand.NewSource(1))
	recs := make([]*trace.Record, n)
	base := time.Date(2015, 10, 3, 0, 0, 0, 0, time.UTC)
	for i := range recs {
		recs[i] = &trace.Record{
			Timestamp:   base.Add(time.Duration(i) * time.Second),
			Publisher:   []string{"V-1", "P-1"}[rng.Intn(2)],
			ObjectID:    rng.Uint64() % 100,
			FileType:    trace.FileJPG,
			ObjectSize:  1000,
			BytesServed: 1000,
			UserID:      rng.Uint64() % 50,
			UserAgent:   "UA",
			Region:      timeutil.RegionEurope,
			StatusCode:  200,
		}
	}
	return recs
}

func TestRunCount(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 16} {
		recs := makeRecords(5000)
		got, err := Run(trace.NewSliceReader(recs), func() *Count { return &Count{} },
			Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.N != 5000 {
			t.Errorf("workers=%d: N = %d, want 5000", workers, got.N)
		}
	}
}

// perPublisher counts per-publisher records; exercises nontrivial merge.
type perPublisher struct {
	counts map[string]int64
}

func newPerPublisher() *perPublisher { return &perPublisher{counts: map[string]int64{}} }

func (p *perPublisher) Add(r *trace.Record) { p.counts[r.Publisher]++ }

func (p *perPublisher) Merge(o *perPublisher) {
	for k, v := range o.counts {
		p.counts[k] += v
	}
}

func TestRunMergeMatchesSequential(t *testing.T) {
	recs := makeRecords(3000)
	seq := newPerPublisher()
	for _, r := range recs {
		seq.Add(r)
	}
	par, err := Run(trace.NewSliceReader(recs), newPerPublisher, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.counts) != len(seq.counts) {
		t.Fatalf("publisher sets differ: %v vs %v", par.counts, seq.counts)
	}
	for k, v := range seq.counts {
		if par.counts[k] != v {
			t.Errorf("%s: parallel %d != sequential %d", k, par.counts[k], v)
		}
	}
}

// failingReader yields n copies of one record, then fails.
type failingReader struct{ n int }

var failingRecord = makeRecords(1)[0]

func (f *failingReader) Read(rec *trace.Record) error {
	if f.n <= 0 {
		return errors.New("disk on fire")
	}
	f.n--
	*rec = *failingRecord
	return nil
}

func TestRunPropagatesReadError(t *testing.T) {
	_, err := Run(&failingReader{n: 10}, func() *Count { return &Count{} }, Options{})
	if err == nil {
		t.Fatal("want error")
	}
}

type emptyReader struct{}

func (emptyReader) Read(*trace.Record) error { return io.EOF }

func TestRunEmptyInput(t *testing.T) {
	got, err := Run(emptyReader{}, func() *Count { return &Count{} }, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 0 {
		t.Errorf("N = %d", got.N)
	}
}

// A reader failing mid-stream must not dispatch the partial batch: the
// run's result is discarded, so folding records read before the failure
// would be wasted work.
func TestRunSkipsPartialBatchOnError(t *testing.T) {
	var n int64
	_, err := Run(&failingReader{n: 10}, func() atomicCount { return atomicCount{n: &n} },
		Options{Workers: 2})
	if err == nil {
		t.Fatal("want error")
	}
	if got := atomic.LoadInt64(&n); got != 0 {
		t.Errorf("%d records folded after a read error, want 0", got)
	}
}

// After a mid-stream read error the run is abandoned: the partial batch
// is never dispatched, and queued batches are skipped. Whatever a worker
// was already folding may complete, so anywhere from none to both full
// batches of the pre-error records fold — but never the 2 records of the
// partial batch.
func TestRunErrorDropsPartialAndQueuedBatches(t *testing.T) {
	var n int64
	_, err := Run(&failingReader{n: 2*batchSize + 2}, func() atomicCount { return atomicCount{n: &n} },
		Options{Workers: 2})
	if err == nil {
		t.Fatal("want error")
	}
	if got := atomic.LoadInt64(&n); got > 2*batchSize {
		t.Errorf("folded %d records, want at most the %d from the two full batches", got, 2*batchSize)
	}
}

// slowCount sleeps per record, modelling an expensive accumulator.
type slowCount struct {
	n     *int64
	delay time.Duration
}

func (s slowCount) Add(*trace.Record) { time.Sleep(s.delay); atomic.AddInt64(s.n, 1) }
func (s slowCount) Merge(slowCount)   {}

// A failed run must terminate promptly: batches still queued when the
// read error hits are abandoned, not folded into accumulators that will
// be discarded. With 4 slow workers and a queue that holds 4 more
// batches, the error (hit microseconds after dispatch, while the first
// folds are tens of milliseconds from done) must cut the folded total to
// the in-flight batches only.
func TestRunAbandonsQueuedBatchesOnError(t *testing.T) {
	const (
		workers = 4
		// 8 full batches fill the workers and the queue; the next read
		// returns the error before a 9th batch forms.
		preError = 2 * workers * batchSize
	)
	var n int64
	_, err := Run(&failingReader{n: preError},
		func() slowCount { return slowCount{n: &n, delay: 100 * time.Microsecond} },
		Options{Workers: workers})
	if err == nil {
		t.Fatal("want error")
	}
	got := atomic.LoadInt64(&n)
	if got > int64(workers*batchSize+batchSize) {
		t.Errorf("folded %d records after the read error; queued batches were not abandoned (in-flight bound: %d)",
			got, workers*batchSize)
	}
}

// Run with a Metrics registry reports dispatched batches and records:
// seven full batches and a partial one.
func TestRunReportsMetrics(t *testing.T) {
	const records = 7*batchSize + 1000
	reg := obs.NewRegistry()
	recs := makeRecords(records)
	got, err := Run(trace.NewSliceReader(recs), func() *Count { return &Count{} },
		Options{Workers: 3, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got.N != records {
		t.Fatalf("N = %d", got.N)
	}
	if v := reg.Counter("pipeline_records_total").Value(); v != records {
		t.Errorf("pipeline_records_total = %d, want %d", v, records)
	}
	if v := reg.Counter("pipeline_batches_total").Value(); v != 8 {
		t.Errorf("pipeline_batches_total = %d, want 8", v)
	}
	if v := reg.Snapshot().Histograms["pipeline_fold_seconds"].Count; v != 8 {
		t.Errorf("pipeline_fold_seconds count = %d, want 8", v)
	}
}

// Run folds a parallel-generated trace in one pass, straight from the
// ParallelReader; the count must match a materialized Generate of the
// same seed.
func TestRunOverParallelReaderMatchesGenerate(t *testing.T) {
	g, err := synth.NewGenerator(synth.Config{Seed: 21, Scale: 0.002, Salt: "pipe"})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	r := g.ParallelReader(synth.ParallelOptions{Workers: 4})
	defer r.Close()
	got, err := Run(r, func() *Count { return &Count{} }, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got.N != int64(len(recs)) {
		t.Errorf("one-pass count = %d, want %d", got.N, len(recs))
	}
}

// atomicCount verifies every record is delivered exactly once across
// many batches and workers.
type atomicCount struct{ n *int64 }

func (a atomicCount) Add(*trace.Record) { atomic.AddInt64(a.n, 1) }
func (a atomicCount) Merge(atomicCount) {}

func TestRunExactlyOnceDelivery(t *testing.T) {
	const records = 20*batchSize + 999
	var n int64
	recs := makeRecords(records)
	_, err := Run(trace.NewSliceReader(recs), func() atomicCount { return atomicCount{n: &n} },
		Options{Workers: 7})
	if err != nil {
		t.Fatal(err)
	}
	if n != records {
		t.Errorf("delivered %d records, want %d", n, records)
	}
}
