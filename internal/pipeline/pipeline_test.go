package pipeline

import (
	"errors"
	"io"
	"math/rand"
	"strconv"
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

// Run with a Metrics registry reports dispatched batches and records.
// Batches are filled per worker, so each worker's records make whole
// batches and at most one partial one; the per-worker record counts sum
// to the total, and the queues read empty once the run returns.
func TestRunReportsMetrics(t *testing.T) {
	const (
		workers = 3
		records = 7*batchSize + 1000
	)
	reg := obs.NewRegistry()
	recs := makeRecords(records)
	got, err := Run(trace.NewSliceReader(recs), func() *Count { return &Count{} },
		Options{Workers: workers, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got.N != records {
		t.Fatalf("N = %d", got.N)
	}
	if v := reg.Counter("pipeline_records_total").Value(); v != records {
		t.Errorf("pipeline_records_total = %d, want %d", v, records)
	}
	var routed, batches int64
	for w := 0; w < workers; w++ {
		n := workerRecords(reg, w)
		routed += n
		batches += (n + batchSize - 1) / batchSize
	}
	if routed != records {
		t.Errorf("pipeline_worker_records_total sums to %d, want %d", routed, records)
	}
	if batches < 8 {
		t.Errorf("%d batches for %d records", batches, records)
	}
	if v := reg.Counter("pipeline_batches_total").Value(); v != batches {
		t.Errorf("pipeline_batches_total = %d, want %d", v, batches)
	}
	if v := reg.Snapshot().Histograms["pipeline_fold_seconds"].Count; v != batches {
		t.Errorf("pipeline_fold_seconds count = %d, want %d", v, batches)
	}
	if v := reg.Gauge("pipeline_queue_depth").Value(); v != 0 {
		t.Errorf("pipeline_queue_depth = %v after the run, want 0", v)
	}
}

func workerRecords(reg *obs.Registry, w int) int64 {
	return reg.Counter(obs.Name("pipeline_worker_records_total", "worker", strconv.Itoa(w))).Value()
}

// routeLog counts the records of each publisher one accumulator folded;
// a merge keeps the merged accumulators' counts apart, so the result of
// a run shows which worker folded what.
type routeLog struct {
	folded map[string]int64
	merged []map[string]int64
}

func newRouteLog() *routeLog { return &routeLog{folded: map[string]int64{}} }

func (l *routeLog) Add(r *trace.Record) { l.folded[r.Publisher]++ }

func (l *routeLog) Merge(o *routeLog) { l.merged = append(append(l.merged, o.folded), o.merged...) }

// workers returns what each worker folded, in worker order.
func (l *routeLog) workers() []map[string]int64 {
	return append([]map[string]int64{l.folded}, l.merged...)
}

// Every record of one publisher is folded by the same worker, whatever
// the worker count: a 5-publisher trace keeps min(workers, 5) workers
// busy, and what each worker folded is what its metric reports.
func TestRunRoutesEachPublisherToOneWorker(t *testing.T) {
	const records = 20*batchSize + 333
	pubs := []string{"V-1", "V-2", "V-3", "P-1", "P-2"}
	rng := rand.New(rand.NewSource(5))
	recs := makeRecords(records)
	for _, r := range recs {
		// Skewed, as the paper's sites are: V-1 draws over half the records.
		r.Publisher = pubs[rng.Intn(len(pubs))]
		if rng.Intn(2) == 0 {
			r.Publisher = pubs[0]
		}
	}
	for _, workers := range []int{1, 2, 3, 7} {
		reg := obs.NewRegistry()
		got, err := Run(trace.NewSliceReader(recs), newRouteLog, Options{Workers: workers, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		folded := got.workers()
		if len(folded) != workers {
			t.Fatalf("workers=%d: %d accumulators merged", workers, len(folded))
		}
		owner := map[string]int{}
		var total int64
		busy := 0
		for w, pubCounts := range folded {
			var n int64
			for p, c := range pubCounts {
				if prev, ok := owner[p]; ok {
					t.Errorf("workers=%d: %s folded by workers %d and %d", workers, p, prev, w)
				}
				owner[p] = w
				n += c
			}
			if n > 0 {
				busy++
			}
			if m := workerRecords(reg, w); m != n {
				t.Errorf("workers=%d: worker %d folded %d records, its metric says %d", workers, w, n, m)
			}
			total += n
		}
		if len(owner) != len(pubs) || total != records {
			t.Errorf("workers=%d: %d publishers and %d records folded, want %d and %d",
				workers, len(owner), total, len(pubs), records)
		}
		if want := min(workers, len(pubs)); busy != want {
			t.Errorf("workers=%d: %d workers busy, want %d", workers, busy, want)
		}
	}
}

// A trace of one publisher runs on one worker and completes.
func TestRunOnePublisher(t *testing.T) {
	recs := sinkTestRecords(5*batchSize + 7)
	got, err := Run(trace.NewSliceReader(recs), newRouteLog, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	folded := got.workers()
	if len(folded) != 3 || folded[0]["V-1"] != int64(len(recs)) || len(folded[1])+len(folded[2]) != 0 {
		t.Errorf("one-publisher trace folded as %v, want all %d records on worker 0", folded, len(recs))
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
