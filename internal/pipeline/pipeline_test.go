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

// A read error ends the run with the error, and the records read before
// it, a block cut short by the error among them, are still folded, each
// once: the run stops reading, it does not drop what it read.
func foldsRecordsBeforeReadError(t *testing.T, n int) {
	t.Helper()
	var folded int64
	_, err := Run(&failingReader{n: n}, func() atomicCount { return atomicCount{n: &folded} },
		Options{Workers: 2})
	if err == nil {
		t.Fatal("want error")
	}
	if got := atomic.LoadInt64(&folded); got != int64(n) {
		t.Errorf("%d records read before the error, %d folded", n, got)
	}
}

// A reader failing inside the first block: the block it cut short goes
// through the fold, so its 10 records are folded once.
func TestRunSkipsPartialBatchOnError(t *testing.T) {
	foldsRecordsBeforeReadError(t, 10)
}

// A reader failing after two whole blocks: both and the 2 records of the
// block the error cut short are folded, each once.
func TestRunErrorDropsPartialAndQueuedBatches(t *testing.T) {
	foldsRecordsBeforeReadError(t, 2*BlockSize+2)
}

// Run with a Metrics registry reports records and blocks folded. Each
// lane folds each block that holds records of its publishers, so the
// blocks folded are, summed over blocks, the lanes a block's publishers
// are routed to; the per-worker record counts sum to the total, and no
// block is in flight once the run returns.
func TestRunReportsMetrics(t *testing.T) {
	const (
		workers = 3
		records = 7*BlockSize + 1000
	)
	reg := obs.NewRegistry()
	recs := makeRecords(records)
	for i, r := range recs[:BlockSize] {
		r.Publisher = []string{"V-1", "P-1", "V-2"}[i%3] // V-2 lives in the first block alone
	}
	got, err := Run(trace.NewSliceReader(recs), newRouteLog, Options{Workers: workers, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	owner := map[string]int{}
	for w, pubCounts := range got.workers() {
		for p := range pubCounts {
			owner[p] = w
		}
	}
	var blocks int64
	for at := 0; at < records; at += BlockSize {
		lanes := map[int]bool{}
		for _, r := range recs[at:min(at+BlockSize, records)] {
			lanes[owner[r.Publisher]] = true
		}
		blocks += int64(len(lanes))
	}
	if v := reg.Counter("pipeline_records_total").Value(); v != records {
		t.Errorf("pipeline_records_total = %d, want %d", v, records)
	}
	var routed int64
	for w := 0; w < workers; w++ {
		routed += workerRecords(reg, w)
	}
	if routed != records {
		t.Errorf("pipeline_worker_records_total sums to %d, want %d", routed, records)
	}
	if v := reg.Counter("pipeline_batches_total").Value(); v != blocks {
		t.Errorf("pipeline_batches_total = %d, want %d", v, blocks)
	}
	if v := reg.Snapshot().Histograms["pipeline_fold_seconds"].Count; v != blocks {
		t.Errorf("pipeline_fold_seconds count = %d, want %d", v, blocks)
	}
	if v := reg.Gauge("pipeline_workers").Value(); v != workers {
		t.Errorf("pipeline_workers = %v, want %d", v, workers)
	}
	if v := reg.Gauge("pipeline_queue_depth").Value(); v != 0 {
		t.Errorf("pipeline_queue_depth = %v after the run, want 0", v)
	}
}

// A fold that holds its first record until the reader waits for a free
// block sees every block in flight: pipeline_queue_depth reads
// MaxBlocks, and pipeline_backpressure_stalls_total counts the wait.
func TestRunCountsBlocksInFlight(t *testing.T) {
	reg := obs.NewRegistry()
	stalls := reg.Counter("pipeline_backpressure_stalls_total")
	var depth float64
	held := false
	hold := func() holdFirst {
		return holdFirst{func() {
			if held {
				return
			}
			held = true
			for stalls.Value() == 0 {
				time.Sleep(time.Millisecond)
			}
			depth = reg.Gauge("pipeline_queue_depth").Value()
		}}
	}
	if _, err := Run(trace.NewSliceReader(makeRecords((MaxBlocks+2)*BlockSize)), hold,
		Options{Workers: 1, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	if depth != MaxBlocks {
		t.Errorf("pipeline_queue_depth = %v while the reader waited, want %d", depth, MaxBlocks)
	}
	if v := reg.Gauge("pipeline_queue_depth").Value(); v != 0 {
		t.Errorf("pipeline_queue_depth = %v after the run, want 0", v)
	}
}

// holdFirst calls first on every record it folds.
type holdFirst struct{ first func() }

func (h holdFirst) Add(*trace.Record) { h.first() }
func (h holdFirst) Merge(holdFirst)   {}

// countReader yields n records of two publishers, in turn.
type countReader struct{ n int }

func (c *countReader) Read(rec *trace.Record) error {
	if c.n == 0 {
		return io.EOF
	}
	c.n--
	*rec = trace.Record{Publisher: []string{"V-1", "P-1"}[c.n%2], ObjectID: uint64(c.n)}
	return nil
}

// Run allocates per run, not per record: its blocks, lanes, channels
// and goroutines, about 42 objects over 50K records and over 200K. While
// it copied records into pooled 1,024-record batches, each batch put
// back cost a slice header: 235 objects over 200K records against 90
// over 50K.
func TestRunAllocsIndependentOfLength(t *testing.T) {
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			got, err := Run(&countReader{n: n}, func() *Count { return &Count{} }, Options{Workers: 2})
			if err != nil || got.N != int64(n) {
				t.Fatalf("%d records: folded %d, %v", n, got.N, err)
			}
		})
	}
	short, long := allocs(50_000), allocs(200_000)
	if long > short+4 {
		t.Errorf("Run allocates %v objects over 200K records, %v over 50K: want the same within 4", long, short)
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
	const records = 20*BlockSize + 333
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
	recs := makeRecords(5*BlockSize + 7)
	for _, r := range recs {
		r.Publisher = "V-1"
	}
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
// many blocks and workers.
type atomicCount struct{ n *int64 }

func (a atomicCount) Add(*trace.Record) { atomic.AddInt64(a.n, 1) }
func (a atomicCount) Merge(atomicCount) {}

func TestRunExactlyOnceDelivery(t *testing.T) {
	const records = 20*BlockSize + 999
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
