package pipeline

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"trafficscope/internal/obs"
	"trafficscope/internal/trace"
)

// Sink is the push-style entry point to the parallel fold: callers feed
// records one at a time (no trace.Reader required) and Close returns the
// merged accumulator. It is what Run uses internally, exposed so
// producers that already stream — the CDN's fused replay, live ingest —
// can feed the worker pool directly instead of adapting themselves into
// a Reader via an extra goroutine and channel.
//
// Feed and Close must be called from a single goroutine. The worker
// pool, batch recycling and metrics behave exactly as documented on Run.
//
// Feed copies the record into the current batch (batches hold records by
// value), so producers may reuse one scratch record for the whole stream
// — the fill-in Reader/replay contract — while workers fold concurrently.
type Sink[T Accumulator[T]] struct {
	batches chan []trace.Record
	pool    sync.Pool
	accs    []T
	wg      sync.WaitGroup
	batch   []trace.Record
	done    bool

	// aborted tells workers to recycle queued batches unprocessed; set
	// by Abort when the producer fails and the result will be discarded.
	aborted atomic.Bool

	batchesTotal *obs.Counter
	recordsTotal *obs.Counter
	stallsTotal  *obs.Counter
	queueDepth   *obs.Gauge
	foldSeconds  *obs.Histogram
}

// NewSink builds the worker pool and returns a feedable sink. newAcc
// creates one accumulator per worker.
func NewSink[T Accumulator[T]](newAcc func() T, opts Options) *Sink[T] {
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	m := opts.Metrics
	s := &Sink[T]{
		batches:      make(chan []trace.Record, workers),
		accs:         make([]T, workers),
		batchesTotal: m.Counter("pipeline_batches_total"),
		recordsTotal: m.Counter("pipeline_records_total"),
		stallsTotal:  m.Counter("pipeline_backpressure_stalls_total"),
		queueDepth:   m.Gauge("pipeline_queue_depth"),
	}
	s.pool.New = func() any {
		b := make([]trace.Record, 0, batchSize)
		return &b
	}
	m.Gauge("pipeline_workers").Set(float64(workers))
	if m != nil {
		s.foldSeconds = m.Histogram("pipeline_fold_seconds", obs.ExpBuckets(1e-5, 4, 10))
	}

	for w := 0; w < workers; w++ {
		s.accs[w] = newAcc()
		s.wg.Add(1)
		go func(acc T) {
			defer s.wg.Done()
			for batch := range s.batches {
				if s.aborted.Load() {
					s.recycle(batch)
					continue
				}
				var t0 time.Time
				if s.foldSeconds != nil {
					t0 = time.Now()
				}
				for i := range batch {
					acc.Add(&batch[i])
				}
				if s.foldSeconds != nil {
					s.foldSeconds.Observe(time.Since(t0).Seconds())
				}
				s.recycle(batch)
			}
		}(s.accs[w])
	}
	s.batch = (*s.pool.Get().(*[]trace.Record))[:0]
	return s
}

func (s *Sink[T]) recycle(batch []trace.Record) {
	batch = batch[:0]
	s.pool.Put(&batch)
}

func (s *Sink[T]) dispatch(batch []trace.Record) {
	select {
	case s.batches <- batch:
	default:
		// Channel full: every worker is busy and the queue is at
		// capacity. Count the stall, then block.
		s.stallsTotal.Inc()
		s.batches <- batch
	}
	s.batchesTotal.Inc()
	s.recordsTotal.Add(int64(len(batch)))
	s.queueDepth.Set(float64(len(s.batches)))
}

// Feed folds one record into the pool, copying it into the current
// batch — the caller keeps owning *rec and may reuse it immediately after
// Feed returns (a replay block is refilled once its sink calls return).
// The copy belongs to the batch: one worker folds it, then the batch is
// recycled for refilling. The error is always nil; the signature matches
// the sink funcs used across the replay paths so Feed can be passed as a
// replay sink directly.
func (s *Sink[T]) Feed(rec *trace.Record) error {
	s.batch = append(s.batch, *rec)
	if len(s.batch) == batchSize {
		s.dispatch(s.batch)
		s.batch = (*s.pool.Get().(*[]trace.Record))[:0]
	}
	return nil
}

// Close flushes the partial batch, drains the workers and returns the
// merged accumulator. Close is idempotent-hostile: call it exactly once,
// and not after Abort.
func (s *Sink[T]) Close() (T, error) {
	if len(s.batch) > 0 {
		s.dispatch(s.batch)
		s.batch = nil
	}
	s.stop()
	out := s.accs[0]
	for _, a := range s.accs[1:] {
		out.Merge(a)
	}
	return out, nil
}

// Abort discards the fold after a producer failure: the partial batch is
// dropped, already-queued batches are recycled unprocessed, and the
// workers drain promptly. The accumulators are left unusable.
func (s *Sink[T]) Abort() {
	s.aborted.Store(true)
	s.batch = nil
	s.stop()
}

func (s *Sink[T]) stop() {
	if s.done {
		return
	}
	s.done = true
	close(s.batches)
	s.wg.Wait()
}
