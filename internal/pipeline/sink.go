package pipeline

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"trafficscope/internal/obs"
	"trafficscope/internal/trace"
)

// Sink is the push-style entry point to the parallel fold: callers feed
// records one at a time (no trace.Reader required) and Close returns the
// merged accumulator. Run feeds it from a Reader; producers that already
// stream — the CDN's fused replay, live ingest — feed it directly instead
// of adapting themselves into a Reader via an extra goroutine and
// channel.
//
// Every record of one publisher goes to the same worker, so each site's
// state is built by one accumulator and the final merge hands whole
// sites over instead of re-inserting them. The first time a publisher
// appears it is routed to the worker with the fewest records routed so
// far; since Feed runs on one goroutine, the routing is deterministic for
// a given input. Fold parallelism is therefore min(workers, publishers).
//
// Feed and Close must be called from a single goroutine. The worker
// pool, batch recycling and metrics behave exactly as documented on Run.
//
// Feed copies the record into the current batch (batches hold records by
// value), so producers may reuse one scratch record for the whole stream
// — the fill-in Reader/replay contract — while workers fold concurrently.
type Sink[T Accumulator[T]] struct {
	lanes []lane[T]
	// routes lists the publishers seen so far with their lanes. A trace
	// has a handful of publishers, so comparing names beats hashing them.
	routes []route
	pool   sync.Pool
	wg     sync.WaitGroup
	done   bool

	// aborted tells workers to recycle queued batches unprocessed; set
	// by Abort when the producer fails and the result will be discarded.
	aborted atomic.Bool

	batchesTotal *obs.Counter
	recordsTotal *obs.Counter
	stallsTotal  *obs.Counter
	queueDepth   *obs.Gauge
	foldSeconds  *obs.Histogram
}

// lane is one worker: its accumulator, its queue of full batches and the
// batch being filled for it.
type lane[T Accumulator[T]] struct {
	acc   T
	queue chan []trace.Record
	// batch is nil until a publisher is routed to the lane.
	batch []trace.Record
	// sent counts the records dispatched to the lane.
	sent    int64
	records *obs.Counter
}

type route struct {
	publisher string
	lane      int
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
		lanes:        make([]lane[T], workers),
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

	for w := range s.lanes {
		l := &s.lanes[w]
		// A lane queues one batch per worker, so a burst of one
		// publisher's records runs that far ahead of its worker before
		// Feed blocks.
		l.queue = make(chan []trace.Record, workers)
		l.acc = newAcc()
		l.records = m.Counter(obs.Name("pipeline_worker_records_total", "worker", strconv.Itoa(w)))
		s.wg.Add(1)
		go s.work(l.queue, l.acc)
	}
	return s
}

// work folds the batches of one lane into acc.
func (s *Sink[T]) work(queue <-chan []trace.Record, acc T) {
	defer s.wg.Done()
	for batch := range queue {
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
}

func (s *Sink[T]) newBatch() []trace.Record {
	return (*s.pool.Get().(*[]trace.Record))[:0]
}

func (s *Sink[T]) recycle(batch []trace.Record) {
	batch = batch[:0]
	s.pool.Put(&batch)
}

// laneOf returns the lane the publisher's records go to, routing a new
// publisher to the lane with the fewest records so far.
func (s *Sink[T]) laneOf(publisher string) *lane[T] {
	for i := range s.routes {
		if s.routes[i].publisher == publisher {
			return &s.lanes[s.routes[i].lane]
		}
	}
	least := 0
	for i := range s.lanes {
		if s.lanes[i].routed() < s.lanes[least].routed() {
			least = i
		}
	}
	s.routes = append(s.routes, route{publisher, least})
	l := &s.lanes[least]
	if l.batch == nil {
		l.batch = s.newBatch()
	}
	return l
}

// routed is the number of records routed to the lane so far.
func (l *lane[T]) routed() int64 { return l.sent + int64(len(l.batch)) }

// dispatch queues the lane's current batch for its worker.
func (s *Sink[T]) dispatch(l *lane[T]) {
	select {
	case l.queue <- l.batch:
	default:
		// Lane full: its worker is busy and its queue at capacity.
		// Count the stall, then block.
		s.stallsTotal.Inc()
		l.queue <- l.batch
	}
	n := int64(len(l.batch))
	l.sent += n
	l.records.Add(n)
	s.batchesTotal.Inc()
	s.recordsTotal.Add(n)
	if s.queueDepth != nil {
		depth := 0
		for i := range s.lanes {
			depth += len(s.lanes[i].queue)
		}
		s.queueDepth.Set(float64(depth))
	}
}

// Feed folds one record into the pool, copying it into the current
// batch of its publisher's lane — the caller keeps owning *rec and may
// reuse it immediately after Feed returns (a replay block is refilled
// once its sink calls return). The copy belongs to the batch: one worker
// folds it, then the batch is recycled for refilling. The error is
// always nil; the signature matches the sink funcs used across the
// replay paths so Feed can be passed as a replay sink directly.
func (s *Sink[T]) Feed(rec *trace.Record) error {
	l := s.laneOf(rec.Publisher)
	l.batch = append(l.batch, *rec)
	if len(l.batch) == batchSize {
		s.dispatch(l)
		l.batch = s.newBatch()
	}
	return nil
}

// Close flushes the partial batches, drains the workers and returns the
// merged accumulator. Close is idempotent-hostile: call it exactly once,
// and not after Abort.
func (s *Sink[T]) Close() (T, error) {
	for i := range s.lanes {
		if l := &s.lanes[i]; len(l.batch) > 0 {
			s.dispatch(l)
			l.batch = nil
		}
	}
	s.stop()
	out := s.lanes[0].acc
	for _, l := range s.lanes[1:] {
		out.Merge(l.acc)
	}
	return out, nil
}

// Abort discards the fold after a producer failure: the partial batches
// are dropped, already-queued batches are recycled unprocessed, and the
// workers drain promptly. The accumulators are left unusable.
func (s *Sink[T]) Abort() {
	s.aborted.Store(true)
	for i := range s.lanes {
		s.lanes[i].batch = nil
	}
	s.stop()
}

func (s *Sink[T]) stop() {
	if s.done {
		return
	}
	s.done = true
	for i := range s.lanes {
		close(s.lanes[i].queue)
	}
	s.wg.Wait()
	s.queueDepth.Set(0)
}
