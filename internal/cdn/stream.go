package cdn

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// ErrRegionUnstable reports a trace in which some user appears in more
// than one region; per-region parallel replay owns client state per
// region worker, so such traces must fall back to sequential replay.
var ErrRegionUnstable = errors.New("cdn: parallel replay requires region-stable users")

// streamBuf bounds the per-region channel depth; with R regions in
// flight the replay holds at most R×2×streamBuf records plus the order
// queue — O(workers × batch) memory, independent of trace length.
const streamBuf = 1024

// streamWorker is one region's serve lane: records enter in in input
// order, finalized records leave out in the same order.
type streamWorker struct {
	in  chan *trace.Record
	out chan *trace.Record
}

// ReplayStream replays records through the CDN with one worker per data
// center, streaming: records flow reader → per-region workers → sink
// with no full-trace buffering, so a week-long on-disk trace replays in
// bounded memory. Per-DC request order is preserved (each region's
// records are served sequentially by its worker), and the sink receives
// finalized records in exactly the reader's order, so a time-ordered
// input yields a time-ordered output stream.
//
// Parallelism is safe because every piece of per-request state (the edge
// cache, browser-cache freshness, request sequencing) is owned by a
// single region's worker: clients belong to exactly one region in valid
// traces. The stream
// verifies that region stability and fails with ErrRegionUnstable on
// traces that violate it. Aggregate counters (TotalStats, per-DC stats)
// match a sequential Replay of the same trace exactly.
//
// In-flight records are pooled: each record the reader fills is served
// in place by its region worker, handed to the sink, and recycled. The
// sink must therefore not retain the record pointer past the call.
func (c *CDN) ReplayStream(r trace.Reader, sink func(*trace.Record) error) error {
	workers := map[timeutil.Region]*streamWorker{}
	// order carries, per input record, the worker that serves it; the
	// collector pairs each entry with that worker's next output, which
	// reconstructs global input order from the per-region streams.
	order := make(chan *streamWorker, 4*streamBuf)

	// pool recycles in-flight records: dispatcher Get → worker serves in
	// place → collector sinks → Put. Steady state holds O(workers ×
	// streamBuf) records regardless of trace length, with no per-record
	// allocation once the pool is primed.
	pool := sync.Pool{New: func() any { return new(trace.Record) }}

	var wg sync.WaitGroup
	startWorker := func() *streamWorker {
		w := &streamWorker{
			in:  make(chan *trace.Record, streamBuf),
			out: make(chan *trace.Record, streamBuf),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			state := newClientState()
			for rec := range w.in {
				// Every queued record must produce exactly one output —
				// the collector pairs order entries with outputs — so
				// serving continues even after an abort; the tail is at
				// most the buffered in-flight window.
				c.serveInto(rec, rec, state)
				w.out <- rec
			}
		}()
		return w
	}

	// The collector delivers finalized records to the sink in input
	// order. On a sink error it keeps draining (skipping the sink) so
	// workers and the dispatcher unwind promptly.
	var sinkErr error
	var stop atomic.Bool
	collectorDone := make(chan struct{})
	go func() {
		defer close(collectorDone)
		for w := range order {
			rec := <-w.out
			if sinkErr == nil {
				if err := sink(rec); err != nil {
					sinkErr = err
					stop.Store(true)
				}
			}
			pool.Put(rec)
		}
	}()

	// Dispatch loop: route each record to its region's worker, checking
	// user-region stability on the fly.
	var readErr error
	userRegion := make(map[uint64]timeutil.Region, 1024)
	for !stop.Load() {
		rec := pool.Get().(*trace.Record)
		err := r.Read(rec)
		if err == io.EOF {
			pool.Put(rec)
			break
		}
		if err != nil {
			pool.Put(rec)
			readErr = fmt.Errorf("cdn: replay read: %w", err)
			break
		}
		if prev, ok := userRegion[rec.UserID]; ok && prev != rec.Region {
			readErr = fmt.Errorf("%w: user %x appears in regions %v and %v",
				ErrRegionUnstable, rec.UserID, prev, rec.Region)
			pool.Put(rec)
			break
		}
		userRegion[rec.UserID] = rec.Region
		w := workers[rec.Region]
		if w == nil {
			w = startWorker()
			workers[rec.Region] = w
		}
		// The in-send must precede the order entry: the collector
		// assumes every order entry has a matching output coming.
		w.in <- rec
		order <- w
	}

	for _, w := range workers {
		close(w.in)
	}
	close(order)
	<-collectorDone
	wg.Wait()
	if readErr != nil {
		return readErr
	}
	return sinkErr
}

// ReplaySource runs the steady-state measurement protocol over a
// reopenable trace source, streaming both passes: a warm-up pass fills
// the edge caches and is discarded, then counters and client state
// reset, and the measured pass streams finalized records to sink in
// input order. build constructs the CDN; it is called once, or twice
// when the trace turns out to be region-unstable — the partially warmed
// first CDN is thrown away and a fresh one replays both passes
// sequentially. The CDN that served the measured pass is returned for
// its stats. Both replay paths reuse record storage, so the sink must
// not retain the record pointer past the call.
func ReplaySource(build func() *CDN, src trace.Source, sink func(*trace.Record) error) (*CDN, error) {
	discard := func(*trace.Record) error { return nil }
	c, replay := build(), (*CDN).ReplayStream
	err := replayPass(c, replay, src, "warm-up", discard)
	if errors.Is(err, ErrRegionUnstable) {
		// Region-unstable users: redo the warm-up sequentially on a fresh
		// CDN (the aborted parallel one left partial state) and measure
		// sequentially too.
		c, replay = build(), (*CDN).Replay
		err = replayPass(c, replay, src, "warm-up", discard)
	}
	if err != nil {
		return nil, err
	}
	c.ResetStats()
	c.ResetClientState()
	if err := replayPass(c, replay, src, "measured", sink); err != nil {
		return nil, err
	}
	return c, nil
}

// replayPass opens src and streams it once through c with the given
// replay entrypoint (ReplayStream or Replay). Sink errors come back
// unwrapped.
func replayPass(c *CDN, replay func(*CDN, trace.Reader, func(*trace.Record) error) error,
	src trace.Source, pass string, sink func(*trace.Record) error) error {
	r, err := src.Open()
	if err != nil {
		return fmt.Errorf("cdn: open %s pass: %w", pass, err)
	}
	defer trace.CloseReader(r)
	return replay(c, r, sink)
}
