package pipeline

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"trafficscope/internal/obs"
	"trafficscope/internal/trace"
)

// A run holds MaxBlocks blocks of BlockSize records whatever the trace
// length, and pays its channel operations per block, not per record.
const (
	BlockSize = 1024
	MaxBlocks = 12
)

// Block is one run of consecutive input records. The reading goroutine
// owns a block while it fills, tags and routes it; then every stage-1
// lane has it, then every fold lane, and then it returns to the reader
// for reuse. Side is the caller's: what its tag step writes beside the
// records for its stage-1 lanes to read.
type Block[S any] struct {
	Recs [BlockSize]trace.Record
	N    int
	Side S

	fold    [BlockSize]uint16 // Recs[i] is folded by fold lane fold[i]
	stage1  sync.WaitGroup    // stage-1 lanes that have not finished the block
	holders atomic.Int32      // goroutines that have not released the block
}

// Stage is the engine's second stage. Lane k folds the records of the
// publishers routed to it, in input order: a publisher seen for the
// first time goes to the lane with the fewest records routed so far, and
// the reader routes in input order, so the routing is deterministic for
// a given input and every record of one publisher goes to one lane. With
// one lane, that lane sees every record in input order. A stage has at
// most 1<<16 lanes.
type Stage struct {
	Lanes []func(*trace.Record) error
	// Metrics receives the fold's telemetry: records and blocks folded,
	// records per lane, fold time per lane per block, blocks in flight,
	// and reader waits for a free block. nil disables it.
	Metrics *obs.Registry
}

// Pump is the one block engine. The calling goroutine reads r a block
// at a time, runs tag on it when tag is set, routes its records to fold
// lanes, and hands it to every lane: a goroutine each, taking the blocks
// in input order. A stage-1 lane gets the whole block and may rewrite
// its records in place; a fold lane waits for stage 1 to be through with
// the block, then folds its own records of it. Once every lane is
// through, the block goes back to be refilled. The blocks are *blocks,
// grown by one a read up to MaxBlocks, so a caller that keeps the slice
// reuses them. fold may be nil.
//
// A lane that fails is not called again and no block is read after it;
// the blocks already read still go through the other lanes. A block cut
// short by the end of r or a read error still goes through both stages.
// The first error wins in this order: the read's, the lowest failing
// stage-1 lane's, the lowest failing fold lane's.
func Pump[S any](r trace.Reader, blocks *[]*Block[S], tag func(*Block[S]),
	lanes []func(*Block[S]) error, fold *Stage) error {
	e := &engine[S]{lanes: lanes}
	if fold != nil {
		e.countFolds(fold.Lanes, fold.Metrics)
	}
	// Every channel holds MaxBlocks entries and at most that many blocks
	// exist, so only waiting for a free block ever blocks a send.
	e.free = make(chan *Block[S], MaxBlocks)
	for _, b := range *blocks {
		e.free <- b
	}
	e.ins = make([]chan *Block[S], len(lanes)+len(e.folds))
	// errs[0] is the read's error and errs[1+i] lane i's, so the first
	// that is set is the one that wins.
	e.errs = make([]error, 1+len(e.ins))
	for i := range e.ins {
		e.ins[i] = make(chan *Block[S], MaxBlocks)
		e.wg.Add(1)
		go e.work(i)
	}
	if len(e.folds) > 1 {
		e.routed = make([]int64, len(e.folds))
	}

	for done := false; !done && !e.stop.Load(); {
		if len(*blocks) < MaxBlocks { // a new block for each read until there are enough
			*blocks = append(*blocks, new(Block[S]))
			e.free <- (*blocks)[len(*blocks)-1]
		}
		if len(e.free) == 0 {
			e.stalls.Inc() // every block is in flight: wait for one
		}
		b := <-e.free
		e.inFlight.Set(float64(len(*blocks) - len(e.free)))
		n, err := trace.ReadBlock(r, b.Recs[:])
		if done = err != nil; done && err != io.EOF {
			e.errs[0] = fmt.Errorf("pipeline: read: %w", err)
		}
		b.N = n
		if tag != nil {
			tag(b)
		}
		if e.routed == nil {
			clear(b.fold[:n]) // one fold lane, or none
		} else {
			for i := range b.Recs[:n] {
				b.fold[i] = e.route(b.Recs[i].Publisher)
			}
		}
		// Every holder is counted before any lane gets the block, so none
		// can see it finished early; the reader is one of them until it
		// has handed the block out.
		b.stage1.Add(len(lanes))
		b.holders.Store(int32(len(e.ins)) + 1)
		for _, in := range e.ins {
			in <- b
		}
		e.release(b)
	}

	for _, in := range e.ins {
		close(in)
	}
	e.wg.Wait()
	e.inFlight.Set(0)
	return cmp.Or(e.errs...)
}

// engine is the state a Pump shares with its lanes.
type engine[S any] struct {
	lanes []func(*Block[S]) error
	folds []func(*trace.Record) error
	ins   []chan *Block[S] // the stage-1 lanes', then the fold lanes'
	errs  []error
	free  chan *Block[S]
	stop  atomic.Bool
	wg    sync.WaitGroup

	// routes lists the publishers seen so far with their fold lanes; a
	// trace has a handful, so comparing names beats hashing them. routed
	// counts each lane's records, nil with fewer than two lanes.
	routes []route
	routed []int64

	// The fold's telemetry; nil handles count nothing.
	records                   []*obs.Counter // per fold lane
	recordsTotal, blocksTotal *obs.Counter
	stalls                    *obs.Counter
	inFlight                  *obs.Gauge
	foldSeconds               *obs.Histogram
}

type route struct {
	publisher string
	lane      uint16
}

// countFolds sets up the fold stage and its telemetry into m.
func (e *engine[S]) countFolds(folds []func(*trace.Record) error, m *obs.Registry) {
	e.folds = folds
	if m == nil {
		return
	}
	m.Gauge("pipeline_workers").Set(float64(len(folds)))
	e.records = make([]*obs.Counter, len(folds))
	for k := range e.records {
		e.records[k] = m.Counter(obs.Name("pipeline_worker_records_total", "worker", strconv.Itoa(k)))
	}
	e.recordsTotal = m.Counter("pipeline_records_total")
	e.blocksTotal = m.Counter("pipeline_batches_total")
	e.stalls = m.Counter("pipeline_backpressure_stalls_total")
	e.inFlight = m.Gauge("pipeline_queue_depth")
	e.foldSeconds = m.Histogram("pipeline_fold_seconds", obs.ExpBuckets(1e-5, 4, 10))
}

// route returns the fold lane of a publisher's records, routing a new
// publisher to the lane with the fewest records so far.
func (e *engine[S]) route(publisher string) uint16 {
	for _, rt := range e.routes {
		if rt.publisher == publisher {
			e.routed[rt.lane]++
			return rt.lane
		}
	}
	least := slices.Index(e.routed, slices.Min(e.routed))
	e.routes = append(e.routes, route{publisher, uint16(least)})
	e.routed[least]++
	return uint16(least)
}

// work runs lane i over the blocks, in input order: a stage-1 lane's
// function on each whole block, or fold lane k's records of each block
// once stage 1 is through with it. A lane that fails takes no more
// blocks to work on but still releases each.
func (e *engine[S]) work(i int) {
	defer e.wg.Done()
	err, k := &e.errs[1+i], i-len(e.lanes) // fold lane k, when k >= 0
	for b := range e.ins[i] {
		if *err == nil {
			if k < 0 {
				*err = e.lanes[i](b)
			} else {
				b.stage1.Wait()
				*err = e.fold(k, b)
			}
			if *err != nil {
				e.stop.Store(true)
			}
		}
		if k < 0 {
			b.stage1.Done()
		}
		e.release(b)
	}
}

// fold calls fold lane k on each of b's records routed to it, in order,
// stopping at the first error.
func (e *engine[S]) fold(k int, b *Block[S]) error {
	var t0 time.Time
	if e.foldSeconds != nil {
		t0 = time.Now()
	}
	var n int64
	for i, l := range b.fold[:b.N] {
		if int(l) != k {
			continue
		}
		if err := e.folds[k](&b.Recs[i]); err != nil {
			return err
		}
		n++
	}
	if n > 0 && e.records != nil {
		e.records[k].Add(n)
		e.recordsTotal.Add(n)
		e.blocksTotal.Inc()
		e.foldSeconds.Observe(time.Since(t0).Seconds())
	}
	return nil
}

// release drops one holder of b and frees b when it was the last.
func (e *engine[S]) release(b *Block[S]) {
	if b.holders.Add(-1) == 0 {
		e.free <- b
	}
}
