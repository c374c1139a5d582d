// Package pipeline provides a small parallel log-processing framework:
// records stream from a trace.Reader, or from a producer feeding a Sink,
// through a pool of workers, each folding into a private accumulator,
// and the accumulators merge at the end. Every aggregation in the
// repository is per site, so records are routed by publisher: one worker
// folds all of a site's records, and the merge hands whole sites over
// instead of re-inserting their state.
package pipeline

import (
	"errors"
	"fmt"
	"io"

	"trafficscope/internal/obs"
	"trafficscope/internal/trace"
)

// Accumulator folds records and merges with peers of the same type.
type Accumulator[T any] interface {
	// Add folds one record.
	Add(*trace.Record)
	// Merge folds another accumulator of the same concrete type into the
	// receiver and consumes it: state may move over instead of being
	// copied, so the argument must not be used afterwards.
	Merge(T)
}

// batchSize is the number of records handed to a worker at once.
const batchSize = 1024

// Options configures a Run.
type Options struct {
	// Workers is the number of fold workers; values < 1 default to
	// GOMAXPROCS. All records of one publisher go to one worker, so fold
	// parallelism is min(Workers, publishers).
	Workers int
	// Metrics receives live pipeline telemetry (batches/records
	// dispatched, records per worker, per-batch fold time, queue depth,
	// backpressure stalls). nil — the default — disables instrumentation; the hot
	// path then pays only nil checks.
	Metrics *obs.Registry
}

// Run streams records from r through parallel workers: it reads blocks
// and feeds their records to a Sink, which routes each publisher's
// records to one worker. newAcc creates one accumulator per worker; the
// final merged accumulator is returned.
//
// Batch slices are recycled through a sync.Pool: workers hand their
// batch back after folding it, so steady-state runs allocate a bounded
// set of batch backing arrays instead of one per batchSize records.
//
// On a mid-stream read error the run aborts promptly: the records of the
// failed read are not fed, queued batches are abandoned (their
// accumulators would be discarded anyway), workers finish only the batch
// they are currently folding, and the error is returned.
func Run[T Accumulator[T]](r trace.Reader, newAcc func() T, opts Options) (T, error) {
	s := NewSink(newAcc, opts)
	block := make([]trace.Record, batchSize)
	for {
		n, err := trace.ReadBlock(r, block)
		if err != nil && !errors.Is(err, io.EOF) {
			s.Abort()
			var zero T
			return zero, fmt.Errorf("pipeline: read: %w", err)
		}
		for i := range block[:n] {
			s.Feed(&block[i])
		}
		if err != nil {
			return s.Close()
		}
	}
}

// Count is a trivial accumulator counting records; useful for smoke tests
// and trace sizing.
type Count struct {
	N int64
}

var _ Accumulator[*Count] = (*Count)(nil)

// Add implements Accumulator.
func (c *Count) Add(*trace.Record) { c.N++ }

// Merge implements Accumulator.
func (c *Count) Merge(o *Count) { c.N += o.N }
