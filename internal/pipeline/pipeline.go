// Package pipeline provides a small parallel log-processing framework:
// records stream from a trace.Reader through a pool of workers, each
// folding into a private accumulator, and the accumulators merge at the
// end. Analyses over week-long traces are embarrassingly parallel per
// record, so this covers every aggregation in the repository.
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
	// receiver.
	Merge(T)
}

// batchSize is the number of records handed to a worker at once.
const batchSize = 1024

// Options configures a Run.
type Options struct {
	// Workers is the parallelism degree; values < 1 default to
	// GOMAXPROCS.
	Workers int
	// Metrics receives live pipeline telemetry (batches/records
	// dispatched, per-batch fold time, queue depth, backpressure
	// stalls). nil — the default — disables instrumentation; the hot
	// path then pays only nil checks.
	Metrics *obs.Registry
}

// Run streams records from r through parallel workers. newAcc creates one
// accumulator per worker; the final merged accumulator is returned.
//
// Batch slices are recycled through a sync.Pool: workers hand their
// batch back after folding it, so steady-state runs allocate a bounded
// set of batch backing arrays instead of one per batchSize records.
//
// On a mid-stream read error the run aborts promptly: queued batches
// are abandoned (their accumulators would be discarded anyway), workers
// finish only the batch they are currently folding, and the error is
// returned.
func Run[T Accumulator[T]](r trace.Reader, newAcc func() T, opts Options) (T, error) {
	s := NewSink(newAcc, opts)
	for {
		// Blocks are read straight into the batch a worker will fold.
		n, err := trace.ReadBlock(r, s.batch[:batchSize])
		if err != nil && !errors.Is(err, io.EOF) {
			// Skip the final flush after a read error: the run's result
			// is discarded, so folding the partial batch would be wasted
			// work — and the workers abandon whatever is still queued.
			s.Abort()
			var zero T
			return zero, fmt.Errorf("pipeline: read: %w", err)
		}
		s.batch = s.batch[:n]
		if err != nil {
			return s.Close()
		}
		s.dispatch(s.batch)
		s.batch = (*s.pool.Get().(*[]trace.Record))[:0]
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
