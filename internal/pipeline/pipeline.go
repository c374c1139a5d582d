// Package pipeline provides the repository's one block engine (Pump) and
// the parallel fold built on it: records stream from a trace.Reader in
// blocks, through optional first-stage lanes (the CDN's data centers),
// to fold lanes, each folding into a private accumulator, and the
// accumulators merge at the end. Every aggregation in the repository is
// per site, so records are routed by publisher: one lane folds all of a
// site's records, and the merge hands whole sites over instead of
// re-inserting their state.
package pipeline

import (
	"runtime"

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

// Options configures a Run.
type Options struct {
	// Workers is the number of fold workers; values < 1 default to
	// GOMAXPROCS. All records of one publisher go to one worker, so fold
	// parallelism is min(Workers, publishers).
	Workers int
	// Metrics receives live pipeline telemetry (see Stage.Metrics). nil
	// — the default — disables instrumentation; the hot path then pays
	// only nil checks.
	Metrics *obs.Registry
}

// Fold returns a fold stage for Pump, one lane per worker, each folding
// into an accumulator of its own that newAcc creates, and the function
// that merges the accumulators once the run is through. A run that
// fails leaves them to be discarded.
func Fold[T Accumulator[T]](newAcc func() T, opts Options) (*Stage, func() T) {
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, 1<<16) // a block names a record's lane in 16 bits
	accs := make([]T, workers)
	fold := &Stage{Lanes: make([]func(*trace.Record) error, workers), Metrics: opts.Metrics}
	for k := range accs {
		acc := newAcc()
		accs[k] = acc
		fold.Lanes[k] = func(r *trace.Record) error { acc.Add(r); return nil }
	}
	return fold, func() T {
		for _, acc := range accs[1:] {
			accs[0].Merge(acc)
		}
		return accs[0]
	}
}

// Run streams records from r through the engine's fold stage alone and
// returns the merged accumulator. On a read error the records read
// before it are folded and the error is returned.
func Run[T Accumulator[T]](r trace.Reader, newAcc func() T, opts Options) (T, error) {
	fold, merge := Fold(newAcc, opts)
	var blocks []*Block[struct{}]
	if err := Pump(r, &blocks, nil, nil, fold); err != nil {
		var zero T
		return zero, err
	}
	return merge(), nil
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
