package cdn

import (
	"trafficscope/internal/pipeline"
	"trafficscope/internal/trace"
)

// FanoutCell is one of the independent CDNs a ReplayFanout serves from
// the same two reads of a trace.
type FanoutCell struct {
	// Build constructs the cell's CDN. It runs once, right before the
	// first pass the CDN serves.
	Build func() *CDN
	// Observe, when set, receives every finalized record of the measured
	// pass in input order. The record is the cell's scratch: do not
	// retain the pointer past the call.
	Observe func(*trace.Record) error
	// Survey, when set, takes the CDN's place on the warm-up read: it
	// sees every input record (read-only), and Build runs only after
	// it, so the CDN meets the measured pass cold except for whatever
	// Build placed in its caches from what Survey learned.
	Survey func(*trace.Record) error
}

// ReplayFanout runs ReplaySource's warm-up + measured protocol for every
// cell over one read of each pass: src is opened twice whatever the
// number of cells. Each cell is a stage-1 lane of the pipeline's block
// engine, which ReplayStream runs on too: a goroutine of its own (the
// runtime runs up to GOMAXPROCS of them at a time) that serves every
// record of a block, in input order, into a scratch record of its own,
// so the blocks are shared read-only and a cell's results equal a
// sequential replay of that cell alone.
// Records that come without dense keys are numbered once, on the
// reading goroutine, through one table for both passes, so no cell
// numbers them again. The first error of a cell's Observe or Survey ends
// the pass for every cell and is returned. The CDNs come back in cell
// order for their stats.
func ReplayFanout(src trace.Source, cells []FanoutCell) ([]*CDN, error) {
	cdns := make([]*CDN, len(cells))
	lanes := make([]func(*replayBlock) error, len(cells))
	var blocks []*replayBlock // the warm-up's, reused by the measured pass
	var keys trace.KeyTable
	number := func(b *replayBlock) {
		for i := range b.Recs[:b.N] {
			keys.Stamp(&b.Recs[i])
		}
	}
	for i, cell := range cells {
		if cell.Survey != nil {
			lanes[i] = eachRecord(cell.Survey)
			continue
		}
		cdns[i] = cell.Build()
		lanes[i] = cdns[i].lane(nil)
	}
	replay := func(r trace.Reader) error { return pipeline.Pump(r, &blocks, number, lanes, nil) }
	if err := pass(src, "warm-up", replay); err != nil {
		return nil, err
	}
	for i, cell := range cells {
		if cell.Survey != nil {
			cdns[i] = cell.Build()
		} else {
			cdns[i].ResetStats()
			cdns[i].ResetClientState()
		}
		lanes[i] = cdns[i].lane(cell.Observe)
	}
	if err := pass(src, "measured", replay); err != nil {
		return nil, err
	}
	return cdns, nil
}

// lane returns the fan-out lane that serves each record of a block
// through c into a scratch record of its own and hands that to observe.
func (c *CDN) lane(observe func(*trace.Record) error) func(*replayBlock) error {
	var out trace.Record
	return eachRecord(func(r *trace.Record) error {
		c.ServeInto(r, &out)
		if observe == nil {
			return nil
		}
		return observe(&out)
	})
}

// eachRecord returns the lane that calls f on each record of a block in
// order, stopping at f's first error.
func eachRecord(f func(*trace.Record) error) func(*replayBlock) error {
	return func(b *replayBlock) error {
		for i := range b.Recs[:b.N] {
			if err := f(&b.Recs[i]); err != nil {
				return err
			}
		}
		return nil
	}
}
