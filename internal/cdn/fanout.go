package cdn

import (
	"fmt"
	"io"
	"sync"

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
// number of cells, and one block of replayBlockSize records is held at a
// time. Each CDN is served sequentially, in input order, on a goroutine
// of its own (the runtime runs up to GOMAXPROCS of them at a time), so a
// cell's results equal a sequential replay of that cell alone,
// region-stable users or not. The first error of a cell's Observe or
// Survey ends the pass for every cell and is returned. The CDNs come
// back in cell order for their stats.
func ReplayFanout(src trace.Source, cells []FanoutCell) ([]*CDN, error) {
	cdns := make([]*CDN, len(cells))
	lanes := make([]func(*trace.Record) error, len(cells))
	for i, cell := range cells {
		if cell.Survey != nil {
			lanes[i] = cell.Survey
			continue
		}
		cdns[i] = cell.Build()
		lanes[i] = cdns[i].lane(nil)
	}
	if err := fanoutPass(src, "warm-up", lanes); err != nil {
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
	if err := fanoutPass(src, "measured", lanes); err != nil {
		return nil, err
	}
	return cdns, nil
}

// lane returns the fan-out consumer that serves each shared input record
// through c into a scratch record of its own and hands that to observe.
func (c *CDN) lane(observe func(*trace.Record) error) func(*trace.Record) error {
	var out trace.Record
	return func(r *trace.Record) error {
		c.serveInto(r, &out, c.clients)
		if observe == nil {
			return nil
		}
		return observe(&out)
	}
}

// fanoutPass opens src and hands every record, in order, to every lane,
// a block of replayBlockSize records at a time: each lane walks the
// block on a goroutine of its own, none writes to it, and the next block
// is read when all are through. A lane that fails stops; the pass ends
// with the block, read errors winning over lane errors and the lowest
// lane's over the others.
func fanoutPass(src trace.Source, pass string, lanes []func(*trace.Record) error) error {
	r, err := src.Open()
	if err != nil {
		return fmt.Errorf("cdn: open %s pass: %w", pass, err)
	}
	defer trace.CloseReader(r)

	block := make([]trace.Record, replayBlockSize)
	errs := make([]error, len(lanes))
	for {
		n, readErr := trace.ReadBlock(r, block)
		var wg sync.WaitGroup
		for i, lane := range lanes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < n && errs[i] == nil; j++ {
					errs[i] = lane(&block[j])
				}
			}()
		}
		wg.Wait()
		if readErr != nil && readErr != io.EOF {
			return fmt.Errorf("cdn: replay read: %w", readErr)
		}
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		if readErr == io.EOF {
			return nil
		}
	}
}
