package cdn

import (
	"fmt"

	"trafficscope/internal/pipeline"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// replayBlock is a block of the pipeline's engine with what
// ReplayStream's tag step writes beside each record for its lanes.
type replayBlock = pipeline.Block[replaySide]

type replaySide struct {
	dc      [pipeline.BlockSize]uint8     // Recs[i] is served by lane dc[i]
	verdict [pipeline.BlockSize]uint16    // admit's verdict on Recs[i]
	at      [pipeline.BlockSize]placement // where Recs[i]'s chunks are
	more    []uint32                      // the slots at[i].more lists
}

// ReplayStream replays records through the CDN with one lane per data
// center, streaming: records flow reader → per-DC lanes → sink in
// blocks with no full-trace buffering, so a week-long on-disk trace
// replays in bounded memory. The reading goroutine runs the client half
// of serving (admit: request sequence, rejection dice, browser cache) on
// every record in input order, against the CDN's one client state, which
// each call empties first; each DC's lane then runs the cache half
// (finish) on its own records of a block, in input order. The sink, a
// fold stage of one lane, sees the finalized records in place, in the
// reader's order, and must not retain a pointer past the call. Every
// record and every counter therefore equals what a sequential Replay of
// the same trace from empty client state produces, whatever region each
// user's requests come from. Calls on one CDN must not overlap: they
// share its client state and blocks.
func (c *CDN) ReplayStream(r trace.Reader, sink func(*trace.Record) error) error {
	return c.replay(r, &pipeline.Stage{Lanes: []func(*trace.Record) error{sink}})
}

// replay is ReplayStream with fold, which may be nil, as the engine's
// second stage: its lanes fold finalized records in place, each lane
// its own publishers' in input order.
func (c *CDN) replay(r trace.Reader, fold *pipeline.Stage) error {
	c.clients.reset()
	lanes := make([]func(*replayBlock) error, 0, timeutil.NumRegions)
	for _, dc := range c.dcByRegion[1:] {
		lane := uint8(dc.Region)
		lanes = append(lanes, func(b *replayBlock) error {
			for i, d := range b.Side.dc[:b.N] {
				if d == lane {
					c.finish(&b.Recs[i], int(b.Side.verdict[i]), b.Side.at[i])
				}
			}
			return nil
		})
	}
	return pipeline.Pump(r, &c.blocks, c.admitBlock, lanes, fold)
}

// admitBlock is ReplayStream's tag step: it runs admit on each record,
// numbering it in place when it comes without dense keys, and stores
// beside it the record's data center, admit's verdict and the record's
// placement. The lanes only read what it wrote, so the key table and the
// slot space stay the reader's.
func (c *CDN) admitBlock(b *replayBlock) {
	s := &b.Side
	s.more = s.more[:0]
	for i := range b.Recs[:b.N] {
		r := &b.Recs[i]
		verdict := c.admit(r)
		s.dc[i] = uint8(c.dcForRegion(r.Region).Region)
		s.verdict[i] = uint16(verdict)
		s.at[i] = c.place(r, verdict, &s.more)
	}
}

// ReplaySource runs the steady-state measurement protocol on c over a
// reopenable trace source, streaming both passes through the engine:
// a warm-up pass fills the edge caches and is discarded, then the
// counters reset, and the measured pass, starting again from empty
// client state, hands finalized records to fold, the engine's second
// stage. src is opened twice. fold's lanes must not retain the record
// pointer past the call; their errors come back unwrapped.
func ReplaySource(c *CDN, src trace.Source, fold *pipeline.Stage) error {
	if err := pass(src, "warm-up", func(r trace.Reader) error { return c.replay(r, nil) }); err != nil {
		return err
	}
	c.ResetStats()
	return pass(src, "measured", func(r trace.Reader) error { return c.replay(r, fold) })
}

// pass opens src and runs one pass over it.
func pass(src trace.Source, name string, run func(trace.Reader) error) error {
	r, err := src.Open()
	if err != nil {
		return fmt.Errorf("cdn: open %s pass: %w", name, err)
	}
	defer trace.CloseReader(r)
	return run(r)
}
