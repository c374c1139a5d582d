package cdn

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// Replay blocks: the block pump moves records in blocks of
// replayBlockSize, at most replayBlocks of them in flight, so a replay
// holds O(replayBlocks × replayBlockSize) records whatever the trace
// length and pays its channel operations per block, not per record.
const (
	replayBlockSize = 1024
	replayBlocks    = 8
)

// replayBlock is one run of consecutive input records. The reading
// goroutine owns a block while it fills and tags it; then every lane
// has it (ReplayStream's lanes each finalize their own records in place,
// the fan-out's lanes only read), then the sink, and then it returns to
// the reader for reuse.
type replayBlock struct {
	recs    [replayBlockSize]trace.Record
	dc      [replayBlockSize]uint8     // ReplayStream: recs[i] is served by lane dc[i]
	verdict [replayBlockSize]uint16    // ReplayStream: admit's verdict on recs[i]
	at      [replayBlockSize]placement // ReplayStream: where recs[i]'s chunks are
	more    []uint32                   // ReplayStream: the slots at[i].more lists
	n       int
	serving sync.WaitGroup // lanes that have not finished this block
}

// pump is the one block engine: ReplayStream and ReplayFanout are two
// sets of lanes on it. The calling goroutine reads r a block of
// replayBlockSize records at a time, runs tag on the block when tag is
// set, and hands it to every lane; each lane is a goroutine of its own
// that takes the blocks in input order. Once every lane is through with
// a block, sink, when set, sees its records in input order, and the
// block goes back to be refilled. At most replayBlocks blocks are in
// flight; they come from *blocks, grown to that many, so a caller that
// keeps the slice reuses them.
//
// A lane or a sink that fails is not called again and no block is read
// after it; the blocks already read still go through the other lanes. A
// block cut short by the end of r or a read error still goes through:
// the records before the cut reach every lane and the sink. The first
// error wins in this order: the read's, the lowest failing lane's, the
// sink's.
func pump(r trace.Reader, blocks *[]*replayBlock, tag func(*replayBlock),
	lanes []func(*replayBlock) error, sink func(*trace.Record) error) error {
	// Every channel holds replayBlocks entries and at most that many
	// blocks exist, so only waiting for a free block ever blocks a send.
	order := make(chan *replayBlock, replayBlocks)
	free := make(chan *replayBlock, replayBlocks)
	ins := make([]chan *replayBlock, len(lanes))
	laneErrs := make([]error, len(lanes))
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i, lane := range lanes {
		ins[i] = make(chan *replayBlock, replayBlocks)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range ins[i] {
				if laneErrs[i] == nil {
					if laneErrs[i] = lane(b); laneErrs[i] != nil {
						stop.Store(true)
					}
				}
				b.serving.Done()
			}
		}()
	}

	// The collector hands each block, once its lanes are through, to the
	// sink and then back to the reader. After a sink error it keeps
	// draining, skipping the sink, so the lanes and the reader unwind
	// promptly.
	var sinkErr error
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for b := range order {
			b.serving.Wait()
			for i := 0; sink != nil && i < b.n && sinkErr == nil; i++ {
				if sinkErr = sink(&b.recs[i]); sinkErr != nil {
					stop.Store(true)
				}
			}
			free <- b
		}
	}()

	var readErr error
	for allocated, done := 0, false; !done && !stop.Load(); {
		var b *replayBlock
		if allocated < replayBlocks {
			if allocated == len(*blocks) {
				*blocks = append(*blocks, new(replayBlock))
			}
			b = (*blocks)[allocated]
			allocated++
		} else {
			b = <-free
		}
		n, err := trace.ReadBlock(r, b.recs[:])
		if err != nil {
			if err != io.EOF {
				readErr = fmt.Errorf("cdn: replay read: %w", err)
			}
			done = true
		}
		b.n = n
		if tag != nil {
			tag(b)
		}
		// Every lane is counted before any gets the block, so the
		// collector cannot see it finished early.
		b.serving.Add(len(lanes))
		for _, in := range ins {
			in <- b
		}
		order <- b
	}

	for _, in := range ins {
		close(in)
	}
	close(order)
	<-collected
	wg.Wait()
	if readErr != nil {
		return readErr
	}
	for _, err := range laneErrs {
		if err != nil {
			return err
		}
	}
	return sinkErr
}

// ReplayStream replays records through the CDN with one lane per data
// center, streaming: records flow reader → per-DC lanes → sink in
// blocks with no full-trace buffering, so a week-long on-disk trace
// replays in bounded memory. The reading goroutine runs the client half
// of serving (admit: request sequence, rejection dice, browser cache) on
// every record in input order, against the CDN's one client state, which
// each call empties first; each DC's lane then runs the cache half
// (finish) on its own records of a block, in input order. The sink
// receives finalized records in exactly the reader's order. Every record
// and every counter therefore equals what a sequential Replay of the
// same trace from empty client state produces, whatever region each
// user's requests come from.
//
// Record ownership: the reader fills a record inside a block, its lane
// serves it in place, the sink sees it, and the block is refilled. The
// sink must therefore not retain the record pointer past the call.
// Calls on one CDN must not overlap: they share its client state and
// blocks.
func (c *CDN) ReplayStream(r trace.Reader, sink func(*trace.Record) error) error {
	c.clients.reset()
	lanes := make([]func(*replayBlock) error, 0, timeutil.NumRegions)
	for _, dc := range c.dcByRegion[1:] {
		lane := uint8(dc.Region)
		lanes = append(lanes, func(b *replayBlock) error {
			for i, d := range b.dc[:b.n] {
				if d == lane {
					c.finish(&b.recs[i], int(b.verdict[i]), b.at[i])
				}
			}
			return nil
		})
	}
	return pump(r, &c.blocks, c.admitBlock, lanes, sink)
}

// admitBlock is ReplayStream's tag step: it runs admit on each record,
// numbering it in place when it comes without dense keys, and stores
// beside it the record's data center, admit's verdict and the record's
// placement. The lanes only read what it wrote, so the key table and the
// slot space stay the reader's.
func (c *CDN) admitBlock(b *replayBlock) {
	b.more = b.more[:0]
	for i := range b.recs[:b.n] {
		r := &b.recs[i]
		verdict := c.admit(r)
		b.dc[i] = uint8(c.dcForRegion(r.Region).Region)
		b.verdict[i] = uint16(verdict)
		b.at[i] = c.place(r, verdict, &b.more)
	}
}

// ReplaySource runs the steady-state measurement protocol on c over a
// reopenable trace source, streaming both passes through ReplayStream:
// a warm-up pass fills the edge caches and is discarded, then the
// counters reset, and the measured pass, starting again from empty
// client state, streams finalized records to sink in input order. src
// is opened twice. The sink must not retain the record pointer past the
// call.
func ReplaySource(c *CDN, src trace.Source, sink func(*trace.Record) error) error {
	if err := c.replayPass(src, "warm-up", func(*trace.Record) error { return nil }); err != nil {
		return err
	}
	c.ResetStats()
	return c.replayPass(src, "measured", sink)
}

// replayPass opens src and streams it once through c's ReplayStream.
// Sink errors come back unwrapped.
func (c *CDN) replayPass(src trace.Source, pass string, sink func(*trace.Record) error) error {
	r, err := src.Open()
	if err != nil {
		return fmt.Errorf("cdn: open %s pass: %w", pass, err)
	}
	defer trace.CloseReader(r)
	return c.ReplayStream(r, sink)
}
