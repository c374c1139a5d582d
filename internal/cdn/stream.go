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

// Replay blocks: ReplayStream moves records in blocks of replayBlockSize,
// at most replayBlocks of them in flight, so the replay holds
// O(replayBlocks × replayBlockSize) records whatever the trace length and
// pays its channel operations per block, not per record.
const (
	replayBlockSize = 1024
	replayBlocks    = 8
)

// replayBlock is one run of consecutive input records, each tagged with
// the data center that serves it. The dispatcher owns a block while
// filling it, the lanes named in it own their (disjoint) records while
// serving, the collector owns it while sinking, and then it returns to
// the dispatcher for reuse.
type replayBlock struct {
	recs    [replayBlockSize]trace.Record
	dc      [replayBlockSize]uint8 // recs[i] is served by lane dc[i]
	n       int
	serving sync.WaitGroup // lanes that have not finished this block
}

// replayScratch is what ReplayStream keeps on its CDN from one call to
// the next, so a repeat replay — the measured pass after the warm-up —
// allocates none of it again: each lane's client state, the user-region
// map of the stability check and the blocks. A call empties the maps
// before it uses them, so it starts from the client state of a new CDN.
type replayScratch struct {
	lanes      [timeutil.NumRegions + 1]*clientState
	userRegion map[uint64]timeutil.Region
	blocks     []*replayBlock
}

// ReplayStream replays records through the CDN with one worker per data
// center, streaming: records flow reader → per-DC lanes → sink in
// blocks with no full-trace buffering, so a week-long on-disk trace
// replays in bounded memory. Per-DC request order is preserved (each
// lane takes blocks in sequence and serves its records of a block in
// input order), and the sink receives finalized records in exactly the
// reader's order, so a time-ordered input yields a time-ordered output
// stream.
//
// Parallelism is safe because every piece of per-request state (the edge
// cache, browser-cache freshness, request sequencing) is owned by a
// single DC's lane: clients belong to exactly one region in valid
// traces. The stream verifies that region stability and fails with
// ErrRegionUnstable on traces that violate it. Aggregate counters
// (TotalStats, per-DC stats) match a sequential Replay of the same trace
// exactly.
//
// Record ownership: the reader fills a record inside a block, its lane
// serves it in place, the sink sees it, and the block is refilled. The
// sink must therefore not retain the record pointer past the call.
// Calls on one CDN must not overlap: they share its scratch.
func (c *CDN) ReplayStream(r trace.Reader, sink func(*trace.Record) error) error {
	// Every channel holds replayBlocks entries and at most that many
	// blocks exist, so only waiting for a free block ever blocks a send.
	var lanes [timeutil.NumRegions + 1]chan *replayBlock
	order := make(chan *replayBlock, replayBlocks)
	free := make(chan *replayBlock, replayBlocks)
	sc := &c.replay

	var wg sync.WaitGroup
	startLane := func(dc uint8) chan *replayBlock {
		state := sc.lanes[dc]
		if state == nil {
			state = newClientState()
			sc.lanes[dc] = state
		} else {
			state.reset()
		}
		in := make(chan *replayBlock, replayBlocks)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range in {
				for i, lane := range b.dc[:b.n] {
					if lane == dc {
						c.serveInto(&b.recs[i], &b.recs[i], state)
					}
				}
				b.serving.Done()
			}
		}()
		return in
	}

	// The collector delivers finalized blocks to the sink in input
	// order. On a sink error it keeps draining (skipping the sink) so
	// lanes and the dispatcher unwind promptly.
	var sinkErr error
	var stop atomic.Bool
	collectorDone := make(chan struct{})
	go func() {
		defer close(collectorDone)
		for b := range order {
			b.serving.Wait()
			for i := 0; i < b.n && sinkErr == nil; i++ {
				if sinkErr = sink(&b.recs[i]); sinkErr != nil {
					stop.Store(true)
				}
			}
			free <- b
		}
	}()

	// Dispatch loop: fill a block in input order, then tag each record
	// with its data center, checking user-region stability on the way,
	// and hand the block to every lane it names and to the collector. A
	// block cut short by EOF, an error or an abort is still dispatched:
	// the records before the cut are served and sunk.
	var readErr error
	if sc.userRegion == nil {
		sc.userRegion = make(map[uint64]timeutil.Region, 1024)
	}
	userRegion := sc.userRegion
	clear(userRegion)
	allocated := 0
	for done := false; !done; {
		var b *replayBlock
		if allocated < replayBlocks {
			if allocated == len(sc.blocks) {
				sc.blocks = append(sc.blocks, new(replayBlock))
			}
			b = sc.blocks[allocated]
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
		var named [len(lanes)]bool
		for b.n = 0; b.n < n; b.n++ {
			rec := &b.recs[b.n]
			if prev, seen := userRegion[rec.UserID]; !seen {
				userRegion[rec.UserID] = rec.Region
			} else if prev != rec.Region {
				readErr = fmt.Errorf("%w: user %x appears in regions %v and %v",
					ErrRegionUnstable, rec.UserID, prev, rec.Region)
				done = true
				break
			}
			dc := uint8(c.dcForRegion(rec.Region).Region)
			b.dc[b.n], named[dc] = dc, true
		}
		done = done || stop.Load()
		// Each lane is counted before it gets the block, and all of them
		// before the collector can wait on it.
		for dc, ok := range named {
			if !ok {
				continue
			}
			if lanes[dc] == nil {
				lanes[dc] = startLane(uint8(dc))
			}
			b.serving.Add(1)
			lanes[dc] <- b
		}
		order <- b
	}

	for _, in := range lanes {
		if in != nil {
			close(in)
		}
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
