package synth

import (
	"cmp"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"trafficscope/internal/obs"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// ParallelOptions configures parallel trace generation.
type ParallelOptions struct {
	// Workers is the total number of shard-generation goroutines spread
	// over the sites (each site always gets at least one); values < 1
	// default to GOMAXPROCS.
	Workers int
	// Metrics receives live generation telemetry: shards done/total,
	// records generated (total and per site), per-site merge pending
	// depth and watermark lag, and the k-way merge heap depth. nil —
	// the default — disables instrumentation.
	Metrics *obs.Registry
}

// lookahead bounds how many hour shards per site may be generated ahead
// of the site's sequencer — the memory/parallelism trade-off.
const lookahead = 4

// ExpectedRecords estimates the number of records a full generation run
// will emit (the sum of every site's hourly Poisson intensities). The
// realized count differs by sampling noise and window clipping; the
// estimate anchors progress percentages and ETAs.
func (g *Generator) ExpectedRecords() float64 {
	var total float64
	for _, plan := range g.plans {
		if plan == nil {
			continue
		}
		for _, h := range plan.hours {
			total += plan.hourTotal[h]
		}
	}
	return total
}

// ShardCount reports the number of (site, hour) generation shards — the
// parallel path's units of work.
func (g *Generator) ShardCount() int {
	var n int
	for _, plan := range g.plans {
		if plan != nil {
			n += len(plan.hours)
		}
	}
	return n
}

// maxRegionLead is the largest amount by which a local hour-of-week
// shard can precede its nominal UTC hour start: a shard's earliest
// record is HourStart(h) minus the largest positive region UTC offset.
// Later shards can therefore never produce records before
// HourStart(h) - maxRegionLead, which is the merge watermark.
func maxRegionLead() time.Duration {
	var lead time.Duration
	for _, r := range timeutil.AllRegions() {
		if off := r.UTCOffset(); off > lead {
			lead = off
		}
	}
	return lead
}

// siteWorkers splits the worker budget over the active sites in
// proportion to their expected request volume, at least one each.
func (g *Generator) siteWorkers(total int) []int {
	weights := make([]float64, len(g.plans))
	var sum float64
	for i, plan := range g.plans {
		if plan == nil {
			continue
		}
		for _, h := range plan.hours {
			weights[i] += plan.hourTotal[h]
		}
		sum += weights[i]
	}
	out := make([]int, len(g.plans))
	for i, plan := range g.plans {
		if plan == nil {
			continue
		}
		out[i] = 1
		if sum > 0 {
			if n := int(math.Round(float64(total) * weights[i] / sum)); n > 1 {
				out[i] = n
			}
		}
	}
	return out
}

// shardKey orders one record of a shard without touching it: the
// timestamp, then the record's position in the slab. Emission order
// breaks ties, so keys are unique and an unstable sort of them is the
// stable sort by time of the records.
type shardKey struct {
	ts  int64 // UnixNano
	idx uint32
}

// shard is one generated (site, hour): its records in emission order
// (a slab of pooled chunks) and their keys in time order. A worker fills
// it, the site's sequencer releases keys[pos:] as the watermark passes
// them, and once drained the shard returns to the site's pool with its
// chunks and its key storage.
type shard struct {
	hour int // index into the site's hours
	recs slab
	keys []shardKey
	pos  int
}

func (sh *shard) sortKeys() {
	var n int
	for _, chunk := range sh.recs.chunks {
		n += len(chunk)
	}
	sh.keys, sh.pos = slices.Grow(sh.keys[:0], n), 0
	for _, chunk := range sh.recs.chunks {
		for k := range chunk {
			sh.keys = append(sh.keys, shardKey{ts: chunk[k].Timestamp.UnixNano(), idx: uint32(len(sh.keys))})
		}
	}
	slices.SortFunc(sh.keys, func(a, b shardKey) int {
		if c := cmp.Compare(a.ts, b.ts); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
}

// next is the shard's earliest unreleased record.
func (sh *shard) next() *trace.Record {
	idx := sh.keys[sh.pos].idx
	return &sh.recs.chunks[idx/chunkRecords][idx%chunkRecords]
}

// head reports the timestamp of the shard's next unreleased record and
// whether the watermark wm releases it.
func (sh *shard) head(wm int64) (ts int64, released bool) {
	if sh.pos == len(sh.keys) {
		return 0, false
	}
	ts = sh.keys[sh.pos].ts
	return ts, ts < wm
}

// runHead is the next timestamp of one sorted run in a k-way merge.
type runHead struct {
	ts  int64
	run int
}

// earliest returns the index of the smallest head. Heads stay in run
// order and merges here are at most a few dozen runs wide, so a scan
// beats a heap and a tie goes to the lower run, which keeps the merge
// stable.
func earliest(heads []runHead) int {
	m := 0
	for i := 1; i < len(heads); i++ {
		if heads[i].ts < heads[m].ts {
			m = i
		}
	}
	return m
}

// advance gives head i its run's next timestamp, or drops it once the
// run has no more.
func advance(heads []runHead, i int, ts int64, more bool) []runHead {
	if more {
		heads[i].ts = ts
		return heads
	}
	return slices.Delete(heads, i, i+1)
}

// shardMerge is a site's live shards — generated, not yet drained — in
// hour order, which is the run order of the merge.
type shardMerge struct {
	live  []*shard
	heads []runHead
}

// release hands emit every live record below the watermark wm in time
// order, ties to the earlier shard and then to emission order: the order
// of a stable sort of the shards laid end to end. No shard added later
// may hold a record below wm. It stops early, and reports false, when
// emit does.
func (m *shardMerge) release(wm int64, emit func(*trace.Record) bool) bool {
	m.heads = m.heads[:0]
	for run, sh := range m.live {
		if ts, released := sh.head(wm); released {
			m.heads = append(m.heads, runHead{ts: ts, run: run})
		}
	}
	for len(m.heads) > 0 {
		i := earliest(m.heads)
		sh := m.live[m.heads[i].run]
		if !emit(sh.next()) {
			return false
		}
		sh.pos++
		ts, released := sh.head(wm)
		m.heads = advance(m.heads, i, ts, released)
	}
	return true
}

// retire passes the drained shards to recycle and keeps the rest,
// reporting how many records they still hold and the newest timestamp
// among them.
func (m *shardMerge) retire(recycle func(*shard)) (pending int, newest int64) {
	kept := m.live[:0]
	for _, sh := range m.live {
		if sh.pos == len(sh.keys) {
			recycle(sh)
			continue
		}
		kept = append(kept, sh)
		pending += len(sh.keys) - sh.pos
		newest = max(newest, sh.keys[len(sh.keys)-1].ts)
	}
	clear(m.live[len(kept):])
	m.live = kept
	return pending, newest
}

// siteStream is the reader's end of one site pipeline: time-ordered
// blocks — chunks of the site's pool — arrive on out, which is closed
// after the site's last; a block belongs to the reader until its last
// record is copied out and then returns to the pool.
type siteStream struct {
	out  <-chan []trace.Record
	pool *chunkPool
	blk  []trace.Record
	pos  int
}

// next moves past the current record, taking the site's next block when
// this one is through, and reports the timestamp now under the cursor;
// more is false once the site is exhausted.
func (s *siteStream) next() (ts int64, more bool) {
	if s.pos++; s.pos >= len(s.blk) {
		if s.blk != nil {
			s.pool.put(s.blk)
		}
		s.blk, s.pos = <-s.out, 0
		if s.blk == nil {
			return 0, false
		}
	}
	return s.blk[s.pos].Timestamp.UnixNano(), true
}

// ParallelReader is a trace.Reader producing the generator's full trace
// in global timestamp order, generated concurrently. Read and ReadBlock
// return io.EOF after the last record; Close stops the generation
// goroutines early and returns when they have exited (both do so
// themselves at EOF).
type ParallelReader struct {
	sites     []siteStream
	heads     []runHead // one head per site with records left
	started   bool
	depth     *obs.Gauge
	done      chan struct{}
	running   sync.WaitGroup
	closeOnce sync.Once
}

var _ trace.BulkReader = (*ParallelReader)(nil) // and so a trace.Reader

// Read fills rec with the next record in global timestamp order.
func (r *ParallelReader) Read(rec *trace.Record) error {
	if !r.started {
		r.prime()
	}
	if len(r.heads) == 0 {
		r.Close()
		return io.EOF
	}
	// The one copy a record makes between the site's block and the
	// caller's storage.
	i := earliest(r.heads)
	s := &r.sites[r.heads[i].run]
	*rec = s.blk[s.pos]
	ts, more := s.next()
	if r.heads = advance(r.heads, i, ts, more); !more {
		r.depth.Set(float64(len(r.heads)))
	}
	return nil
}

// ReadBlock fills dst with the next records in global timestamp order
// (see trace.BulkReader).
func (r *ParallelReader) ReadBlock(dst []trace.Record) (int, error) {
	for n := range dst {
		if err := r.Read(&dst[n]); err != nil {
			return n, err
		}
	}
	return len(dst), nil
}

// prime waits for every site's first block.
func (r *ParallelReader) prime() {
	r.started = true
	for i := range r.sites {
		r.sites[i].pos = -1
		if ts, more := r.sites[i].next(); more {
			r.heads = append(r.heads, runHead{ts: ts, run: i})
		}
	}
	r.depth.Set(float64(len(r.heads)))
}

// Close stops the generation goroutines and waits for them. Safe to call
// multiple times.
func (r *ParallelReader) Close() error {
	r.closeOnce.Do(func() { close(r.done) })
	r.running.Wait()
	return nil
}

// ParallelSource returns the generator's trace as a reopenable source:
// every Open starts a ParallelReader. The readers of one source share
// one chunk pool per site, so a later pass reuses the record chunks and
// shards an earlier one drained instead of allocating them again;
// readers may be open at the same time. The pools live as long as the
// source and no longer.
func (g *Generator) ParallelSource(opts ParallelOptions) trace.Source {
	pools := make([]chunkPool, len(g.plans))
	return trace.SourceFunc(func() (trace.Reader, error) {
		return g.parallelReader(opts, pools), nil
	})
}

// ParallelReader starts concurrent generation and returns the sorted
// record stream: a ParallelSource opened once. One pipeline runs per
// site: a pool of workers generates (site, hour) shards — each an
// independent RNG stream, see rng.go — into recycled slabs, and a
// per-site sequencer takes them in hour order, merging the live shards
// by key and copying the prefix no later shard can undercut into blocks.
// The reader merges the site streams, ties to the lower site, copying
// each record from its block into the caller's storage, so the result is
// byte-identical to sequential Generate for the same seed and config,
// without ever buffering the whole trace.
func (g *Generator) ParallelReader(opts ParallelOptions) *ParallelReader {
	return g.parallelReader(opts, make([]chunkPool, len(g.plans)))
}

// parallelReader starts the site pipelines over pools, one per plan.
func (g *Generator) parallelReader(opts ParallelOptions, pools []chunkPool) *ParallelReader {
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	perSite := g.siteWorkers(workers)
	lead := maxRegionLead()

	m := opts.Metrics
	m.Gauge("synth_shards_total").Set(float64(g.ShardCount()))
	m.Gauge("synth_expected_records").Set(g.ExpectedRecords())

	r := &ParallelReader{done: make(chan struct{}), depth: m.Gauge("synth_merge_heap_depth")}
	for i := range g.plans {
		if g.plans[i] == nil {
			continue
		}
		// Eight blocks let the sequencer run a release ahead of the reader
		// without a goroutine switch per block.
		out, pool := make(chan []trace.Record, 8), &pools[i]
		site := g.prof[i].Name
		g.runSitePipeline(r, i, perSite[i], lead, out, pool, shardMetrics{
			shardsDone:   m.Counter("synth_shards_done_total"),
			records:      m.Counter("synth_records_total"),
			siteRecords:  m.Counter(obs.Name("synth_site_records_total", "site", site)),
			mergePending: m.Gauge(obs.Name("synth_merge_pending_records", "site", site)),
			mergeLag:     m.Gauge(obs.Name("synth_merge_watermark_lag_seconds", "site", site)),
		})
		r.sites = append(r.sites, siteStream{out: out, pool: pool})
	}
	return r
}

// shardMetrics carries one site pipeline's telemetry handles. The
// handles are nil (no-op) when observability is off; every update is a
// per-shard — not per-record — operation, so the instrumented path stays
// off the generation hot loop.
type shardMetrics struct {
	shardsDone   *obs.Counter
	records      *obs.Counter
	siteRecords  *obs.Counter
	mergePending *obs.Gauge
	mergeLag     *obs.Gauge
}

// runSitePipeline spawns site i's shard workers and sequencer as
// goroutines of r. Time-ordered blocks arrive on out, which is closed
// when the site is exhausted or r is closed; shards, their slabs and
// blocks come from pool and go back to it.
func (g *Generator) runSitePipeline(r *ParallelReader, i, workers int, lead time.Duration, out chan<- []trace.Record, pool *chunkPool, met shardMetrics) {
	plan, done := g.plans[i], r.done
	hours := plan.hours
	// The sequencer keeps lookahead shards dispatched and unsequenced — the
	// memory/parallelism trade-off — so tasks and generated never block
	// their senders.
	tasks := make(chan int, lookahead)
	generated := make(chan *shard, lookahead)

	r.running.Add(workers + 1)
	for w := 0; w < workers; w++ {
		go func() {
			defer r.running.Done()
			sc := newShardScratch(plan)
			for j := range tasks {
				sh := pool.shard()
				sh.hour = j
				g.generateHour(i, hours[j], sc, &sh.recs)
				sh.sortKeys()
				met.shardsDone.Inc()
				met.records.Add(int64(len(sh.keys)))
				met.siteRecords.Add(int64(len(sh.keys)))
				generated <- sh
			}
		}()
	}

	// Sequencer: takes shards in hour order and copies into blocks,
	// merged by key, what lies below the next shard's earliest possible
	// timestamp.
	go func() {
		defer r.running.Done()
		defer close(out)
		defer close(tasks)
		var (
			ready [lookahead]*shard // shard j, generated out of turn, waits at j%lookahead
			merge shardMerge
			block []trace.Record
		)
		for j := 0; j < min(lookahead, len(hours)); j++ {
			tasks <- j
		}
		// send hands the reader a full block, or the last of a release.
		send := func() bool {
			select {
			case out <- block:
				block = nil
				return true
			case <-done:
				return false
			}
		}
		emit := func(rec *trace.Record) bool {
			if block == nil {
				block = pool.get()
			}
			block = append(block, *rec)
			return len(block) < cap(block) || send()
		}
		for j := range hours {
			for ready[j%lookahead] == nil {
				select {
				case sh := <-generated:
					ready[sh.hour%lookahead] = sh
				case <-done:
					return
				}
			}
			merge.live, ready[j%lookahead] = append(merge.live, ready[j%lookahead]), nil
			if j+lookahead < len(hours) {
				tasks <- j + lookahead
			}
			wm := int64(math.MaxInt64) // after the last shard everything goes
			if j+1 < len(hours) {
				wm = week.HourStart(hours[j+1]).Add(-lead).UnixNano()
			}
			if !merge.release(wm, emit) || len(block) > 0 && !send() {
				return
			}
			pending, newest := merge.retire(pool.recycle)
			met.mergePending.Set(float64(pending))
			met.mergeLag.Set(time.Duration(max(newest-wm, 0)).Seconds())
		}
	}()
}
