package synth

import (
	"io"
	"math"
	"runtime"
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
// of the slowest point of the time-ordered merge — the
// memory/parallelism trade-off.
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

// ParallelReader is a trace.Reader producing the generator's full trace
// in global timestamp order, generated concurrently. Read returns io.EOF
// after the last record; Close releases the generation goroutines early
// (Read does so automatically at EOF).
type ParallelReader struct {
	merge     *trace.MergeReader
	done      chan struct{}
	closeOnce sync.Once
}

var _ trace.Reader = (*ParallelReader)(nil)

// Read fills rec with the next record in global timestamp order.
func (r *ParallelReader) Read(rec *trace.Record) error {
	err := r.merge.Read(rec)
	if err != nil {
		r.Close()
	}
	return err
}

// Close stops the generation goroutines. Safe to call multiple times.
func (r *ParallelReader) Close() error {
	r.closeOnce.Do(func() { close(r.done) })
	return nil
}

// ParallelReader starts concurrent generation and returns the sorted
// record stream. One pipeline runs per site: a pool of workers generates
// (site, hour) shards — each an independent RNG stream, see rng.go —
// which a per-site sequencer consumes in hour order, releasing the
// merged prefix no later shard can undercut (trace.RunMerger). The site
// streams are combined by a k-way heap merge with stable tie-breaking,
// so the result is byte-identical to sequential Generate for the same
// seed and config, without ever buffering the whole trace.
func (g *Generator) ParallelReader(opts ParallelOptions) *ParallelReader {
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	done := make(chan struct{})
	perSite := g.siteWorkers(workers)
	lead := maxRegionLead()

	m := opts.Metrics
	m.Gauge("synth_shards_total").Set(float64(g.ShardCount()))
	m.Gauge("synth_expected_records").Set(g.ExpectedRecords())

	var sources []trace.Reader
	for i := range g.plans {
		if g.plans[i] == nil {
			continue
		}
		// At most two batches wait in out, one is being read and one is
		// being filled, so four slots never drop a batch worth recycling.
		out, free := make(chan []*trace.Record, 2), make(chan []*trace.Record, 4)
		site := g.prof[i].Name
		g.runSitePipeline(i, perSite[i], lead, out, free, done, shardMetrics{
			shardsDone:   m.Counter("synth_shards_done_total"),
			records:      m.Counter("synth_records_total"),
			siteRecords:  m.Counter(obs.Name("synth_site_records_total", "site", site)),
			mergePending: m.Gauge(obs.Name("synth_merge_pending_records", "site", site)),
			mergeLag:     m.Gauge(obs.Name("synth_merge_watermark_lag_seconds", "site", site)),
		})
		sources = append(sources, &batchReader{ch: out, free: free})
	}
	merge := trace.NewMergeReader(sources...)
	if m != nil {
		merge.SetHeapGauge(m.Gauge("synth_merge_heap_depth"))
	}
	return &ParallelReader{merge: merge, done: done}
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

// runSitePipeline spawns site i's shard workers and sequencer. Sorted
// batches arrive on out, which is closed when the site is exhausted;
// batch slices the reader has drained come back on free for refilling.
func (g *Generator) runSitePipeline(i, workers int, lead time.Duration, out chan<- []*trace.Record, free <-chan []*trace.Record, done <-chan struct{}, met shardMetrics) {
	plan := g.plans[i]
	hours := plan.hours
	tasks := make(chan int)
	results := make([]chan []*trace.Record, len(hours))
	for j := range results {
		results[j] = make(chan []*trace.Record, 1)
	}
	sem := make(chan struct{}, lookahead)

	// Feeder: dispatches shard indices in hour order, never letting more
	// than lookahead shards run ahead of the sequencer.
	go func() {
		defer close(tasks)
		for j := range hours {
			select {
			case sem <- struct{}{}:
			case <-done:
				return
			}
			select {
			case tasks <- j:
			case <-done:
				return
			}
		}
	}()

	for w := 0; w < workers; w++ {
		go func() {
			sc := newShardScratch(plan)
			for j := range tasks {
				recs := g.generateShard(i, hours[j], sc)
				met.shardsDone.Inc()
				met.records.Add(int64(len(recs)))
				met.siteRecords.Add(int64(len(recs)))
				select {
				case results[j] <- recs:
				case <-done:
					return
				}
			}
		}()
	}

	// Sequencer: consumes shards in hour order and releases the merged
	// prefix below the next shard's earliest possible timestamp.
	go func() {
		defer close(out)
		var merger trace.RunMerger
		var batch []*trace.Record // recycled, empty until Emit releases into it
		for j := range hours {
			var recs []*trace.Record
			select {
			case recs = <-results[j]:
			case <-done:
				return
			}
			<-sem
			merger.Add(recs)
			if j+1 < len(hours) {
				wm := g.cfg.Week.HourStart(hours[j+1]).Add(-lead)
				if batch == nil {
					select {
					case batch = <-free:
					default:
					}
				}
				if batch = merger.Emit(wm, batch); len(batch) > 0 {
					select {
					case out <- batch:
					case <-done:
						return
					}
					batch = nil
				}
				met.mergePending.Set(float64(merger.Pending()))
				if newest := merger.NewestPending(); !newest.IsZero() {
					met.mergeLag.Set(newest.Sub(wm).Seconds())
				} else {
					met.mergeLag.Set(0)
				}
			}
		}
		if rest := merger.Rest(); len(rest) > 0 {
			select {
			case out <- rest:
			case <-done:
			}
		}
	}()
}

// batchReader adapts a channel of sorted record batches to trace.Reader.
type batchReader struct {
	ch   <-chan []*trace.Record
	free chan<- []*trace.Record
	cur  []*trace.Record
	pos  int
}

// Read copies the next record out of its shard slab into rec, so the
// caller never aliases generator storage. A batch belongs to the reader
// from receipt until its last record is read; then its pointers are
// cleared — a slab is garbage once no batch or merge buffer points into
// it — and the slice goes back to the sequencer.
func (b *batchReader) Read(rec *trace.Record) error {
	for b.pos >= len(b.cur) {
		if b.cur != nil {
			clear(b.cur)
			select {
			case b.free <- b.cur[:0]:
			default:
			}
			b.cur = nil
		}
		batch, ok := <-b.ch
		if !ok {
			return io.EOF
		}
		b.cur, b.pos = batch, 0
	}
	*rec = *b.cur[b.pos]
	b.pos++
	return nil
}
