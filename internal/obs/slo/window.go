package slo

import (
	"sync"
	"sync/atomic"
	"time"

	"trafficscope/internal/obs"
)

// Tracker maintains rolling time windows of request telemetry as a ring
// of per-interval buckets (a "leap array"). Record is lock-free and
// allocation-free: a handful of atomic adds against the bucket owning
// the current interval. Bucket rotation — reusing a ring slot for a new
// interval — happens at most once per interval per slot and takes a
// mutex only on that rare path.
//
// Each bucket is stamped with the interval epoch (interval index since
// the Unix epoch) it holds data for. Readers sum only buckets whose
// stamp matches the window they are assembling, so slots that are stale
// (server idle) or mid-rotation are simply skipped — giving the weak
// consistency every live metrics endpoint has, without coordination
// with writers. A window query shortly after startup therefore reports
// a partially-filled window: exactly the traffic seen so far.
type Tracker struct {
	interval   time.Duration
	numBuckets int
	bounds     []float64 // the one latency layout every bucket shares
	buckets    []bucket
	rotMu      sync.Mutex
	now        func() time.Time
}

// bucket holds one interval's telemetry. epoch is the interval index
// the data belongs to, or -1 while the bucket is being reset; readers
// check it before loading. latency holds every request of the interval,
// so its count is the interval's request count.
type bucket struct {
	epoch   atomic.Int64
	errors  atomic.Int64
	hits    atomic.Int64
	misses  atomic.Int64
	latency *obs.Histogram
}

// DefaultLatencyBounds returns the serving stack's request-latency
// bucket layout: 22 doubling bounds from 50µs to 105s, past which a
// request lands in the +Inf bucket. The edge's edge_request_seconds
// histogram and its SLO windows both use it, so a window's latency is
// that histogram's, restricted to the window.
func DefaultLatencyBounds() []float64 {
	return obs.ExpBuckets(50e-6, 2, 22)
}

// NewTracker builds a tracker with the given bucket interval and
// retained span (the longest window it can answer). One extra bucket is
// allocated beyond span/interval so the oldest full interval is still
// intact while the newest is being written. Every bucket's histogram
// shares one copy of bounds.
func NewTracker(interval, span time.Duration, bounds []float64) *Tracker {
	if interval <= 0 {
		interval = DefaultInterval
	}
	if span < interval {
		span = interval
	}
	n := int(span/interval) + 1
	t := &Tracker{
		interval:   interval,
		numBuckets: n,
		bounds:     append([]float64(nil), bounds...),
		buckets:    make([]bucket, n),
		now:        time.Now,
	}
	for i := range t.buckets {
		t.buckets[i].epoch.Store(-1)
		t.buckets[i].latency = obs.NewHistogram(t.bounds)
	}
	return t
}

// SetClock replaces the tracker's time source (test hook). Must be
// called before any traffic is recorded.
func (t *Tracker) SetClock(now func() time.Time) { t.now = now }

// Record feeds one request into the current interval's bucket:
// latencySeconds is the total request latency, hit/miss the cache
// verdict (both false when the request failed before a verdict), isErr
// whether the request was a client-visible failure. Nil-safe, so call
// sites can keep an optional *Tracker without branching.
func (t *Tracker) Record(latencySeconds float64, hit, miss, isErr bool) {
	if t == nil {
		return
	}
	t.RecordAt(t.now(), latencySeconds, hit, miss, isErr)
}

// RecordAt is Record with an explicit timestamp (test fixtures).
func (t *Tracker) RecordAt(now time.Time, latencySeconds float64, hit, miss, isErr bool) {
	if t == nil {
		return
	}
	epoch := now.UnixNano() / int64(t.interval)
	b := t.bucket(epoch)
	if b == nil {
		return // older than the ring retains; drop
	}
	if isErr {
		b.errors.Add(1)
	}
	if hit {
		b.hits.Add(1)
	}
	if miss {
		b.misses.Add(1)
	}
	b.latency.Observe(latencySeconds)
}

// bucket returns the ring slot for the given interval epoch, rotating
// it if it still holds an older interval. Returns nil if the slot has
// already moved past epoch (a recorder delayed by more than the ring
// span — its sample is dropped rather than misfiled).
func (t *Tracker) bucket(epoch int64) *bucket {
	b := &t.buckets[int(epoch%int64(t.numBuckets))]
	for {
		cur := b.epoch.Load()
		switch {
		case cur == epoch:
			return b
		case cur > epoch:
			return nil
		}
		// Slot holds an older interval (or is mid-reset): rotate it.
		// The mutex serializes rotators; everyone else spins through the
		// loads above, which is fine — rotation is rare and short.
		t.rotMu.Lock()
		if cur = b.epoch.Load(); cur >= epoch {
			t.rotMu.Unlock()
			continue // someone else rotated (or moved past us)
		}
		b.epoch.Store(-1) // readers now skip this slot
		b.errors.Store(0)
		b.hits.Store(0)
		b.misses.Store(0)
		b.latency.Reset()
		b.epoch.Store(epoch)
		t.rotMu.Unlock()
		return b
	}
}

// Window aggregates the trailing window of the given span (rounded up
// to whole intervals, capped at the tracker's retained span).
func (t *Tracker) Window(span time.Duration) WindowStats {
	if t == nil {
		return WindowStats{}
	}
	return t.WindowAt(t.now(), span)
}

// WindowAt is Window as of an explicit instant: it sums the buckets for
// the n intervals ending at now's interval, skipping ring slots whose
// epoch stamp doesn't match (stale or mid-rotation). The current
// (in-progress) interval is included, so a window is "what happened in
// the last span", not "the last span of completed intervals".
func (t *Tracker) WindowAt(now time.Time, span time.Duration) WindowStats {
	ws := WindowStats{}
	if t == nil {
		return ws
	}
	n := int((span + t.interval - 1) / t.interval)
	if n < 1 {
		n = 1
	}
	if n > t.numBuckets-1 {
		n = t.numBuckets - 1
	}
	ws.WindowSeconds = (time.Duration(n) * t.interval).Seconds()
	latency := obs.NewHistogram(t.bounds)
	newest := now.UnixNano() / int64(t.interval)
	for epoch := newest - int64(n) + 1; epoch <= newest; epoch++ {
		b := &t.buckets[int(epoch%int64(t.numBuckets))]
		if b.epoch.Load() != epoch {
			continue
		}
		ws.Errors += b.errors.Load()
		ws.Hits += b.hits.Load()
		ws.Misses += b.misses.Load()
		latency.Merge(b.latency) // one layout throughout: cannot fail
	}
	ws.Latency = latency.Value()
	ws.Requests = ws.Latency.Count
	return ws
}
