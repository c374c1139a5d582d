package cdn

import (
	"sync"

	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// ConcurrentCDN is the thread-safe serving facade over a CDN: many
// goroutines may call ServeInto at once. It is the layer the live edge
// (internal/edge) serves through.
//
// One mutex guards the wrapped CDN's caches, key table and client state,
// and each request is served entirely inside one critical section by the
// same ServeInto the offline replay calls: a request parsed off the wire
// is numbered there too. Concurrent serving is therefore
// linearizable: whatever order requests win the lock in, every response
// record and every per-DC counter equals what a sequential CDN produces
// when fed that order — with chunked video, eviction, the browser cache
// and the rejection dice all on. The DC counters are atomic, so readers
// (StatsSnapshot, TotalStats, the edge's /metrics) never queue behind
// serving traffic. The serve step is under 1% of a live request, so
// finer-grained locking has nothing to win; see DESIGN.md §"Edge
// concurrency model" for the measurements.
type ConcurrentCDN struct {
	mu sync.Mutex
	c  *CDN
}

// NewConcurrent wraps c. The wrapped CDN must not be driven through its
// own single-threaded ServeInto/Replay methods while the ConcurrentCDN is in
// use; offline and live paths share the same caches, client state and
// counters.
func NewConcurrent(c *CDN) *ConcurrentCDN {
	return &ConcurrentCDN{c: c}
}

// ServeInto is CDN.ServeInto, safely callable from many goroutines (out
// may alias r). A cache hit costs the lock, an LRU touch and atomic stat
// adds, with no heap allocation.
func (cc *ConcurrentCDN) ServeInto(r, out *trace.Record) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.c.ServeInto(r, out)
}

// DCContains is CDN.DCContains under the serve lock, safe to call while
// the ConcurrentCDN is live. The answer is a point-in-time snapshot: the
// object may be evicted (or admitted) the instant the lock is released,
// which is the same weak-consistency contract any cross-DC fill protocol
// has.
func (cc *ConcurrentCDN) DCContains(region timeutil.Region, r *trace.Record) bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.c.DCContains(region, r)
}

// TotalStats sums counters across all data centers; safe while traffic
// is in flight.
func (cc *ConcurrentCDN) TotalStats() DCStats { return cc.c.TotalStats() }
