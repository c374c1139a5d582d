package cdn

import (
	"context"
	"sync"

	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// The fill hierarchy: when an edge cache misses, the bytes to serve the
// miss must come from somewhere. Without help that somewhere is the
// origin; with a fill hierarchy the miss is first offered to peer data
// centers (the paper's DCs share one content catalog, so a regional miss
// is often resident elsewhere) and concurrent misses for the same object
// collapse into a single upstream fetch. This file holds the pieces both
// the edge (internal/edge) and the shield tier (internal/fleet) build
// on: a source-of-fill vocabulary, a singleflight keyed by object ID,
// and a read-only residency probe that leaves the cache model —
// and with it offline Replay equivalence — untouched.

// FillSource identifies where a miss's bytes came from.
type FillSource uint8

const (
	// FillNone means the miss was not filled (error paths).
	FillNone FillSource = iota
	// FillPeer means a peer data center's cache supplied the bytes.
	FillPeer
	// FillOrigin means the bytes were fetched from the origin.
	FillOrigin
)

// String implements fmt.Stringer; the values double as the
// X-TS-Fill-Source wire vocabulary.
func (s FillSource) String() string {
	switch s {
	case FillPeer:
		return "peer"
	case FillOrigin:
		return "origin"
	}
	return "none"
}

// ParseFillSource inverts FillSource.String.
func ParseFillSource(s string) FillSource {
	switch s {
	case "peer":
		return FillPeer
	case "origin":
		return FillOrigin
	}
	return FillNone
}

// FillResult describes one completed fill.
type FillResult struct {
	// Source is where the bytes came from.
	Source FillSource
	// Backend names the peer that supplied a FillPeer result ("" for
	// origin fills).
	Backend string
	// Bytes is the logical byte count filled.
	Bytes int64
	// Deduped reports that an upstream shield satisfied this fill by
	// piggybacking on another requester's in-flight origin fetch (the
	// shield-side analogue of SingleFlight's shared return).
	Deduped bool
}

// sfCall is one in-flight SingleFlight fetch.
type sfCall struct {
	done chan struct{}
	res  FillResult
	err  error
}

// SingleFlight collapses concurrent fetches of the same object into one:
// the first caller for a key runs the fetch, every concurrent duplicate
// waits for that result instead of fetching again. This is the
// origin-shield primitive — N backends (or N requests within one
// backend) missing the same object cost the origin exactly one fetch.
//
// Unlike x/sync/singleflight, the leader's fn is expected to manage its
// own timeout: a started fill runs to completion even if the client that
// triggered it disappears, because the result is shared (and, in a CDN,
// the object lands in cache either way). Followers wait under their own
// context and may give up individually.
//
// The zero value is ready to use.
type SingleFlight struct {
	mu    sync.Mutex
	calls map[uint64]*sfCall
}

// Do runs fn for key, unless a call for key is already in flight, in
// which case it waits for that call's result instead. shared reports
// whether the result came from another caller's flight. A follower whose
// ctx dies first returns ctx.Err() without waiting further; the flight
// itself is unaffected.
func (g *SingleFlight) Do(ctx context.Context, key uint64, fn func() (FillResult, error)) (res FillResult, shared bool, err error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = map[uint64]*sfCall{}
	}
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.res, true, c.err
		case <-ctx.Done():
			return FillResult{}, true, ctx.Err()
		}
	}
	c := &sfCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.res, c.err = fn()
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.res, false, c.err
}

// Inflight reports the number of keys currently being fetched.
func (g *SingleFlight) Inflight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.calls)
}

// DCContains reports whether the data center serving region currently
// holds the object r describes — every chunk covering the requested
// bytes for chunked video, the whole object otherwise. The probe is
// strictly read-only: no admission, no recency touch, no stats, and no
// key or slot handed out (an object the CDN never numbered is in no
// cache) — so a fill endpoint answering peers from it leaves the cache
// model in exactly the state an offline Replay of the DC's own traffic
// would produce. Not safe for concurrent use with serving traffic; see
// ConcurrentCDN.DCContains for the locking variant.
func (c *CDN) DCContains(region timeutil.Region, r *trace.Record) bool {
	obj, ok := c.keys.Object(r)
	if !ok {
		return false
	}
	need := c.touched(r, 0)
	if need > maxChunks {
		return false // the chunks past the cap are never cached
	}
	c.more = c.more[:0]
	p, ok := c.slots.place(obj, 0, int(need), &c.more, false)
	if !ok {
		return false
	}
	cache := c.dcForRegion(region).partition(r.Publisher)
	for i := range int(need) {
		if !cache.Contains(p.slot(i)) {
			return false
		}
	}
	return true
}
