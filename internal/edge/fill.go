package edge

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"trafficscope/internal/cdn"
	"trafficscope/internal/report"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// The fill hierarchy's edge half. Serving side: /fill/ answers "do you
// hold this object?" from cache residency alone (cdn.DCContains — no
// admission, no recency touch, no stats), so the shield can fill peers'
// misses from here without perturbing this DC's cache model. Requesting
// side: behind a shield, a regional miss replaces the flat simulated-origin
// sleep with shield → local-origin resolution, deduping concurrent misses
// for the same object through a cdn.SingleFlight. The CDN model is
// untouched either way — the cache already admitted the object when
// ServeInto counted the miss; the fill layer only decides where the
// bytes come from and how long they take, which is exactly why offline
// Replay equivalence survives.

// DefaultFillTimeout bounds one shield fill attempt when
// Config.FillTimeout is zero.
const DefaultFillTimeout = 5 * time.Second

// FillStats is the fill section of an edge's counters: where its misses
// were filled from (requesting side) and what it served to peers (serving
// side). Every field is a monotonic counter on /metrics (edge_*fill*), so
// edges' pages sum series-wise into a cluster view that ReadFillStats
// reads back.
type FillStats struct {
	// Requesting side: one of PeerFills/OriginFills/DedupFills is counted
	// per filled miss.
	PeerFills   int64
	OriginFills int64
	DedupFills  int64
	// PeerFillBytes/OriginFillBytes are the logical bytes the fill moved;
	// DedupFillBytes are bytes a deduped request wanted but that rode an
	// already-in-flight fetch. Origin egress is OriginFillBytes alone.
	PeerFillBytes   int64
	OriginFillBytes int64
	DedupFillBytes  int64
	// FillErrors counts shield attempts that failed (transport, status
	// or a reply naming no source); the miss still resolves, from the
	// local origin.
	FillErrors int64
	// Serving side: /fill/ requests answered for peers.
	ServedRequests int64
	ServedHits     int64
	ServedBytes    int64
}

// The fill counters, indices into Server.fillCount in FillStats field
// order.
const (
	peerFills = iota
	originFills
	dedupFills
	peerFillBytes
	originFillBytes
	dedupFillBytes
	fillErrors
	servedRequests
	servedHits
	servedBytes
	numFillCounters
)

// fillFamilies names the counter family behind each FillStats field.
var fillFamilies = [numFillCounters]string{
	"edge_peer_fills_total", "edge_origin_fills_total", "edge_fill_dedup_total",
	"edge_peer_fill_bytes_total", "edge_origin_fill_bytes_total", "edge_dedup_fill_bytes_total",
	"edge_fill_errors_total", "edge_fill_requests_total", "edge_fill_hits_total", "edge_fill_served_bytes_total",
}

// fields points at f's fields in counter order.
func (f *FillStats) fields() [numFillCounters]*int64 {
	return [...]*int64{&f.PeerFills, &f.OriginFills, &f.DedupFills, &f.PeerFillBytes, &f.OriginFillBytes,
		&f.DedupFillBytes, &f.FillErrors, &f.ServedRequests, &f.ServedHits, &f.ServedBytes}
}

// ReadFillStats reads FillStats through value, which returns one
// counter's value given its family name: how a reader of a fleet's
// merged /metrics page gets back the sum of every edge's FillStats.
func ReadFillStats(value func(family string) int64) (f FillStats) {
	for i, field := range f.fields() {
		*field = value(fillFamilies[i])
	}
	return f
}

// Add sums src into f field-wise (the cluster-merge operation).
func (f *FillStats) Add(src FillStats) {
	from := src.fields()
	for i, field := range f.fields() {
		*field += *from[i]
	}
}

// SavedBytes is the headline number: origin egress avoided, i.e. bytes
// that would have been origin fetches without the fill hierarchy (peer
// fills plus deduped rides on in-flight fetches).
func (f FillStats) SavedBytes() int64 { return f.PeerFillBytes + f.DedupFillBytes }

// Filled counts the misses resolved through the fill hierarchy.
func (f FillStats) Filled() int64 { return f.PeerFills + f.OriginFills + f.DedupFills }

// Summary renders the exit summary tsserve, tsrouter and tscluster print
// for who ("tsserve:", "tscluster: edge europe", ...): requests, hit
// ratio and egress, plus a fills line when any miss went through the fill
// hierarchy.
func Summary(who string, total cdn.DCStats, fill FillStats) string {
	s := fmt.Sprintf("%s served %d requests, hit ratio %.1f%%, egress %s\n",
		who, total.Requests, 100*total.HitRatio(), report.Bytes(total.EgressBytes))
	if fill.Filled() > 0 {
		s += fmt.Sprintf("%s fills: %d peer, %d origin, %d deduped; origin egress %s, saved %s\n", who,
			fill.PeerFills, fill.OriginFills, fill.DedupFills, report.Bytes(fill.OriginFillBytes), report.Bytes(fill.SavedBytes()))
	}
	return s
}

// FillStats snapshots the edge's fill counters (atomic reads, safe while
// traffic is in flight).
func (s *Server) FillStats() (f FillStats) {
	for i, field := range f.fields() {
		*field = s.fillCount[i].Value()
	}
	return f
}

// fillBytes is the logical byte count a fill for r moves: the whole
// object. A miss admits the full object into cache, so the fill that
// backs it transfers ObjectSize bytes regardless of how much of the
// object this request serves — the same accounting the CDN model uses
// for DCStats.OriginBytes under whole-object caching. (Under chunked
// video caching the model refetches only missing chunks, so there the
// fill layer's per-object granularity is an upper bound.)
func fillBytes(r *trace.Record) int64 {
	return r.ObjectSize
}

// handleFill answers the shield's residency probe: 200 when an owned DC
// holds every chunk the request covers, a 404 otherwise. The 404 carries
// HeaderFillHeld when an owned DC still holds the object's first chunk
// (chunk 0's key is the object ID, so no range is servable without it);
// it is bare when none does. The check is strictly read-only — no origin
// fetch is triggered, no LRU state moves, no DCStats count — so serving
// fills leaves this edge's cache model in exactly the state its own
// traffic alone would produce. Responses are logical (the shield probes
// with HEAD, so no body): the simulation tracks byte accounting, not
// byte movement.
func (s *Server) handleFill(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet && req.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	s.fillCount[servedRequests].Inc()
	sc := scratchPool.Get().(*serveScratch)
	defer scratchPool.Put(sc)
	if err := ParseFillRequestInto(req, &sc.rec); err != nil {
		s.badReq.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !s.holds(&sc.rec) {
		// The shield reads only the status and HeaderFillHeld: no body.
		s.fillMisses.Inc()
		first := sc.rec
		first.BytesServed = 1
		if s.holds(&first) {
			w.Header()[HeaderFillHeld] = heldValue
		}
		w.WriteHeader(http.StatusNotFound)
		return
	}
	n := fillBytes(&sc.rec)
	s.fillCount[servedHits].Inc()
	s.fillCount[servedBytes].Add(n)
	h := w.Header()
	h[HeaderCache] = cacheValues[trace.CacheHit]
	h[HeaderFillSource] = peerSource
	h.Set(HeaderBytes, string(strconv.AppendInt(sc.num[:0], n, 10)))
	w.WriteHeader(http.StatusOK)
}

// holds reports whether an owned DC holds every chunk r covers.
func (s *Server) holds(r *trace.Record) bool {
	for _, region := range timeutil.AllRegions() {
		if s.owned[region] && s.cdn.DCContains(region, r) {
			return true
		}
	}
	return false
}

// fill is the requesting side: it resolves the regional miss rec
// describes through the shield, falling back to the local simulated
// origin when the shield cannot answer. Concurrent misses for the same
// object within this edge collapse into one resolution via SingleFlight.
// Peer edges are never asked from here: probing their /fill/ endpoints is
// the shield's job alone (fleet.Shield.resolve).
//
// The leader for an object runs the resolution to completion even if its
// client disconnects — the result is shared, and the cache model admitted
// the object when the miss was counted, so abandoning a fill mid-flight
// would only desync followers. Followers wait under ctx and may give up
// individually (ctx.Err() is returned). shared reports this call rode
// another caller's in-flight resolution.
func (s *Server) fill(ctx context.Context, rec *trace.Record) (cdn.FillResult, bool, error) {
	// Copy out of the pooled scratch: followers may still read the
	// leader's closure state after the leader's handler returned it.
	r := *rec
	return s.fillSF.Do(ctx, r.ObjectID, func() (cdn.FillResult, error) {
		return s.fetchFill(&r), nil
	})
}

// fetchFill is the leader's resolution: the shield, then the local origin
// model. It never fails — a shield that cannot answer is counted in
// edge_fill_errors_total and the miss pays the local origin instead.
func (s *Server) fetchFill(r *trace.Record) cdn.FillResult {
	n := fillBytes(r)
	if res, ok := s.askShield(r, n); ok {
		return res
	}
	s.fillCount[fillErrors].Inc()
	// Local origin simulation: an uninterruptible sleep by design — the
	// leader's fill completes for whoever shares it.
	if d := s.originDelay(n); d > 0 {
		time.Sleep(d)
	}
	return cdn.FillResult{Source: cdn.FillOrigin, Bytes: n}
}

// askShield issues the fill request. A shield always answers 200 naming
// where the bytes came from (X-TS-Fill-Source peer|origin); a transport
// failure, any other status or a reply without a source is ok=false.
func (s *Server) askShield(r *trace.Record, n int64) (cdn.FillResult, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.FillTimeout)
	defer cancel()
	uri := string(AppendFillPath(make([]byte, 0, 96), r))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.cfg.ShieldURL+uri, nil)
	if err != nil {
		return cdn.FillResult{}, false
	}
	req.Header = s.fillHeader
	resp, err := s.cfg.FillTransport.RoundTrip(req)
	if err != nil {
		return cdn.FillResult{}, false
	}
	// The shield's 400/405/503 carry http.Error bodies: net/http reuses a
	// connection only once its body is read.
	defer func() {
		io.CopyN(io.Discard, resp.Body, 4<<10)
		resp.Body.Close()
	}()
	res := cdn.FillResult{
		Source:  cdn.ParseFillSource(resp.Header.Get(HeaderFillSource)),
		Backend: resp.Header.Get(HeaderFillBackend),
		Deduped: resp.Header.Get(HeaderFillDedup) == "1",
		Bytes:   n,
	}
	if resp.StatusCode != http.StatusOK || res.Source == cdn.FillNone {
		return cdn.FillResult{}, false
	}
	if v, err := strconv.ParseInt(resp.Header.Get(HeaderBytes), 10, 64); err == nil && v > 0 {
		res.Bytes = v
	}
	return res, true
}
