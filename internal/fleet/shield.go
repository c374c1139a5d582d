package fleet

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"time"

	"trafficscope/internal/cdn"
	"trafficscope/internal/edge"
	"trafficscope/internal/obs"
	"trafficscope/internal/trace"
)

// The origin shield: a fill tier that sits between the fleet's backends
// and the origin, typically co-mounted on the router process (whose
// address every backend knows before any backend exists — the launcher's
// chicken-and-egg problem direct peer URLs would have). A backend's miss
// arrives as a /fill/ request; the shield probes the other backends'
// /fill/ endpoints (peer fill — the paper's DCs share one content
// catalog, so another DC often holds the object), and only when no peer
// does simulates the origin fetch itself. Concurrent misses for the same
// object — from any number of backends — collapse into one resolution
// via cdn.SingleFlight, so the origin sees exactly one fetch no matter
// how wide the miss storm is.
//
// The shield probes only the peers its directory names. An edge's cache
// gains an object only on a miss, and every miss sends a fill request
// here naming its backend, so the set of backends that ever filled an
// object is a superset of those holding it. A peer leaves that set on a
// bare 404: it no longer holds the object's first chunk, so it can serve
// no range until its next miss fills the object again.

// ShieldConfig configures a Shield.
type ShieldConfig struct {
	// Backends are the fleet's edges, probed for peer fills. The shield
	// shares the router's *Backend values so health eviction applies to
	// fill probing too. Required (may be empty only in tests).
	Backends []*Backend
	// OriginLatency/OriginBandwidth model the origin the shield fronts,
	// with edge.Config's semantics: a fill for n bytes costs
	// OriginLatency + n/OriginBandwidth. Zero values mean free.
	OriginLatency   time.Duration
	OriginBandwidth int64
	// Metrics holds the shield's fleet_shield_* counters, which
	// OriginFetches reads. nil gives the shield a registry of its own;
	// either way NewFront serves it on /metrics.
	Metrics *obs.Registry
	// Transport carries peer probes, one RoundTrip each; nil builds a
	// pooled transport.
	Transport http.RoundTripper
	// Logf receives probe-failure log lines; nil silences them.
	Logf func(format string, args ...any)
}

// shieldProbeTimeout bounds one peer probe.
const shieldProbeTimeout = 2 * time.Second

// Shield is the origin-shield fill tier. Mount with Register; backends
// point their edge.Config.ShieldURL here.
type Shield struct {
	cfg ShieldConfig
	sf  cdn.SingleFlight
	dir directory
	// bits maps each distinct backend name to its directory bit. A name
	// past the 64th has none, and is probed on every resolution.
	bits map[string]uint64

	// reg holds every counter below: cfg.Metrics, or the shield's own.
	reg          *obs.Registry
	reqs         *obs.Counter
	peerFills    *obs.Counter
	originFetch  *obs.Counter
	dedup        *obs.Counter
	originBytes  *obs.Counter
	peerBytes    *obs.Counter
	probeErrors  *obs.Counter
	skipped      *obs.Counter
	badReq       *obs.Counter
	cancelled    *obs.Counter
	originDelayH *obs.Histogram
}

// NewShield builds a Shield.
func NewShield(cfg ShieldConfig) *Shield {
	if cfg.Transport == nil {
		cfg.Transport = internalTransport()
	}
	s := &Shield{cfg: cfg, bits: map[string]uint64{}}
	for _, b := range cfg.Backends {
		if _, ok := s.bits[b.Name]; !ok && len(s.bits) < 64 {
			s.bits[b.Name] = 1 << len(s.bits)
		}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.reg = reg
	s.reqs = reg.Counter("fleet_shield_requests_total")
	s.peerFills = reg.Counter("fleet_shield_peer_fills_total")
	s.originFetch = reg.Counter("fleet_shield_origin_fetches_total")
	s.dedup = reg.Counter("fleet_shield_dedup_total")
	s.originBytes = reg.Counter("fleet_shield_origin_bytes_total")
	s.peerBytes = reg.Counter("fleet_shield_peer_fill_bytes_total")
	s.probeErrors = reg.Counter("fleet_shield_peer_probe_errors_total")
	s.skipped = reg.Counter("fleet_shield_probes_skipped_total")
	s.dir.objects = reg.Gauge("fleet_shield_directory_objects")
	s.badReq = reg.Counter("fleet_shield_bad_requests_total")
	s.cancelled = reg.Counter("fleet_shield_cancelled_total")
	s.originDelayH = reg.Histogram("fleet_shield_origin_seconds", obs.ExpBuckets(1e-3, 2, 16))
	return s
}

// Reply header values the fill handler assigns into the header map
// instead of allocating them through Header.Set: net/http only reads them.
var (
	sourceValues = [...][]string{
		cdn.FillNone:   {cdn.FillNone.String()},
		cdn.FillPeer:   {cdn.FillPeer.String()},
		cdn.FillOrigin: {cdn.FillOrigin.String()},
	}
	dedupValues = map[bool][]string{false: {"0"}, true: {"1"}}
)

// OriginFetches reports how many origin fetches the shield has made —
// the number the dedupe guarantee is about.
func (s *Shield) OriginFetches() int64 { return s.originFetch.Value() }

// Register mounts the shield's fill endpoint on mux under /fill/.
func (s *Shield) Register(mux *http.ServeMux) {
	mux.HandleFunc(edge.FillPrefix, s.handleFill)
}

// handleFill resolves one backend's miss. All concurrent requests for
// an object share one resolution; the leader probes peers and falls
// back to the simulated origin. The response tells the backend what
// happened: X-TS-Fill-Source peer|origin, X-TS-Fill-Backend for peer
// fills, X-TS-Fill-Dedup 1 when this request rode another's flight.
func (s *Shield) handleFill(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet && req.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	s.reqs.Inc()
	rec := new(trace.Record)
	if err := edge.ParseFillRequestInto(req, rec); err != nil {
		s.badReq.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	from := req.Header.Get(edge.HeaderFillFrom)
	uri := req.URL.RequestURI()
	// The requester's cache admitted the object when it counted the miss.
	s.dir.add(rec.ObjectID, s.bits[from])

	res, shared, err := s.sf.Do(req.Context(), rec.ObjectID, func() (cdn.FillResult, error) {
		return s.resolve(rec, from, uri), nil
	})
	if err != nil {
		// Only a follower whose backend gave up waiting lands here; the
		// flight itself completes for everyone else.
		s.cancelled.Inc()
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	if shared {
		s.dedup.Inc()
	}
	h := w.Header()
	h[edge.HeaderFillSource] = sourceValues[res.Source]
	if res.Backend != "" {
		h.Set(edge.HeaderFillBackend, res.Backend)
	}
	h[edge.HeaderFillDedup] = dedupValues[shared]
	h.Set(edge.HeaderBytes, strconv.FormatInt(res.Bytes, 10))
	w.WriteHeader(http.StatusOK)
}

// resolve is the leader's work: peers first, then the origin. It runs to
// completion regardless of the requesting backend's fate — the result is
// shared by every concurrent miss for the object.
func (s *Shield) resolve(rec *trace.Record, from, uri string) cdn.FillResult {
	// Whole-object fill accounting, mirroring the CDN model's
	// DCStats.OriginBytes: a miss admits the full object.
	n := rec.ObjectSize
	holders, epoch := s.dir.get(rec.ObjectID)
	for _, b := range s.cfg.Backends {
		// Skip the requester: its own cache just missed. Replica backends
		// sharing the requester's name are skipped too — they shard the
		// same region, so the object's owner is the requester itself.
		if b.Name == from || !b.Healthy() {
			continue
		}
		bit := s.bits[b.Name]
		if bit != 0 && holders&bit == 0 {
			s.skipped.Inc()
			continue
		}
		ok, held, err := s.probePeer(b, uri)
		if err != nil {
			s.probeErrors.Inc()
			s.logf("fleet: shield: probe %s: %v", b.Name, err)
			continue
		}
		if ok {
			s.peerFills.Inc()
			s.peerBytes.Add(n)
			return cdn.FillResult{Source: cdn.FillPeer, Backend: b.Name, Bytes: n}
		}
		if !held && bit != 0 {
			s.dir.forget(rec.ObjectID, bit, epoch)
		}
	}
	// No peer holds it: this is the one origin fetch for the whole
	// miss storm.
	if d := edge.OriginDelay(s.cfg.OriginLatency, s.cfg.OriginBandwidth, n); d > 0 {
		s.originDelayH.Observe(d.Seconds())
		time.Sleep(d)
	}
	s.originFetch.Inc()
	s.originBytes.Add(n)
	return cdn.FillResult{Source: cdn.FillOrigin, Bytes: n}
}

// probePeer asks one backend's /fill/ endpoint whether it holds the
// object. ok=true on 200, ok=false on 404, with held=true when the 404
// says the peer still holds the object's first chunk; anything else is
// an error. It is a HEAD: a reply with no body to read keeps its
// connection reusable (an unread 404 body would cost every miss probe a
// new dial).
func (s *Shield) probePeer(b *Backend, uri string) (ok, held bool, err error) {
	// Detached from the requester's context by design: the leader's
	// resolution outlives any one requester.
	ctx, cancel := context.WithTimeout(context.Background(), shieldProbeTimeout)
	defer cancel()
	resp, err := roundTrip(ctx, s.cfg.Transport, http.MethodHead, b.URL+uri)
	if err != nil {
		return false, false, err
	}
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return true, true, nil
	case http.StatusNotFound:
		return false, resp.Header.Get(edge.HeaderFillHeld) == "1", nil
	default:
		return false, false, &probeStatusError{url: b.URL + uri, status: resp.StatusCode}
	}
}

// directory records, for every object some backend has filled, which
// backends may still hold it: a mask of Shield.bits. An object no
// backend may hold has no entry, so the map never holds more than one
// entry per distinct object filled.
type directory struct {
	mu sync.Mutex
	m  map[uint64]dirEntry
	// objects is the fleet_shield_directory_objects gauge: len(m).
	objects *obs.Gauge
}

type dirEntry struct {
	mask uint64
	// epoch counts the fill requests that reached the entry. A probe's
	// 404 clears a bit only if none arrived while the probe was out: the
	// peer may have filled the object after answering it.
	epoch uint64
}

// add records that the backend with bit may hold object id.
func (d *directory) add(id, bit uint64) {
	if bit == 0 {
		return
	}
	d.mu.Lock()
	if d.m == nil {
		d.m = map[uint64]dirEntry{}
	}
	h := d.m[id]
	d.m[id] = dirEntry{mask: h.mask | bit, epoch: h.epoch + 1}
	d.objects.Set(float64(len(d.m)))
	d.mu.Unlock()
}

// get returns the backends that may hold object id and the entry's
// epoch, for a later forget.
func (d *directory) get(id uint64) (mask, epoch uint64) {
	d.mu.Lock()
	h := d.m[id]
	d.mu.Unlock()
	return h.mask, h.epoch
}

// forget clears bit from object id's entry unless a fill request reached
// the entry since get returned epoch, and drops an entry left empty.
func (d *directory) forget(id, bit, epoch uint64) {
	d.mu.Lock()
	if h, ok := d.m[id]; ok && h.epoch == epoch {
		if h.mask &^= bit; h.mask == 0 {
			delete(d.m, id)
		} else {
			d.m[id] = h
		}
		d.objects.Set(float64(len(d.m)))
	}
	d.mu.Unlock()
}

type probeStatusError struct {
	url    string
	status int
}

func (e *probeStatusError) Error() string {
	return "fleet: shield probe " + e.url + ": status " + strconv.Itoa(e.status)
}

func (s *Shield) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}
