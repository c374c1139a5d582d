package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
	"time"

	"trafficscope/internal/cdn"
	"trafficscope/internal/edge"
	"trafficscope/internal/obs"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// HeaderBackend names the backend that served a proxied request, so a
// client (and the failover tests) can see which process traffic landed
// on without scraping backend stats (canonical spelling, as in edge).
const HeaderBackend = "X-Ts-Backend"

// RouterConfig configures the fleet Router.
type RouterConfig struct {
	// Backends are the tsserve processes behind the router. Required.
	// Several backends may own the same region; objects then split
	// between them by consistent hash, and the hash order doubles as the
	// failover preference chain.
	Backends []*Backend
	// Retries bounds additional proxy attempts after the first fails
	// with a transport error (the backend's HTTP responses, including
	// 5xx, are never retried — they are answers). Negative disables
	// retries; zero defaults to DefaultRetries.
	Retries int
	// ProbeInterval is the /healthz polling period per backend; zero
	// defaults to DefaultProbeInterval.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request; zero defaults to
	// DefaultProbeTimeout.
	ProbeTimeout time.Duration
	// FailAfter evicts a backend after this many consecutive failures
	// (probe or proxy); one success restores it. Zero defaults to
	// DefaultFailAfter.
	FailAfter int
	// Metrics holds the router's fleet_* counters. nil gives the router
	// a registry of its own; either way NewFront serves it on /metrics.
	Metrics *obs.Registry
	// Logf receives eviction/recovery log lines; nil silences them.
	Logf func(format string, args ...any)
}

// Router defaults.
const (
	DefaultRetries       = 1
	DefaultProbeInterval = 500 * time.Millisecond
	DefaultProbeTimeout  = 2 * time.Second
	DefaultFailAfter     = 2
)

// Router maps object requests to the backend owning their region and
// proxies them there, failing over along the consistent
// hash order when a backend dies mid-request.
type Router struct {
	cfg RouterConfig
	// rt carries proxy and probe requests, one RoundTrip each: a
	// backend's redirect is relayed, never followed.
	rt http.RoundTripper

	// regionSet[r] lists the backends owning region r; regionRing[r] is
	// a consistent-hash ring over that list (nil when one backend owns
	// the region alone — no ring walk needed).
	regionSet  [timeutil.NumRegions + 1][]*Backend
	regionRing [timeutil.NumRegions + 1]*cdn.HashRing

	// reg holds every counter below: cfg.Metrics, or the router's own.
	reg        *obs.Registry
	reqs       *obs.Counter
	proxied    *obs.Counter
	retries    *obs.Counter
	unrouted   *obs.Counter // no healthy backend for the region
	upstreamEr *obs.Counter // all proxy attempts failed in transport
	bodyErrors *obs.Counter // backend died mid-body (truncated relay)
	badReq     *obs.Counter
	probeFails *obs.Counter

	// scratch pools per-request decode state, mirroring the edge's
	// zero-alloc posture on the routing hot path. Its order buffers are
	// sized at NewRouter time from the largest region set, so the ring
	// walk never grows (and then discards) a pooled slice.
	scratch sync.Pool
}

// routeScratch is one pooled per-request decode state.
type routeScratch struct {
	rec   trace.Record
	order []int // ring-walk buffer; cap covers the largest region set
}

// NewRouter validates the config and builds a Router. Probing starts
// with Start.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("fleet: RouterConfig.Backends is required")
	}
	switch {
	case cfg.Retries == 0:
		cfg.Retries = DefaultRetries
	case cfg.Retries < 0:
		cfg.Retries = 0
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = DefaultProbeTimeout
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = DefaultFailAfter
	}
	r := &Router{cfg: cfg, rt: internalTransport()}
	for _, b := range cfg.Backends {
		if len(b.Regions) == 0 {
			return nil, errors.New("fleet: backend " + b.Name + " owns no regions")
		}
		for _, reg := range b.Regions {
			if reg < 1 || reg > timeutil.NumRegions {
				return nil, errors.New("fleet: backend " + b.Name + " owns an unknown region")
			}
			r.regionSet[reg] = append(r.regionSet[reg], b)
		}
	}
	maxSet := 1
	for reg := range r.regionSet {
		if n := len(r.regionSet[reg]); n > 1 {
			ring, err := cdn.NewHashRing(n, 64)
			if err != nil {
				return nil, err
			}
			r.regionRing[reg] = ring
			if n > maxSet {
				maxSet = n
			}
		}
	}
	r.scratch.New = func() any { return &routeScratch{order: make([]int, 0, maxSet)} }
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	r.reg = reg
	r.reqs = reg.Counter("fleet_requests_total")
	r.proxied = reg.Counter("fleet_proxied_total")
	r.retries = reg.Counter("fleet_retries_total")
	r.unrouted = reg.Counter("fleet_unrouted_total")
	r.upstreamEr = reg.Counter("fleet_upstream_errors_total")
	r.bodyErrors = reg.Counter("fleet_proxy_body_errors_total")
	r.badReq = reg.Counter("fleet_bad_requests_total")
	r.probeFails = reg.Counter("fleet_probe_failures_total")
	return r, nil
}

// Statuses snapshots every backend's health for /backends.
func (r *Router) Statuses() []BackendStatus {
	out := make([]BackendStatus, len(r.cfg.Backends))
	for i, b := range r.cfg.Backends {
		out[i] = b.Status()
	}
	return out
}

// Start launches one health-probe goroutine per backend; they stop when
// ctx is cancelled. Request-path failures feed the same health state, so
// eviction typically happens faster than the probe period under load.
func (r *Router) Start(ctx context.Context) {
	for _, b := range r.cfg.Backends {
		go r.probeLoop(ctx, b)
	}
}

func (r *Router) probeLoop(ctx context.Context, b *Backend) {
	tick := time.NewTicker(r.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		pctx, cancel := context.WithTimeout(ctx, r.cfg.ProbeTimeout)
		ok := r.probeOnce(pctx, b)
		cancel()
		if ok {
			if b.noteSuccess() {
				r.logf("fleet: backend %s recovered", b.Name)
			}
		} else {
			// A probe cut short because the router itself is shutting down
			// says nothing about the backend: without this check every
			// SIGINT cancelled the in-flight probes and printed spurious
			// "evicted" lines (and counted failures) on the way out.
			if ctx.Err() != nil {
				return
			}
			r.probeFails.Inc()
			if b.noteFailure(r.cfg.FailAfter) {
				r.logf("fleet: backend %s evicted after %d consecutive failures", b.Name, r.cfg.FailAfter)
			}
		}
	}
}

func (r *Router) probeOnce(ctx context.Context, b *Backend) bool {
	resp, err := roundTrip(ctx, r.rt, http.MethodGet, b.URL+"/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	// A draining backend answers 503: treat it as unhealthy so traffic
	// moves away during its drain grace window.
	return resp.StatusCode == http.StatusOK
}

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// Register mounts the router's endpoints on mux: object routing under
// /o/, the router's own /healthz, and /backends health JSON.
func (r *Router) Register(mux *http.ServeMux) {
	mux.HandleFunc(edge.ObjectPrefix, r.handleObject)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/backends", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(r.Statuses())
	})
}

func (r *Router) handleObject(w http.ResponseWriter, req *http.Request) {
	r.reqs.Inc()
	if req.Method != http.MethodGet && req.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	sc := r.scratch.Get().(*routeScratch)
	defer r.scratch.Put(sc)
	// The router validates the request itself rather than forwarding
	// junk: a parse failure here is the same 400 the edge would emit,
	// minus one network hop.
	if err := edge.ParseRequestInto(req, &sc.rec); err != nil {
		r.badReq.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	region := sc.rec.Region
	set := r.regionSet[region]
	if len(set) == 0 {
		r.unrouted.Inc()
		w.Header().Set("Retry-After", "1")
		http.Error(w, "no backend for region "+region.String(), http.StatusServiceUnavailable)
		return
	}

	attempts := 0
	maxAttempts := 1 + r.cfg.Retries
	for _, i := range r.candidateOrder(sc, region) {
		b := set[i]
		if !b.Healthy() {
			continue
		}
		if attempts >= maxAttempts {
			break
		}
		if attempts > 0 {
			r.retries.Inc()
		}
		attempts++
		if r.proxy(w, req, b) {
			return
		}
		// Transport failure: the backend never answered. Feed the health
		// state so repeated failures evict it without waiting for probes,
		// then try the next backend in the hash order.
		if b.noteFailure(r.cfg.FailAfter) {
			r.logf("fleet: backend %s evicted after %d consecutive failures", b.Name, r.cfg.FailAfter)
		}
	}
	if attempts == 0 {
		r.unrouted.Inc()
	} else {
		r.upstreamEr.Inc()
	}
	w.Header().Set("Retry-After", "1")
	http.Error(w, "region "+region.String()+" backends down", http.StatusServiceUnavailable)
}

// candidateOrder fills sc.order with the failover preference chain for
// region: consistent hash by object so one backend owns each object
// (first-touch misses stay per-DC-exact), with the ring walk as the
// failover chain. A single-backend region skips the ring. sc.order's
// capacity covers the largest region set, so this never allocates.
func (r *Router) candidateOrder(sc *routeScratch, region timeutil.Region) []int {
	order := sc.order[:0]
	if ring := r.regionRing[region]; ring != nil {
		order = ring.ShardOrderAppend(order, sc.rec.ObjectID)
	} else {
		order = append(order, 0)
	}
	sc.order = order
	return order
}

// proxyBufPool holds body-copy buffers; edge bodies default to 4 KiB on
// the wire, so a modest buffer avoids io.Copy's per-call allocation.
var proxyBufPool = sync.Pool{New: func() any { b := make([]byte, 32<<10); return &b }}

// proxy carries one request to backend b. Returns false on a transport
// error before any response bytes reached the client (safe to retry
// elsewhere); any received HTTP response — success or failure — is
// relayed as-is (a redirect too, not followed) and ends routing.
func (r *Router) proxy(w http.ResponseWriter, req *http.Request, b *Backend) bool {
	resp, err := roundTrip(req.Context(), r.rt, req.Method, b.URL+req.URL.RequestURI())
	if err != nil {
		// The client giving up must not count against the backend; report
		// "handled" so the caller doesn't retry a request nobody wants.
		if req.Context().Err() != nil {
			return true
		}
		return false
	}
	defer resp.Body.Close()

	// The response is ours alone, so its value slices move over as they are.
	h := w.Header()
	for k, vs := range resp.Header {
		h[k] = vs
	}
	h.Set(HeaderBackend, b.Name)
	w.WriteHeader(resp.StatusCode)

	// Relay the body before declaring the proxy a success: a backend that
	// dies mid-body has NOT served this request, even though it answered
	// the headers. The two failure directions are kept apart — a read
	// error is the backend's fault and feeds its health state, a write
	// error is the client hanging up and must not punish the backend.
	var readErr, writeErr error
	if req.Method == http.MethodGet {
		buf := proxyBufPool.Get().(*[]byte)
		readErr, writeErr = relayBody(w, resp.Body, *buf)
		proxyBufPool.Put(buf)
	}
	if readErr != nil && req.Context().Err() != nil {
		// The client hung up while the backend was still sending: the
		// server cancelled the request context, and with it the backend
		// read. That is the client's doing, not the backend's.
		readErr, writeErr = nil, readErr
	}
	switch {
	case readErr != nil:
		// Truncated relay: the client received a short body (too late to
		// retry — the status line is long gone). Account it and treat it
		// like any other backend failure for eviction purposes.
		r.bodyErrors.Inc()
		if b.noteFailure(r.cfg.FailAfter) {
			r.logf("fleet: backend %s evicted after %d consecutive failures", b.Name, r.cfg.FailAfter)
		}
	case writeErr != nil:
		// The client went away mid-body; the backend held up its end.
		r.bodyErrors.Inc()
		if b.noteSuccess() {
			r.logf("fleet: backend %s recovered", b.Name)
		}
	default:
		if b.noteSuccess() {
			r.logf("fleet: backend %s recovered", b.Name)
		}
		r.proxied.Inc()
	}
	return true
}

// relayBody copies the backend's response body to the client, reporting
// the two failure directions separately: readErr means the backend died
// mid-body, writeErr means the client stopped listening. At most one is
// non-nil.
func relayBody(dst io.Writer, src io.Reader, buf []byte) (readErr, writeErr error) {
	for {
		n, rerr := src.Read(buf)
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return nil, werr
			}
		}
		switch rerr {
		case nil:
		case io.EOF:
			return nil, nil
		default:
			return rerr, nil
		}
	}
}
