// Package edge is the live serving path: an HTTP server that maps
// request URLs to trace objects and serves them from the in-process CDN
// cache model (internal/cdn), simulating origin fetches on miss with
// configurable latency and bandwidth. It carries the production
// robustness the offline simulator never needed — read/write/idle
// timeouts, max-inflight load shedding with 503s, and context-driven
// graceful drain — so a trace-replay load generator (internal/loadgen)
// can measure hit ratios, egress and tail latency end to end over a real
// network stack.
//
// All hit/miss/byte accounting goes through the CDN model — served
// through cdn.ConcurrentCDN, one request per critical section — so a
// live replay and an offline CDN.Replay of the same records in the order
// the edge served them produce identical records and statistics; see
// DESIGN.md §"Edge concurrency model".
package edge

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trafficscope/internal/cdn"
	"trafficscope/internal/obs"
	"trafficscope/internal/obs/slo"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// DefaultMaxBodyBytes caps how many body bytes a response actually puts
// on the wire by default. The logical response size always travels in
// the X-TS-Bytes header; truncating the body keeps loopback benchmarks
// request-bound rather than memcpy-bound.
const DefaultMaxBodyBytes = 4096

// Config configures an edge Server.
type Config struct {
	// CDN is the cache model serving requests. Required. The Server
	// wraps it in a cdn.ConcurrentCDN and serves through that; do not
	// drive the same CDN through its single-threaded ServeInto/Replay
	// methods while the Server is running.
	CDN *cdn.CDN
	// OriginLatency is the simulated origin round-trip added to every
	// cache miss. Zero disables origin latency simulation.
	OriginLatency time.Duration
	// OriginBandwidth is the simulated origin fill bandwidth in
	// bytes/second; a miss for n bytes stalls n/bandwidth beyond
	// OriginLatency. Zero means infinite bandwidth.
	OriginBandwidth int64
	// MaxBodyBytes caps the on-wire body per response; the logical size
	// is reported in X-TS-Bytes. Zero defaults to DefaultMaxBodyBytes;
	// negative sends no body at all.
	MaxBodyBytes int64
	// MaxInflight bounds concurrently served object requests; excess
	// requests are shed with 503 + Retry-After. Zero means unlimited.
	MaxInflight int
	// Regions, when non-empty, scopes the edge to those DCs: object
	// requests for any other region are refused with 421 Misdirected
	// Request (counted in edge_misrouted_total). Empty serves every
	// region — the single-process default. A fleet runs one scoped edge
	// per DC behind a router that owns the region mapping; the 421 makes
	// a routing bug loud instead of silently double-counting a DC on two
	// backends.
	Regions []timeutil.Region
	// Name identifies this edge on outgoing fill requests
	// (X-TS-Fill-From) so a shield probing peers on its behalf skips the
	// requester itself. Conventionally the tsserve -dc value.
	Name string
	// ShieldURL, when set, routes every miss through an origin shield
	// (fleet.Shield): the shield dedupes concurrent origin fetches across
	// all backends and probes the peer DCs. Empty keeps the flat simulated
	// origin fetch.
	ShieldURL string
	// FillTimeout bounds one shield fill attempt; zero defaults to
	// DefaultFillTimeout.
	FillTimeout time.Duration
	// FillTransport carries fill requests, one RoundTrip each (no
	// redirects followed); nil builds a pooled transport.
	FillTransport http.RoundTripper
	// Metrics holds the edge's counters, latency histogram and inflight
	// gauge, which FillStats and /metrics read; nil gives the edge a
	// registry of its own.
	Metrics *obs.Registry
	// SLO reads the edge's per-region request series into its rolling
	// windows and answers /slo. nil gives the edge an engine with no
	// objectives: its windows count, nothing can breach.
	SLO *slo.Engine
	// Trace, if set, samples per-request trace events into a ring buffer
	// dumpable via /debug/trace. nil disables tracing.
	Trace *TraceRing
}

// Server serves trace objects over HTTP from a CDN cache model. The only
// lock on the hot path is the cdn.ConcurrentCDN's, held for the cache
// model step alone (under 1% of a request); counters and all edge
// telemetry are atomic.
type Server struct {
	cfg      Config
	cdn      *cdn.ConcurrentCDN
	inflight chan struct{}
	body     []byte // repeated payload chunk for body writes
	// maxBodyLength is MaxBodyBytes as a Content-Length header value.
	maxBodyLength []string

	// Region ownership, resolved once so the hot path pays one array
	// index. With no Regions configured every slot is owned.
	owned  [timeutil.NumRegions + 1]bool
	scoped bool

	// reg holds every counter below: cfg.Metrics, or the edge's own.
	reg       *obs.Registry
	reqs      *obs.Counter
	shed      *obs.Counter
	badReq    *obs.Counter
	cancelled *obs.Counter
	misrouted *obs.Counter
	bodyBytes *obs.Counter
	inflightG *obs.Gauge

	// Fill hierarchy: misses resolve through the shield when
	// cfg.ShieldURL is set (requesting side, deduped by fillSF); the
	// /fill/ endpoint and its counters are always live (serving side).
	fillSF     cdn.SingleFlight
	fillHeader http.Header // read-only: every fill request shares it
	fillCount  [numFillCounters]*obs.Counter
	fillMisses *obs.Counter

	// outcomes records each object request once: its latency in
	// edge_request_seconds{region} and its result in
	// edge_results_total{region,result}, indexed by owned region, or at
	// slot 0 (region "none") for a shed, bad or misrouted request. The SLO
	// engine reads these handles; sloNext is the Unix nanosecond at which
	// its next interval opens.
	outcomes [timeutil.NumRegions + 1]slo.Source
	sloNext  atomic.Int64

	traceRing *TraceRing
	reqSeq    atomic.Uint64
	draining  atomic.Bool
}

// serveScratch is the per-request scratch an object request decodes and
// serves through, pooled so the steady-state hot path allocates nothing
// of its own (net/http's per-request allocations remain).
type serveScratch struct {
	rec trace.Record
	num [20]byte // strconv.AppendInt scratch for the X-TS-Bytes header
}

var scratchPool = sync.Pool{New: func() any { return new(serveScratch) }}

// Header values the serve paths assign into the header map instead of
// allocating them through Header.Set: net/http only reads them.
var (
	cacheValues = [...][]string{
		trace.CacheUnknown: {trace.CacheUnknown.String()},
		trace.CacheHit:     {trace.CacheHit.String()},
		trace.CacheMiss:    {trace.CacheMiss.String()},
	}
	octetStream = []string{"application/octet-stream"}
	peerSource  = []string{cdn.FillPeer.String()}
	heldValue   = []string{"1"}
)

// New validates the config and builds a Server.
func New(cfg Config) (*Server, error) {
	if cfg.CDN == nil {
		return nil, errors.New("edge: Config.CDN is required")
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.OriginBandwidth < 0 {
		return nil, errors.New("edge: negative OriginBandwidth")
	}
	if cfg.SLO == nil {
		cfg.SLO = slo.NewEngine(slo.Policy{})
	}
	if cfg.ShieldURL != "" {
		cfg.ShieldURL = strings.TrimRight(cfg.ShieldURL, "/")
		if cfg.FillTimeout <= 0 {
			cfg.FillTimeout = DefaultFillTimeout
		}
		if cfg.FillTransport == nil {
			cfg.FillTransport = &http.Transport{
				MaxIdleConnsPerHost: 16,
				IdleConnTimeout:     time.Minute,
				DisableCompression:  true,
			}
		}
	}
	s := &Server{cfg: cfg, cdn: cdn.NewConcurrent(cfg.CDN)}
	// The shield reads only X-TS-Fill-From; the empty User-Agent keeps
	// net/http from sending its default.
	s.fillHeader = http.Header{"User-Agent": {""}}
	if cfg.Name != "" {
		s.fillHeader[HeaderFillFrom] = []string{cfg.Name}
	}
	if len(cfg.Regions) > 0 {
		s.scoped = true
		for _, r := range cfg.Regions {
			if r < 1 || r > timeutil.NumRegions {
				return nil, errors.New("edge: Config.Regions contains an unknown region")
			}
			s.owned[r] = true
		}
	} else {
		for _, r := range timeutil.AllRegions() {
			s.owned[r] = true
		}
	}
	if cfg.MaxInflight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	// One fixed chunk is written repeatedly for larger bodies.
	chunk := cfg.MaxBodyBytes
	if chunk > 64<<10 {
		chunk = 64 << 10
	}
	if chunk > 0 {
		s.body = make([]byte, chunk)
		for i := range s.body {
			s.body[i] = byte('a' + i%26)
		}
		s.maxBodyLength = []string{strconv.FormatInt(cfg.MaxBodyBytes, 10)}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.reg = reg
	s.reqs = reg.Counter("edge_requests_total")
	s.shed = reg.Counter("edge_shed_total")
	s.badReq = reg.Counter("edge_bad_requests_total")
	s.cancelled = reg.Counter("edge_client_cancelled_total")
	s.misrouted = reg.Counter("edge_misrouted_total")
	s.bodyBytes = reg.Counter("edge_body_bytes_total")
	s.inflightG = reg.Gauge("edge_inflight")
	for i, family := range fillFamilies {
		s.fillCount[i] = reg.Counter(family)
	}
	s.fillMisses = reg.Counter("edge_fill_misses_total")
	for r := range s.outcomes {
		if r != 0 && !s.owned[r] {
			continue
		}
		region := "none" // names no DC, so it counts toward the global scope alone
		if r != 0 {
			region = timeutil.Region(r).String()
		}
		result := func(res string) *obs.Counter {
			return reg.Counter(obs.Name("edge_results_total", "region", region, "result", res))
		}
		src := slo.Source{
			Latency: reg.Histogram(obs.Name("edge_request_seconds", "region", region), slo.DefaultLatencyBounds()),
			Errors:  result(ResultError),
		}
		if r != 0 {
			src.Hits, src.Misses = result(ResultHit), result(ResultMiss)
		}
		s.outcomes[r] = src
		if err := cfg.SLO.Attach(region, src); err != nil {
			return nil, err
		}
	}
	s.traceRing = cfg.Trace
	return s, nil
}

// Handler returns the server's HTTP handler: /o/... serves objects,
// /healthz answers "ok" (503 "draining" once graceful drain begins),
// /metrics renders the registry — every counter of the edge and its CDN —
// in Prometheus text format, /slo the SLO compliance report as JSON, and
// /debug/trace the sampled trace-event ring. Object and fill paths are
// dispatched by prefix before the ServeMux: its prefix patterns cost
// every request three allocations.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/slo", s.handleSLO)
	mux.HandleFunc("/debug/trace", s.handleDebugTrace)
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch p := req.URL.Path; {
		case strings.HasPrefix(p, ObjectPrefix):
			s.handleObject(w, req)
		case strings.HasPrefix(p, FillPrefix):
			s.handleFill(w, req)
		default:
			mux.ServeHTTP(w, req)
		}
	})
}

// StartDraining flips /healthz to 503 "draining" so load balancers stop
// routing new traffic here. Idempotent; ListenAndServe calls it when
// its context is cancelled, before the listener closes.
func (s *Server) StartDraining() { s.draining.Store(true) }

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WritePrometheus(w)
}

func (s *Server) handleSLO(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.cfg.SLO.Report())
}

// debugTraceReply is the /debug/trace JSON document.
type debugTraceReply struct {
	// Total counts every sampled event ever recorded; Events holds the
	// most recent ones still in the ring, oldest first.
	Total  uint64       `json:"total"`
	Events []TraceEvent `json:"events"`
}

func (s *Server) handleDebugTrace(w http.ResponseWriter, _ *http.Request) {
	if s.traceRing == nil {
		http.Error(w, "trace ring disabled", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	events := s.traceRing.Events()
	if events == nil {
		events = []TraceEvent{}
	}
	json.NewEncoder(w).Encode(debugTraceReply{Total: s.traceRing.Total(), Events: events})
}

// TotalStats returns the CDN's aggregate counters (thread-safe; an
// atomic snapshot, valid even while traffic is in flight).
func (s *Server) TotalStats() cdn.DCStats {
	return s.cdn.TotalStats()
}

func (s *Server) handleObject(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet && req.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	// Every accepted object request is counted exactly once and recorded
	// once, into its region's latency histogram and result counter, on
	// every exit path — shed, bad-request and client-cancelled included —
	// so edge_requests_total equals the sum of its outcome counters and
	// neither the histograms nor the SLO windows read from them
	// undercount fast failures.
	//
	// The outcome travels in stack locals, not the pooled scratch: the
	// scratch's deferred Put runs before this deferred observer (LIFO),
	// so the scratch must not be read here.
	start := time.Now()
	s.reqs.Inc()
	result := ResultError // until the CDN serves a verdict
	var region timeutil.Region
	var originNs, logicalBytes int64
	defer func() {
		end := time.Now()
		elapsed := end.Sub(start)
		if end.UnixNano() >= s.sloNext.Load() {
			// The first request recorded in a new SLO interval has the
			// engine read the series before it adds to them.
			s.sloNext.Store(s.cfg.SLO.Read(end))
		}
		src := &s.outcomes[0]
		if s.owned[region] {
			src = &s.outcomes[region]
		}
		src.Latency.Observe(elapsed.Seconds())
		switch result {
		case ResultHit:
			src.Hits.Inc()
		case ResultMiss:
			src.Misses.Inc()
		default:
			src.Errors.Inc()
		}
		if s.traceRing != nil {
			id := s.reqSeq.Add(1)
			if s.traceRing.ShouldSample(id) {
				ev := TraceEvent{
					ID:          id,
					UnixNanos:   start.UnixNano(),
					Result:      result,
					OriginNanos: originNs,
					TotalNanos:  elapsed.Nanoseconds(),
					Bytes:       logicalBytes,
				}
				if region != 0 {
					ev.DC = region.String()
				}
				s.traceRing.Add(ev)
			}
		}
	}()
	if s.inflight != nil {
		select {
		case s.inflight <- struct{}{}:
			s.inflightG.Add(1)
			defer func() {
				<-s.inflight
				s.inflightG.Add(-1)
			}()
		default:
			// Shed load instead of queueing: an open-loop client is
			// better served by a fast 503 than by a slow 200.
			s.shed.Inc()
			w.Header().Set("Retry-After", "1")
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
	}
	sc := scratchPool.Get().(*serveScratch)
	defer scratchPool.Put(sc)
	if err := ParseRequestInto(req, &sc.rec); err != nil {
		s.badReq.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if s.scoped && !s.owned[sc.rec.Region] {
		// A scoped edge must never account traffic for a DC it doesn't
		// own — serving it would double-count the region across the
		// fleet. 421 tells the router (or a misconfigured client) the
		// request reached the wrong backend.
		region = sc.rec.Region
		s.misrouted.Inc()
		http.Error(w, "region "+sc.rec.Region.String()+" not served by this edge", http.StatusMisdirectedRequest)
		return
	}

	// The concurrent CDN's one mutex is held for the serve step alone;
	// parsing above and the origin wait, fill and body write below run
	// outside it. The response is written over the pooled request record
	// in place.
	out := &sc.rec
	s.cdn.ServeInto(out, out)
	region = out.Region
	logicalBytes = out.BytesServed
	switch out.Cache {
	case trace.CacheHit:
		result = ResultHit
	case trace.CacheMiss:
		result = ResultMiss
	}

	// The cache verdict is final as soon as the CDN has served the
	// record, so commit the telemetry headers before the simulated
	// origin sleep: if the client gives up mid-fetch and net/http emits
	// an implicit response, it still carries the verdict the CDN
	// counted, keeping client-side hit/miss accounting aligned with the
	// server's.
	h := w.Header()
	h[HeaderCache] = cacheValues[out.Cache]
	logical := []string{string(strconv.AppendInt(sc.num[:0], out.BytesServed, 10))}
	h[HeaderBytes] = logical
	h["Content-Type"] = octetStream

	// Resolve the miss outside any lock so slow fills stall only their
	// own request, not the whole edge. With a shield configured the miss
	// goes shield → local origin (deduped per object); otherwise it is
	// the flat simulated origin fetch.
	if out.Cache == trace.CacheMiss {
		if s.cfg.ShieldURL != "" {
			fillStart := time.Now()
			res, shared, ferr := s.fill(req.Context(), out)
			originNs = time.Since(fillStart).Nanoseconds()
			if ferr != nil {
				// A follower whose client died while waiting on the
				// in-flight fill; the flight itself completes.
				s.cancelled.Inc()
				result = ResultError
				return
			}
			switch {
			case shared || res.Deduped:
				// This request rode another's in-flight resolution: its
				// bytes never cost the origin anything extra.
				s.fillCount[dedupFills].Inc()
				s.fillCount[dedupFillBytes].Add(fillBytes(out))
			case res.Source == cdn.FillPeer:
				s.fillCount[peerFills].Inc()
				s.fillCount[peerFillBytes].Add(res.Bytes)
			default:
				s.fillCount[originFills].Inc()
				s.fillCount[originFillBytes].Add(res.Bytes)
			}
			if req.Context().Err() != nil {
				s.cancelled.Inc()
				result = ResultError
				return // client gave up while the fill ran
			}
		} else if d := s.originDelay(out.BytesServed); d > 0 {
			originNs = int64(d)
			if !timeutil.SleepCtx(req.Context(), d) {
				s.cancelled.Inc()
				// The CDN counted a miss, but the client saw a failure:
				// SLO windows judge the client-visible outcome.
				result = ResultError
				return // client gave up mid-fetch
			}
		}
	}

	// A body is framed by Content-Length (HEAD declares the same), so
	// neither side chunks it. n is either the cap, preformatted, or the
	// logical size, whose header value is shared.
	n := min(out.BytesServed, s.cfg.MaxBodyBytes)
	hasBody := n > 0 && out.StatusCode != cdn.StatusNotModified
	if hasBody {
		if n == s.cfg.MaxBodyBytes {
			h["Content-Length"] = s.maxBodyLength
		} else {
			h["Content-Length"] = logical
		}
	}
	w.WriteHeader(out.StatusCode)
	if hasBody && req.Method == http.MethodGet {
		var written int64
		for written < n {
			chunk := s.body
			if rem := n - written; rem < int64(len(chunk)) {
				chunk = chunk[:rem]
			}
			m, err := w.Write(chunk)
			written += int64(m)
			if err != nil {
				break
			}
		}
		s.bodyBytes.Add(written)
	}
}

// OriginDelay is the origin model the edge and the fleet's shield share:
// fetching n bytes takes the round-trip latency plus n over the fill
// bandwidth in bytes per second (zero means infinite bandwidth).
func OriginDelay(latency time.Duration, bandwidth, n int64) time.Duration {
	if bandwidth > 0 && n > 0 {
		latency += time.Duration(float64(n) / float64(bandwidth) * float64(time.Second))
	}
	return latency
}

// originDelay computes the simulated origin fetch time for a miss
// serving n logical bytes.
func (s *Server) originDelay(n int64) time.Duration {
	return OriginDelay(s.cfg.OriginLatency, s.cfg.OriginBandwidth, n)
}

// ListenConfig configures the networked serving loop.
type ListenConfig struct {
	// Addr is the TCP listen address (":8080", "127.0.0.1:0", ...).
	Addr string
	// ReadTimeout/WriteTimeout/IdleTimeout harden the http.Server; zero
	// values default to 5s / 30s / 2m.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	IdleTimeout  time.Duration
	// DrainTimeout bounds the graceful drain after ctx is cancelled;
	// zero defaults to 10s.
	DrainTimeout time.Duration
	// DrainGrace keeps the listener open for this long after drain
	// begins, with the edge's /healthz already answering 503 "draining"
	// — the window a load balancer needs to observe the state change and
	// stop routing here before connections start being refused. Zero
	// closes the listener immediately.
	DrainGrace time.Duration
	// OnReady, if set, is called with the bound address once the
	// listener is open — how callers learn the port of Addr ":0".
	OnReady func(addr string)
}

// ListenAndServe serves the edge until ctx is cancelled, then drains
// gracefully with /healthz answering "draining" from the first moment.
func (s *Server) ListenAndServe(ctx context.Context, lc ListenConfig) error {
	return ListenAndServe(ctx, s.Handler(), lc, s.StartDraining)
}

// ListenAndServe is the serving loop of every trafficscope HTTP process
// (edge and router): it serves handler until ctx is cancelled, then
// drains gracefully — onDrain (may be nil) runs, the listener stays open
// for DrainGrace and closes, in-flight requests finish (bounded by
// DrainTimeout), and nil is returned. A non-nil error means the listener
// or server failed, or the drain overran its budget.
func ListenAndServe(ctx context.Context, handler http.Handler, lc ListenConfig, onDrain func()) error {
	if lc.ReadTimeout == 0 {
		lc.ReadTimeout = 5 * time.Second
	}
	if lc.WriteTimeout == 0 {
		lc.WriteTimeout = 30 * time.Second
	}
	if lc.IdleTimeout == 0 {
		lc.IdleTimeout = 2 * time.Minute
	}
	if lc.DrainTimeout == 0 {
		lc.DrainTimeout = 10 * time.Second
	}
	ln, err := net.Listen("tcp", lc.Addr)
	if err != nil {
		return err
	}
	if lc.OnReady != nil {
		lc.OnReady(ln.Addr().String())
	}
	// unused holds the connections that have not carried a request byte
	// yet (a client's transport dials these speculatively and parks them).
	// http.Server.Shutdown waits up to five seconds for each to send its
	// first request; the drain below closes them instead.
	var unused sync.Map // net.Conn -> struct{}
	srv := &http.Server{
		Handler:      handler,
		ReadTimeout:  lc.ReadTimeout,
		WriteTimeout: lc.WriteTimeout,
		IdleTimeout:  lc.IdleTimeout,
		ConnState: func(c net.Conn, st http.ConnState) {
			switch st {
			case http.StateNew:
				unused.Store(c, struct{}{})
			case http.StateActive, http.StateHijacked, http.StateClosed:
				unused.Delete(c) // StateIdle only ever follows StateActive
			}
		},
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Announce the drain first (the edge flips /healthz to
		// "draining"), then (optionally) keep serving for DrainGrace so
		// load balancers can observe it before Shutdown closes the
		// listener.
		if onDrain != nil {
			onDrain()
		}
		if lc.DrainGrace > 0 {
			select {
			case err := <-errc:
				return err
			case <-time.After(lc.DrainGrace):
			}
		}
		unused.Range(func(c, _ any) bool {
			c.(net.Conn).Close()
			return true
		})
		dctx, cancel := context.WithTimeout(context.Background(), lc.DrainTimeout)
		defer cancel()
		err := srv.Shutdown(dctx)
		if err != nil {
			// Drain budget exhausted: force-close lingering connections
			// before collecting Serve's return, so a client that never
			// hangs up cannot extend the drain past DrainTimeout.
			srv.Close()
		}
		<-errc // srv.Serve returns once the listener closes
		return err
	}
}
