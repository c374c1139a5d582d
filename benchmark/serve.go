package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"trafficscope/internal/cdn"
	"trafficscope/internal/edge"
	"trafficscope/internal/fleet"
	"trafficscope/internal/loadgen"
	"trafficscope/internal/obs"
	"trafficscope/internal/obs/slo"
	"trafficscope/internal/synth"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

type serveKind int

const (
	serveEdge serveKind = iota
	serveFleet
)

// Tier sizing. serve-edge's caches hold the whole working set, so after
// the warm-up pass every request is a hit; serve-fleet's 64 MiB per DC
// evict all the time, so three requests in four take the fill path.
const (
	edgeCacheBytes  = 16 << 30
	fleetCacheBytes = 64 << 20
	chunkBytes      = 2 << 20
	maxBodyBytes    = 4096
	// fleetRecords is how much of the scale-0.01 week serve-fleet
	// replays: its first 15,000 records in time order.
	fleetRecords = 15000
)

// tier is one in-process edge: the handler and sockets tsserve has, on a
// loopback listener of its own.
type tier struct {
	regions []timeutil.Region
	network *cdn.CDN
	srv     *edge.Server
}

// serveInst is one of the two serve workloads: the tiers, and a closed
// loop of procs() workers replaying the whole trace once per repetition.
type serveInst struct {
	kind   serveKind
	opt    options
	rec    *recorder
	recs   []*trace.Record
	target string
	client *http.Client
	edges  []*tier
	shield *fleet.Shield
	// routerReg and shieldReg hold the fleet tiers' counters.
	routerReg, shieldReg *obs.Registry

	cancel  context.CancelFunc
	servers []*http.Server
	served  sync.WaitGroup // one count per server still in Serve

	// Server-side counters when the warm-up pass ended.
	afterWarm dcCounts
	warmFleet fleetCounts
	stats     []*loadgen.Stats // of the untraced timed repetitions
}

func cdnConfig(capacity int64, reg *obs.Registry) cdn.Config {
	return cdn.Config{
		NewCache:   func() cdn.Cache { return cdn.NewLRU(capacity) },
		ChunkBytes: chunkBytes,
		Metrics:    reg,
	}
}

// newTier builds an edge the way tsserve does: metrics registry and SLO
// windows on, as they are in production.
func newTier(capacity int64, shieldURL string, regions ...timeutil.Region) (*tier, error) {
	reg := obs.NewRegistry()
	scopes := regions
	name := ""
	if len(regions) == 0 {
		scopes = timeutil.AllRegions()
	} else {
		name = regions[0].String()
	}
	names := make([]string, len(scopes))
	for i, r := range scopes {
		names[i] = r.String()
	}
	t := &tier{regions: scopes, network: cdn.New(cdnConfig(capacity, reg))}
	var err error
	t.srv, err = edge.New(edge.Config{
		CDN:          t.network,
		Regions:      regions,
		Name:         name,
		ShieldURL:    shieldURL,
		MaxBodyBytes: maxBodyBytes,
		Metrics:      reg,
		SLO:          slo.NewEngine(slo.Policy{}, names...),
	})
	return t, err
}

func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// serve starts an http.Server with the timeouts the repo's own
// ListenAndServe functions default to.
func (s *serveInst) serve(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h, ReadTimeout: 5 * time.Second, WriteTimeout: 30 * time.Second, IdleTimeout: 2 * time.Minute}
	s.servers = append(s.servers, srv)
	s.served.Add(1)
	go func() {
		defer s.served.Done()
		srv.Serve(ln) // returns http.ErrServerClosed at close
	}()
}

func (s *serveInst) close() {
	if s.cancel != nil {
		s.cancel()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	// Every request has completed by now, so there is nothing to drain;
	// Shutdown would only wait out connections that never carried one.
	for _, srv := range s.servers {
		srv.Close()
	}
	s.served.Wait()
	s.servers = nil
}

// loadTrace generates the workload's trace in time order.
func loadTrace(kind serveKind, opt options) ([]*trace.Record, error) {
	gen, err := synth.NewGenerator(synth.Config{Seed: opt.population, Salt: opt.salt(), Scale: opt.scale})
	if err != nil {
		return nil, err
	}
	recs, err := gen.Generate()
	if err != nil {
		return nil, err
	}
	if kind == serveFleet && len(recs) > fleetRecords {
		recs = recs[:fleetRecords]
	}
	return recs, nil
}

func setupServe(kind serveKind) func(options, *recorder) (instance, error) {
	return func(opt options, rec *recorder) (instance, error) {
		s := &serveInst{kind: kind, opt: opt, rec: rec}
		var err error
		if s.recs, err = loadTrace(kind, opt); err != nil {
			return nil, err
		}
		if kind == serveEdge {
			err = s.startEdge()
		} else {
			err = s.startFleet()
		}
		if err != nil {
			s.close()
			return nil, err
		}
		// The client tsload builds, kept across repetitions so that every
		// timed pass runs on warmed connections.
		var rt http.RoundTripper = &http.Transport{
			MaxIdleConns:        procs() + 2,
			MaxIdleConnsPerHost: procs() + 2,
			IdleConnTimeout:     time.Minute,
		}
		if rec != nil {
			rt = spanTransport{r: rec, next: rt}
		}
		s.client = &http.Client{Transport: rt}
		return s, nil
	}
}

// wrap puts the span middleware around a tier's handler in a traced run.
func (s *serveInst) wrap(names tierNames, h http.Handler) http.Handler {
	if s.rec == nil {
		return h
	}
	return s.rec.middleware(names, h)
}

func (s *serveInst) startEdge() error {
	t, err := newTier(edgeCacheBytes, "")
	if err != nil {
		return err
	}
	ln, url, err := listen()
	if err != nil {
		return err
	}
	s.target = url
	s.edges = []*tier{t}
	s.serve(ln, s.wrap(tierNames{object: "edge", objectParent: "client"}, t.srv.Handler()))
	return nil
}

// startFleet is tscluster -shield in one process: a router in proxy mode
// and the shield on one listener, one region-scoped edge per DC behind.
func (s *serveInst) startFleet() error {
	frontLn, frontURL, err := listen()
	if err != nil {
		return err
	}
	s.target = frontURL
	var backends []*fleet.Backend
	for _, r := range timeutil.AllRegions() {
		t, err := newTier(fleetCacheBytes, frontURL, r)
		if err != nil {
			frontLn.Close()
			return err
		}
		ln, url, err := listen()
		if err != nil {
			frontLn.Close()
			return err
		}
		s.edges = append(s.edges, t)
		backends = append(backends, fleet.NewBackend(r.String(), url, r))
		s.serve(ln, s.wrap(tierNames{
			object: "edge", objectParent: "router",
			fill: "edge.fill", fillParent: "shield",
		}, t.srv.Handler()))
	}
	s.routerReg, s.shieldReg = obs.NewRegistry(), obs.NewRegistry()
	s.shield = fleet.NewShield(fleet.ShieldConfig{Backends: backends, Metrics: s.shieldReg})
	router, err := fleet.NewRouter(fleet.RouterConfig{Backends: backends, Metrics: s.routerReg})
	if err != nil {
		frontLn.Close()
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	router.Start(ctx)
	mux := http.NewServeMux()
	router.Register(mux)
	s.shield.Register(mux)
	s.serve(frontLn, s.wrap(tierNames{
		object: "router", objectParent: "client",
		fill: "shield", fillParent: "edge",
	}, mux))
	return nil
}

// dcCounts is the server side's view: per-DC CDN counters of every tier.
type dcCounts map[timeutil.Region]cdn.DCStats

func (s *serveInst) counts() dcCounts {
	out := dcCounts{}
	for _, t := range s.edges {
		for _, r := range t.regions {
			out[r] = t.network.DC(r).StatsSnapshot()
		}
	}
	return out
}

// fleetCounts is what the fill hierarchy has counted so far.
type fleetCounts struct {
	fill                                edge.FillStats // summed over the edges
	shieldFills, originFetches, retries int64
}

func (s *serveInst) fleetCounts() (c fleetCounts) {
	if s.kind != serveFleet {
		return c
	}
	for _, t := range s.edges {
		c.fill.Add(t.srv.FillStats())
	}
	c.shieldFills = s.shieldReg.Snapshot().Counters["fleet_shield_requests_total"]
	c.originFetches = s.shield.OriginFetches()
	c.retries = s.routerReg.Snapshot().Counters["fleet_retries_total"]
	return c
}

func (c dcCounts) total() (t cdn.DCStats) {
	for _, s := range c {
		t.Requests += s.Requests
		t.Hits += s.Hits
		t.Misses += s.Misses
	}
	return t
}

func (s *serveInst) rep(warm bool) (repOut, error) {
	before := s.counts()
	st, err := loadgen.Run(context.Background(), loadgen.Config{
		Target:  s.target,
		Workers: procs(),
		Client:  s.client,
	}, trace.NewSliceReader(s.recs))
	if err != nil {
		return repOut{}, err
	}
	after := s.counts()
	if warm {
		s.afterWarm, s.warmFleet = after, s.fleetCounts()
	} else if !s.rec.tracing() {
		s.stats = append(s.stats, st)
	}

	attempted := int64(len(s.recs))
	var twoXX int64
	for code, n := range st.ByStatus {
		if code >= 200 && code < 300 {
			twoXX += n
		}
	}
	good := min(twoXX, st.Hits+st.Misses)
	out := repOut{
		ops:       st.Requests,
		attempted: attempted,
		failed:    attempted - good,
		p50ms:     st.Latency.Quantile(0.5) * 1e3,
	}
	b, a := before.total(), after.total()
	out.hits, out.lookups = a.Hits-b.Hits, a.Requests-b.Requests
	if st.Requests != attempted {
		out.problems = append(out.problems, fmt.Sprintf("completed %d of %d requests (errors %d, shed %d, cancelled %d)",
			st.Requests, attempted, st.Errors, st.Shed, st.Cancelled))
	}
	if st.Hits != out.hits {
		out.problems = append(out.problems, fmt.Sprintf("client saw %d X-TS-Cache hits, servers counted %d", st.Hits, out.hits))
	}
	for r, dc := range after {
		if dc.Requests != dc.Hits+dc.Misses {
			out.problems = append(out.problems, fmt.Sprintf("DC %v: %d requests != %d hits + %d misses", r, dc.Requests, dc.Hits, dc.Misses))
		}
	}
	return out, nil
}

func (s *serveInst) tracedRep() (repOut, error) {
	s.rec.on.Store(true)
	defer s.rec.on.Store(false)
	return s.rep(false)
}

// check replays the passes the tiers served through an offline CDN of
// the same configuration. Per-DC request counts must agree exactly; hit
// ratios only within 0.01, because with eviction and chunking two
// concurrent workers may order a DC's requests differently than the
// sequential replay does (the repo's equivalence tests say the same).
func (s *serveInst) check(warm repOut, reps []repOut) []string {
	recs := s.recs
	if s.opt.wrongReference {
		var err error
		if recs, err = loadTrace(s.kind, s.opt.reference()); err != nil {
			return []string{"reference trace: " + err.Error()}
		}
	}
	capacity := int64(edgeCacheBytes)
	if s.kind == serveFleet {
		capacity = fleetCacheBytes
	}
	offline := cdn.New(cdnConfig(capacity, nil))
	snapshot := func() dcCounts {
		out := dcCounts{}
		for _, r := range timeutil.AllRegions() {
			out[r] = offline.DC(r).StatsSnapshot()
		}
		return out
	}
	var offWarm dcCounts
	for pass := 0; pass <= len(reps); pass++ {
		if err := offline.Replay(trace.NewSliceReader(recs), discard); err != nil {
			return []string{"offline replay: " + err.Error()}
		}
		if pass == 0 {
			offWarm = snapshot()
		}
	}
	var problems []string
	live, off := s.counts(), snapshot()
	for _, r := range timeutil.AllRegions() {
		if live[r].Requests != off[r].Requests {
			problems = append(problems, fmt.Sprintf("DC %v served %d requests, offline replay %d", r, live[r].Requests, off[r].Requests))
		}
	}
	ratio := func(end, start dcCounts) float64 {
		e, b := end.total(), start.total()
		return float64(e.Hits-b.Hits) / float64(e.Requests-b.Requests)
	}
	if l, o := ratio(live, s.afterWarm), ratio(off, offWarm); l < o-0.01 || l > o+0.01 {
		problems = append(problems, fmt.Sprintf("hit ratio %.4f live, %.4f offline", l, o))
	}
	return problems
}

// ---- per-layer ledger ----

func (s *serveInst) layers(float64) (map[string]float64, error) {
	out := map[string]float64{}
	var p99, queued99 []float64
	var retries, requests float64
	for _, st := range s.stats {
		p99 = append(p99, st.Latency.Quantile(0.99)*1e3)
		queued99 = append(queued99, st.QueuedDelay.Quantile(0.99)*1e3)
		retries += float64(st.Retries)
		requests += float64(st.Requests)
	}
	out["loadgen.p99_ms"] = median(p99)
	out["loadgen.queued_p99_ms"] = median(queued99)
	out["loadgen.retries_per_req"] = retries / requests

	// Self time of a tier = its spans minus the spans it caused one tier
	// down. Every child span lies inside its parent, so sums suffice.
	us := func(d time.Duration, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Microseconds()) / float64(n)
	}
	client, nClient := s.rec.total("client")
	edgeT, nEdge := s.rec.total("edge")
	router, nRouter := s.rec.total("router")
	shield, nShield := s.rec.total("shield")
	probes, _ := s.rec.total("edge.fill")
	out["edge.self_us"] = us(edgeT-shield, nEdge)
	if s.kind == serveFleet {
		out["loadgen.client_self_us"] = us(client-router, nClient)
		out["fleet.router_self_us"] = us(router-edgeT, nRouter)
		out["fleet.shield_self_us"] = us(shield-probes, nShield)
		out["fleet.fill_path_share_of_req"] = float64(router-edgeT+shield) / float64(client)

		// Counts over every timed repetition, the warm-up pass left out.
		now, warm := s.fleetCounts(), s.warmFleet
		reqs := float64(s.counts().total().Requests - s.afterWarm.total().Requests)
		fills := float64(now.shieldFills - warm.shieldFills)
		out["edge.origin_fills_per_req"] = float64(now.fill.OriginFills-warm.fill.OriginFills) / reqs
		out["edge.peer_fills_per_req"] = float64(now.fill.PeerFills-warm.fill.PeerFills) / reqs
		out["edge.fill_dedup_per_req"] = float64(now.fill.DedupFills-warm.fill.DedupFills) / reqs
		out["fleet.shield_fills_per_req"] = fills / reqs
		out["fleet.peer_probes_per_fill"] = float64(now.fill.ServedRequests-warm.fill.ServedRequests) / fills
		out["fleet.origin_fetches_per_fill"] = float64(now.originFetches-warm.originFetches) / fills
		out["fleet.proxy_retries_per_req"] = float64(now.retries-warm.retries) / reqs
	} else {
		out["loadgen.client_self_us"] = us(client-edgeT, nClient)
	}
	return out, s.probeLayers(out)
}

// fetch GETs url and reads the body to its end.
func fetch(c *http.Client, url string) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode/100 != 2 {
		err = fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return err
}

// discardWriter is a ResponseWriter that keeps nothing: the handler
// probe's stand-in for net/http and the socket.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// probeLayers times the serve path's layers alone, each through its
// public function, on tiers of their own: a warm 16 GiB edge (every
// request a hit), and for serve-fleet a 64 MiB CDN that inserts and
// evicts. Nothing else runs meanwhile.
func (s *serveInst) probeLayers(out map[string]float64) error {
	recs := s.recs
	n := float64(len(recs))
	var err error
	fail := func(e error) {
		if err == nil {
			err = e
		}
	}

	buf := make([]byte, 0, 256)
	out["edge.wire_encode_ns"], _ = timeIt(n, func() {
		for _, r := range recs {
			buf = edge.AppendRequestPath(buf[:0], r)
		}
	})
	reqs := make([]*http.Request, len(recs))
	for i, r := range recs {
		if reqs[i], err = http.NewRequest(http.MethodGet, edge.RequestPath(r), nil); err != nil {
			return err
		}
	}
	var scratch trace.Record
	out["edge.wire_parse_ns"], out["edge.wire_parse_allocs"] = timeIt(n, func() {
		for _, q := range reqs {
			fail(edge.ParseRequestInto(q, &scratch))
		}
	})

	serveAll := func(capacity int64) func() {
		cc := cdn.NewConcurrent(cdn.New(cdnConfig(capacity, nil)))
		pass := func() {
			for _, r := range recs {
				cc.ServeInto(r, &scratch)
			}
		}
		pass()
		return pass
	}
	out["cdn.serve_hit_ns"], out["cdn.serve_hit_allocs"] = timeIt(n, serveAll(edgeCacheBytes))
	if s.kind == serveFleet {
		out["cdn.serve_miss_ns"], _ = timeIt(n, serveAll(fleetCacheBytes))
	}

	warm, err := newTier(edgeCacheBytes, "")
	if err != nil {
		return err
	}
	handler := warm.srv.Handler()
	w := &discardWriter{h: http.Header{}}
	pass := func() {
		for _, q := range reqs {
			clear(w.h)
			handler.ServeHTTP(w, q)
		}
	}
	pass()
	ns, allocs := timeIt(n, pass)
	out["edge.handler_hit_us"], out["edge.handler_hit_allocs"] = ns/1e3, allocs

	// Over loopback: one keep-alive connection, one request at a time.
	ln, direct, err := listen()
	if err != nil {
		return err
	}
	s.serve(ln, handler)
	few := recs[:min(len(recs), 20000)]
	one := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer one.CloseIdleConnections()
	sequential := func(base string) float64 {
		ns, _ := timeIt(float64(len(few)), func() {
			for _, r := range few {
				fail(fetch(one, base+edge.RequestPath(r)))
			}
		})
		return ns / 1e3
	}
	out["edge.loopback_hit_us"] = sequential(direct)
	out["edge.socket_us"] = out["edge.loopback_hit_us"] - out["edge.handler_hit_us"]
	if s.kind == serveFleet {
		// The same warm edge behind a router of its own: what one proxy
		// hop costs when nothing misses.
		router, err := fleet.NewRouter(fleet.RouterConfig{
			Backends: []*fleet.Backend{fleet.NewBackend("probe", direct, timeutil.AllRegions()...)},
		})
		if err != nil {
			return err
		}
		mux := http.NewServeMux()
		router.Register(mux)
		ln, viaRouter, err := listen()
		if err != nil {
			return err
		}
		s.serve(ln, mux)
		out["fleet.router_hop_us"] = sequential(viaRouter) - out["edge.loopback_hit_us"]
	}

	// The load generator alone: the same closed loop against a handler
	// that does nothing.
	ln, noop, err := listen()
	if err != nil {
		return err
	}
	s.serve(ln, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set(edge.HeaderCache, trace.CacheHit.String())
	}))
	st, lerr := loadgen.Run(context.Background(), loadgen.Config{Target: noop, Workers: procs()},
		trace.NewSliceReader(recs[:min(len(recs), 30000)]))
	if lerr != nil {
		return lerr
	}
	out["loadgen.client_us_per_req"] = float64(st.Duration.Microseconds()) / float64(st.Requests)
	return err
}
