// Command tsserve runs the live HTTP edge: it serves trace objects from
// the in-process CDN cache model over real sockets, simulating origin
// fetches on miss. Serving is concurrent: one mutex guards the cache
// model's serve step (under 1% of a request), and parsing, origin
// sleeps, fills and body writes all run outside it, so throughput scales
// with cores. Pair it with tsload replaying a tsgen trace for an
// end-to-end serving benchmark.
//
// Usage:
//
//	tsserve [-addr :8080] [-policy lru] [-capacity 1073741824]
//	        [-shards 0] [-publisher-caches V-1=268435456,...]
//	        [-chunk 2097152] [-origin-latency 0] [-origin-bw 0]
//	        [-max-body 4096] [-max-conns 0] [-max-inflight 0]
//	        [-read-timeout 5s] [-write-timeout 30s] [-idle-timeout 2m]
//	        [-drain 10s] [-drain-grace 0] [-slo-policy <file|inline>]
//	        [-trace-buffer 0] [-trace-sample 1] [-dc europe]
//	        [-name europe] [-shield http://127.0.0.1:8090]
//	        [-fill-timeout 5s]
//	        [-debug-addr :6060] [-progress] [-manifest run.json]
//
// The edge always tracks rolling SLO windows and serves them at /slo
// (JSON) and as ts_slo_* gauges on /metrics; -slo-policy adds
// objectives (latency quantile targets, error-rate ceilings, hit-ratio
// floors — see DESIGN.md §"SLOs and burn rates") that tsgate can gate
// on. -trace-buffer enables a sampled per-request trace-event ring
// dumpable at /debug/trace.
//
// -dc scopes the edge to one or more regions for fleet deployments: a
// scoped edge refuses requests for foreign regions with 421, reports
// only its own DCs at /stats, and registers only its own regions as SLO
// scopes. tsrouter maps traffic to a fleet of scoped edges and a
// collector merges their stats back into one cluster view.
//
// -shield puts the edge's miss path behind a fill hierarchy: instead of
// a flat simulated origin fetch, a miss asks the shield (typically
// tsrouter -shield), which dedupes concurrent misses cluster-wide, probes
// the peer DCs' /fill/ endpoints and only pays the origin when nobody has
// the object; if the shield cannot answer, the miss pays the local origin
// model. The cache model is untouched — only where bytes come from
// changes — so offline replay equivalence holds with fills on. The
// /fill/ residency endpoint itself is always served. -name tells the
// shield who is asking so it never probes the requester back (defaults
// to -dc).
//
// SIGINT/SIGTERM triggers a graceful drain: /healthz flips to 503
// "draining", the listener stays open for -drain-grace so load
// balancers can notice, then closes; in-flight requests finish (bounded
// by -drain) and the run manifest is written with final serving
// statistics.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"trafficscope/internal/cdn"
	"trafficscope/internal/edge"
	"trafficscope/internal/obs/cliobs"
	"trafficscope/internal/obs/slo"
	"trafficscope/internal/report"
	"trafficscope/internal/timeutil"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tsserve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", ":8080", "TCP listen address")
		policy      = flag.String("policy", "lru", "per-DC eviction policy (lru, lfu, fifo, slru, gdsf, 2q, split)")
		capacity    = flag.Int64("capacity", 1<<30, "per-datacenter cache capacity in bytes")
		shards      = flag.Int("shards", 0, "consistent-hash shards per DC cache (0 = unsharded; capacity splits evenly)")
		pubCaches   = flag.String("publisher-caches", "", "dedicated per-publisher partitions, e.g. V-1=268435456,P-1=134217728")
		chunk       = flag.Int64("chunk", 2<<20, "video chunk size in bytes (negative disables chunking)")
		originLat   = flag.Duration("origin-latency", 0, "simulated origin round-trip added to every miss")
		originBW    = flag.Int64("origin-bw", 0, "simulated origin fill bandwidth in bytes/s (0 = infinite)")
		maxBody     = flag.Int64("max-body", edge.DefaultMaxBodyBytes, "max on-wire body bytes per response (logical size travels in X-TS-Bytes; negative = no body)")
		maxConns    = flag.Int("max-conns", 0, "max concurrently accepted TCP connections (0 = unlimited)")
		maxInflight = flag.Int("max-inflight", 0, "max concurrently served requests; excess get 503 (0 = unlimited)")
		readTO      = flag.Duration("read-timeout", 5*time.Second, "HTTP read timeout")
		writeTO     = flag.Duration("write-timeout", 30*time.Second, "HTTP write timeout")
		idleTO      = flag.Duration("idle-timeout", 2*time.Minute, "HTTP keep-alive idle timeout")
		drain       = flag.Duration("drain", 10*time.Second, "graceful drain budget on shutdown")
		drainGrace  = flag.Duration("drain-grace", 0, "keep serving for this long after drain begins, with /healthz already 503")
		sloPolicy   = flag.String("slo-policy", "", "SLO policy (file path or inline) with objectives to evaluate live")
		traceBuf    = flag.Int("trace-buffer", 0, "per-request trace-event ring size for /debug/trace (0 = disabled)")
		traceSample = flag.Int("trace-sample", 1, "trace every Nth request when the ring is enabled")
		dcFlag      = flag.String("dc", "", "comma-separated regions this edge owns (e.g. europe or north-america,south-america); requests for other regions get 421. Empty serves all regions")
		name        = flag.String("name", "", "backend name sent with fill requests so the shield skips the requester (defaults to -dc)")
		shieldURL   = flag.String("shield", "", "origin shield base URL; misses fill through it (dedupe + peer probing) instead of the flat origin model")
		fillTimeout = flag.Duration("fill-timeout", edge.DefaultFillTimeout, "budget for one shield fill attempt")
	)
	obsFlags := cliobs.AddFlags(flag.CommandLine)
	flag.Parse()

	ctx, stop := cliobs.SignalContext()
	defer stop()

	sess, err := obsFlags.Start("tsserve")
	if err != nil {
		return err
	}
	extra := map[string]any{
		"addr": *addr, "policy": *policy, "capacity": *capacity, "shards": *shards,
		// Serving parallelism is bounded by cores (the cache model's
		// one lock covers under 1% of a request); record them.
		"gomaxprocs": runtime.GOMAXPROCS(0),
	}
	defer sess.Finish(extra)

	dcs, err := parseDCs(*dcFlag)
	if err != nil {
		return err
	}
	if len(dcs) > 0 {
		extra["dc"] = *dcFlag
	}

	factory, err := cacheFactory(*policy, *capacity, *shards)
	if err != nil {
		return err
	}
	pubFactories, err := parsePublisherCaches(*pubCaches, *policy)
	if err != nil {
		return err
	}
	network := cdn.New(cdn.Config{
		NewCache:        factory,
		ChunkBytes:      *chunk,
		PublisherCaches: pubFactories,
		Metrics:         sess.Registry(),
	})
	// The SLO engine always runs (the /slo windows cost atomic adds);
	// -slo-policy supplies the objectives that can actually breach. Every
	// region is registered as a scope so per-DC objectives are evaluable.
	policySLO := slo.Policy{}
	if *sloPolicy != "" {
		if policySLO, err = slo.LoadPolicy(*sloPolicy); err != nil {
			return err
		}
	}
	// A DC-scoped edge only registers its own regions as scopes; a
	// cluster collector merges the per-DC reports back into one view.
	scopeRegions := dcs
	if len(scopeRegions) == 0 {
		scopeRegions = timeutil.AllRegions()
	}
	regionScopes := make([]string, 0, len(scopeRegions))
	for _, r := range scopeRegions {
		regionScopes = append(regionScopes, r.String())
	}
	engine := slo.NewEngine(policySLO, regionScopes...)
	if *name == "" {
		*name = *dcFlag
	}
	if *shieldURL != "" {
		extra["shield"] = *shieldURL
	}
	srv, err := edge.New(edge.Config{
		Regions:         dcs,
		CDN:             network,
		OriginLatency:   *originLat,
		OriginBandwidth: *originBW,
		MaxBodyBytes:    *maxBody,
		MaxInflight:     *maxInflight,
		Name:            *name,
		ShieldURL:       *shieldURL,
		FillTimeout:     *fillTimeout,
		Metrics:         sess.Registry(),
		SLO:             engine,
		Trace:           edge.NewTraceRing(*traceBuf, *traceSample),
	})
	if err != nil {
		return err
	}
	sess.SetProgress(sess.CounterProgress("edge_requests_total", 0, "requests"))

	serveErr := srv.ListenAndServe(ctx, edge.ListenConfig{
		Addr:         *addr,
		ReadTimeout:  *readTO,
		WriteTimeout: *writeTO,
		IdleTimeout:  *idleTO,
		MaxConns:     *maxConns,
		DrainTimeout: *drain,
		DrainGrace:   *drainGrace,
		OnReady: func(a string) {
			scope := "all regions"
			if *dcFlag != "" {
				scope = "dc " + *dcFlag
			}
			fmt.Fprintf(os.Stderr, "tsserve: serving on http://%s (%s, %s per DC, %s; endpoints: /o/ /stats /healthz /slo /metrics /debug/trace)\n",
				a, *policy, report.Bytes(*capacity), scope)
		},
	})

	stats := srv.TotalStats()
	extra["requests"] = stats.Requests
	extra["hit_ratio"] = stats.HitRatio()
	extra["origin_bytes"] = stats.OriginBytes
	extra["egress_bytes"] = stats.EgressBytes
	fmt.Fprintf(os.Stderr, "tsserve: served %d requests, hit ratio %.1f%%, egress %s\n",
		stats.Requests, 100*stats.HitRatio(), report.Bytes(stats.EgressBytes))
	if fs := srv.FillStats(); fs.PeerFills+fs.OriginFills+fs.DedupFills > 0 {
		extra["origin_fill_bytes"] = fs.OriginFillBytes
		extra["fill_saved_bytes"] = fs.SavedBytes()
		fmt.Fprintf(os.Stderr, "tsserve: fills: %d peer, %d origin, %d deduped; origin egress %s, saved %s\n",
			fs.PeerFills, fs.OriginFills, fs.DedupFills,
			report.Bytes(fs.OriginFillBytes), report.Bytes(fs.SavedBytes()))
	}
	if serveErr != nil {
		sess.Finish(extra)
		return serveErr
	}
	return sess.Finish(extra)
}

// parseDCs parses a comma-separated region list ("europe" or
// "north-america,south-america") into the regions this edge owns. Empty
// means unscoped.
func parseDCs(spec string) ([]timeutil.Region, error) {
	if spec == "" {
		return nil, nil
	}
	var out []timeutil.Region
	for _, part := range strings.Split(spec, ",") {
		r, err := timeutil.ParseRegion(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -dc entry: %v", err)
		}
		out = append(out, r)
	}
	return out, nil
}

// cacheFactory builds the per-DC cache constructor, optionally sharding
// the policy across a consistent-hash ring.
func cacheFactory(policy string, capacity int64, shards int) (func() cdn.Cache, error) {
	if shards <= 1 {
		return cdn.PolicyFactory(policy, capacity)
	}
	perShard, err := cdn.PolicyFactory(policy, capacity/int64(shards))
	if err != nil {
		return nil, err
	}
	// Validate ring parameters once so the factory cannot fail later.
	if _, err := cdn.NewShardedCache(shards, 64, perShard); err != nil {
		return nil, err
	}
	return func() cdn.Cache {
		c, _ := cdn.NewShardedCache(shards, 64, perShard) // validated above
		return c
	}, nil
}

// parsePublisherCaches parses "site=bytes,site=bytes" into dedicated
// cache partitions using the same eviction policy as the default cache.
func parsePublisherCaches(spec, policy string) (map[string]func() cdn.Cache, error) {
	if spec == "" {
		return nil, nil
	}
	out := map[string]func() cdn.Cache{}
	for _, part := range strings.Split(spec, ",") {
		site, sizeStr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || site == "" {
			return nil, fmt.Errorf("bad -publisher-caches entry %q (want site=bytes)", part)
		}
		size, err := strconv.ParseInt(sizeStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -publisher-caches size %q: %v", sizeStr, err)
		}
		factory, err := cdn.PolicyFactory(policy, size)
		if err != nil {
			return nil, err
		}
		out[site] = factory
	}
	return out, nil
}
