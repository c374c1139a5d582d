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
//	tsserve [-addr :8080] [-capacity 1073741824]
//	        [-publisher-caches V-1=268435456,...]
//	        [-chunk 2097152] [-origin-latency 0] [-origin-bw 0]
//	        [-max-body 4096] [-max-inflight 0]
//	        [-read-timeout 5s] [-write-timeout 30s] [-idle-timeout 2m]
//	        [-drain 10s] [-drain-grace 0] [-slo-policy <file|inline>]
//	        [-trace-buffer 0] [-trace-sample 1] [-dc europe]
//	        [-name europe] [-shield http://127.0.0.1:8090]
//	        [-fill-timeout 5s]
//	        [-debug-addr :6060] [-progress] [-manifest run.json]
//
// The edge always counts and tracks rolling SLO windows: /slo (the SLO
// report) and /metrics (edge_* and cdn_*{dc} series) answer with or
// without the observability flags. -slo-policy adds objectives (latency
// quantiles, error-rate ceilings, hit-ratio floors; DESIGN.md §"SLOs and
// burn rates") that tsgate can gate on. -max-inflight is the one
// overload control: excess requests get a fast 503, counted in
// edge_shed_total. -trace-buffer enables a sampled per-request
// trace-event ring dumpable at /debug/trace.
//
// -dc scopes the edge to one or more regions for fleet deployments: a
// scoped edge refuses requests for foreign regions with 421, so only its
// own DCs count traffic, and registers only its own regions as SLO
// scopes. tsrouter maps traffic to a fleet of scoped edges and a
// collector merges their /slo and /metrics back into one cluster view.
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
	"time"

	"trafficscope/internal/edge"
	"trafficscope/internal/obs/cliobs"
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
		addr       = flag.String("addr", ":8080", "TCP listen address")
		readTO     = flag.Duration("read-timeout", 5*time.Second, "HTTP read timeout")
		writeTO    = flag.Duration("write-timeout", 30*time.Second, "HTTP write timeout")
		idleTO     = flag.Duration("idle-timeout", 2*time.Minute, "HTTP keep-alive idle timeout")
		drain      = flag.Duration("drain", 10*time.Second, "graceful drain budget on shutdown")
		drainGrace = flag.Duration("drain-grace", 0, "keep serving for this long after drain begins, with /healthz already 503")
		dcFlag     = flag.String("dc", "", "comma-separated regions this edge owns (e.g. europe or north-america,south-america); requests for other regions get 421. Empty serves all regions")
		name       = flag.String("name", "", "backend name sent with fill requests so the shield skips the requester (defaults to -dc)")
		shieldURL  = flag.String("shield", "", "origin shield base URL; misses fill through it (dedupe + peer probing) instead of the flat origin model")
	)
	model := edge.AddFlags(flag.CommandLine)
	obsFlags := cliobs.AddFlags(flag.CommandLine)
	flag.Parse()

	ctx, stop := cliobs.SignalContext()
	defer stop()

	sess, err := obsFlags.Start("tsserve")
	if err != nil {
		return err
	}
	extra := map[string]any{
		"addr": *addr, "capacity": model.Capacity,
		// Serving parallelism is bounded by cores (the cache model's
		// one lock covers under 1% of a request); record them.
		"gomaxprocs": runtime.GOMAXPROCS(0),
	}
	defer sess.Finish(extra)

	// A DC-scoped edge owns (and registers as SLO scopes) only its own
	// regions; empty means unscoped.
	var dcs []timeutil.Region
	scope := "all regions"
	if *dcFlag != "" {
		if dcs, err = timeutil.ParseRegions(*dcFlag); err != nil {
			return fmt.Errorf("bad -dc: %v", err)
		}
		extra["dc"] = *dcFlag
		scope = "dc " + *dcFlag
	}
	if *name == "" {
		*name = *dcFlag
	}
	if *shieldURL != "" {
		extra["shield"] = *shieldURL
	}
	srv, err := model.NewServer(dcs, *name, *shieldURL, sess.Registry())
	if err != nil {
		return err
	}
	sess.SetProgress(sess.CounterProgress("edge_requests_total", 0, "requests"))
	endpoints := "/o/ /healthz /slo /metrics"
	if model.TraceBuffer > 0 {
		endpoints += " /debug/trace"
	}

	serveErr := srv.ListenAndServe(ctx, edge.ListenConfig{
		Addr:         *addr,
		ReadTimeout:  *readTO,
		WriteTimeout: *writeTO,
		IdleTimeout:  *idleTO,
		DrainTimeout: *drain,
		DrainGrace:   *drainGrace,
		OnReady: func(a string) {
			fmt.Fprintf(os.Stderr, "tsserve: serving on http://%s (lru, %s per DC, %s; endpoints: %s)\n",
				a, report.Bytes(model.Capacity), scope, endpoints)
		},
	})

	stats := srv.TotalStats()
	extra["requests"] = stats.Requests
	extra["hit_ratio"] = stats.HitRatio()
	extra["origin_bytes"] = stats.OriginBytes
	extra["egress_bytes"] = stats.EgressBytes
	fills := srv.FillStats()
	if fills.Filled() > 0 {
		extra["origin_fill_bytes"] = fills.OriginFillBytes
		extra["fill_saved_bytes"] = fills.SavedBytes()
	}
	fmt.Fprint(os.Stderr, edge.Summary("tsserve:", stats, fills))
	if serveErr != nil {
		sess.Finish(extra)
		return serveErr
	}
	return sess.Finish(extra)
}
