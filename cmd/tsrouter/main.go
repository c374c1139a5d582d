// Command tsrouter is the fleet's front tier: it maps object requests
// to the single-DC tsserve backend owning their region (consistent-
// hashed when several backends share a region) and proxies them there;
// a backend's answer, a redirect included, is relayed as it is.
// Backends are health-probed at /healthz; a dead backend is evicted
// after -fail-after consecutive failures and traffic fails over along
// the hash order, bounded by -retries extra attempts. With every
// backend of a region down the router answers 503 + Retry-After.
//
// The embedded collector polls every backend's /slo and /metrics each
// -collect-interval and serves merged cluster views on the router's own
// endpoints of the same names — tsgate judges the whole cluster through
// the router with zero changes. The merged /metrics also carries the
// router's own fleet_* counters (and the shield's fleet_shield_*), so one
// scrape covers every tier; the exit summary reads its cdn_* and
// edge_*fill* series.
//
// -shield mounts an origin shield at /fill/ on the router's mux:
// backends started with `tsserve -shield http://<router>` send their
// misses here, where concurrent misses for one object collapse into a
// single origin fetch and peer DCs are probed before the origin pays
// anything (-origin-latency/-origin-bw model the shielded origin). The
// exit summary then reports the cluster's origin egress and how many
// bytes the fill hierarchy saved.
//
// Usage:
//
//	tsrouter -backend europe=http://127.0.0.1:8081 \
//	         -backend north-america,south-america=http://127.0.0.1:8082 \
//	         [-addr :8090] [-retries 1]
//	         [-probe-interval 500ms] [-probe-timeout 2s] [-fail-after 2]
//	         [-collect-interval 1s]
//	         [-shield] [-origin-latency 0] [-origin-bw 0]
//	         [-debug-addr :6060] [-progress] [-manifest run.json]
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"trafficscope/internal/edge"
	"trafficscope/internal/fleet"
	"trafficscope/internal/obs/cliobs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tsrouter:", err)
		os.Exit(1)
	}
}

func run() error {
	var bs []*fleet.Backend
	flag.Func("backend", "backend spec regions=url (repeatable), e.g. europe=http://127.0.0.1:8081", func(spec string) error {
		b, err := fleet.ParseBackendSpec(spec)
		if err == nil {
			bs = append(bs, b)
		}
		return err
	})
	var (
		addr      = flag.String("addr", ":8090", "TCP listen address")
		drain     = flag.Duration("drain", 10*time.Second, "graceful drain budget on shutdown")
		shield    = flag.Bool("shield", false, "mount an origin shield at /fill/ (backends opt in with tsserve -shield)")
		originLat = flag.Duration("origin-latency", 0, "simulated origin round-trip per shielded origin fetch")
		originBW  = flag.Int64("origin-bw", 0, "simulated origin fill bandwidth in bytes/s (0 = infinite)")
	)
	var rc fleet.RouterConfig
	var cc fleet.CollectorConfig
	fleet.AddRouterFlags(flag.CommandLine, &rc, &cc)
	obsFlags := cliobs.AddFlags(flag.CommandLine)
	flag.Parse()

	if len(bs) == 0 {
		return fmt.Errorf("at least one -backend regions=url is required")
	}

	ctx, stop := cliobs.SignalContext()
	defer stop()

	sess, err := obsFlags.Start("tsrouter")
	if err != nil {
		return err
	}
	extra := map[string]any{"addr": *addr, "backends": len(bs), "retries": rc.Retries}
	defer sess.Finish(extra)

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "tsrouter: "+format+"\n", args...)
	}
	rc.Metrics, rc.Logf, cc.Logf = sess.Registry(), logf, logf
	var sc *fleet.ShieldConfig
	if *shield {
		sc = &fleet.ShieldConfig{OriginLatency: *originLat, OriginBandwidth: *originBW, Metrics: sess.Registry(), Logf: logf}
		extra["shield"] = true
	}
	// Routing, the collector's merged /slo and /metrics and the
	// shield live on one mux: clients talk to one address for routing and
	// cluster state alike.
	mux := http.NewServeMux()
	front, err := fleet.NewFront(mux, bs, rc, cc, sc)
	if err != nil {
		return err
	}
	sess.SetProgress(sess.CounterProgress("fleet_requests_total", 0, "requests"))

	serveErr := edge.ListenAndServe(ctx, mux, edge.ListenConfig{
		Addr:         *addr,
		DrainTimeout: *drain,
		OnReady: func(a string) {
			fmt.Fprintf(os.Stderr, "tsrouter: serving on http://%s (%d backends; endpoints: /o/ /healthz /slo /metrics /backends)\n",
				a, len(bs))
		},
	}, nil)
	// Only now that the router has drained does the collector take its
	// last poll: the summary reads totals no in-flight request can move.
	front.Stop()

	if merged, ok := front.Collector.Merged(); ok {
		total, fill := merged.CDN(), merged.Fill()
		extra["requests"] = total.Requests
		extra["hit_ratio"] = total.HitRatio()
		extra["unreachable"] = merged.Unreachable
		if fill.Filled() > 0 {
			extra["origin_fill_bytes"] = fill.OriginFillBytes
			extra["fill_saved_bytes"] = fill.SavedBytes()
		}
		fmt.Fprint(os.Stderr, edge.Summary("tsrouter: cluster", total, fill))
	}
	if front.Shield != nil {
		extra["shield_origin_fetches"] = front.Shield.OriginFetches()
	}
	if serveErr != nil {
		sess.Finish(extra)
		return serveErr
	}
	return sess.Finish(extra)
}
