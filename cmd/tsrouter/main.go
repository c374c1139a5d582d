// Command tsrouter is the fleet's front tier: it maps object requests
// to the single-DC tsserve backend owning their region (consistent-
// hashed when several backends share a region), proxying by default or
// answering 307 redirects with -redirect. Backends are health-probed at
// /healthz; a dead backend is evicted after -fail-after consecutive
// failures and traffic fails over along the hash order, bounded by
// -retries extra attempts. With every backend of a region down the
// router answers 503 + Retry-After.
//
// The embedded collector polls every backend's /stats, /slo and
// /metrics each -collect-interval and serves merged cluster views on
// the router's own endpoints of the same names — tsgate judges the
// whole cluster through the router with zero changes.
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
//	         [-addr :8090] [-redirect] [-retries 1]
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
	"strings"
	"time"

	"trafficscope/internal/edge"
	"trafficscope/internal/fleet"
	"trafficscope/internal/obs/cliobs"
	"trafficscope/internal/report"
)

// backendFlags collects repeatable -backend values.
type backendFlags []string

func (b *backendFlags) String() string { return strings.Join(*b, " ") }

func (b *backendFlags) Set(v string) error {
	*b = append(*b, v)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tsrouter:", err)
		os.Exit(1)
	}
}

func run() error {
	var backends backendFlags
	flag.Var(&backends, "backend", "backend spec regions=url (repeatable), e.g. europe=http://127.0.0.1:8081")
	var (
		addr          = flag.String("addr", ":8090", "TCP listen address")
		redirect      = flag.Bool("redirect", false, "answer 307 redirects to the owning backend instead of proxying")
		retries       = flag.Int("retries", fleet.DefaultRetries, "extra proxy attempts on transport failure (negative disables)")
		probeInterval = flag.Duration("probe-interval", fleet.DefaultProbeInterval, "backend /healthz probe period")
		probeTimeout  = flag.Duration("probe-timeout", fleet.DefaultProbeTimeout, "single probe request budget")
		failAfter     = flag.Int("fail-after", fleet.DefaultFailAfter, "consecutive failures before a backend is evicted")
		collectEvery  = flag.Duration("collect-interval", fleet.DefaultCollectInterval, "backend stats polling period for the merged cluster views")
		drain         = flag.Duration("drain", 10*time.Second, "graceful drain budget on shutdown")
		shield        = flag.Bool("shield", false, "mount an origin shield at /fill/ (backends opt in with tsserve -shield)")
		originLat     = flag.Duration("origin-latency", 0, "simulated origin round-trip per shielded origin fetch")
		originBW      = flag.Int64("origin-bw", 0, "simulated origin fill bandwidth in bytes/s (0 = infinite)")
	)
	obsFlags := cliobs.AddFlags(flag.CommandLine)
	flag.Parse()

	if len(backends) == 0 {
		return fmt.Errorf("at least one -backend regions=url is required")
	}
	bs := make([]*fleet.Backend, 0, len(backends))
	for _, spec := range backends {
		b, err := fleet.ParseBackendSpec(spec)
		if err != nil {
			return err
		}
		bs = append(bs, b)
	}

	ctx, stop := cliobs.SignalContext()
	defer stop()

	sess, err := obsFlags.Start("tsrouter")
	if err != nil {
		return err
	}
	mode := "proxy"
	if *redirect {
		mode = "redirect"
	}
	extra := map[string]any{
		"addr": *addr, "mode": mode, "backends": len(bs), "retries": *retries,
	}
	defer sess.Finish(extra)

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "tsrouter: "+format+"\n", args...)
	}
	router, err := fleet.NewRouter(fleet.RouterConfig{
		Backends:      bs,
		Redirect:      *redirect,
		Retries:       *retries,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		FailAfter:     *failAfter,
		Metrics:       sess.Registry(),
		Logf:          logf,
	})
	if err != nil {
		return err
	}
	collector, err := fleet.NewCollector(fleet.CollectorConfig{
		Backends: bs,
		Interval: *collectEvery,
		Logf:     logf,
	})
	if err != nil {
		return err
	}
	// The collector's merged /stats, /slo and /metrics live on the
	// router mux: clients talk to one address for routing and cluster
	// state alike. The router's own fleet_* counters are served by the
	// -debug-addr observability server.
	mux := http.NewServeMux()
	router.Register(mux)
	collector.Register(mux)
	var sh *fleet.Shield
	if *shield {
		sh = fleet.NewShield(fleet.ShieldConfig{
			Backends:        bs,
			OriginLatency:   *originLat,
			OriginBandwidth: *originBW,
			Metrics:         sess.Registry(),
			Logf:            logf,
		})
		sh.Register(mux)
		extra["shield"] = true
	}

	router.Start(ctx)
	go collector.Run(ctx)
	sess.SetProgress(sess.CounterProgress("fleet_requests_total", 0, "requests"))

	serveErr := edge.ListenAndServe(ctx, mux, edge.ListenConfig{
		Addr:         *addr,
		DrainTimeout: *drain,
		OnReady: func(a string) {
			fmt.Fprintf(os.Stderr, "tsrouter: serving on http://%s (%s mode, %d backends; endpoints: /o/ /stats /healthz /slo /metrics /backends)\n",
				a, mode, len(bs))
		},
	}, nil)

	if stats, ok := collector.Stats(); ok {
		extra["requests"] = stats.Total.Requests
		extra["hit_ratio"] = stats.HitRatio
		extra["unreachable"] = stats.Unreachable
		fmt.Fprintf(os.Stderr, "tsrouter: cluster served %d requests, hit ratio %.1f%%\n",
			stats.Total.Requests, 100*stats.HitRatio)
		if fill := stats.Fill; fill.PeerFills+fill.OriginFills+fill.DedupFills > 0 {
			extra["origin_fill_bytes"] = fill.OriginFillBytes
			extra["fill_saved_bytes"] = fill.SavedBytes()
			fmt.Fprintf(os.Stderr, "tsrouter: fills: %d peer, %d origin, %d deduped; origin egress %s, saved %s\n",
				fill.PeerFills, fill.OriginFills, fill.DedupFills,
				report.Bytes(fill.OriginFillBytes), report.Bytes(fill.SavedBytes()))
		}
	}
	if sh != nil {
		extra["shield_origin_fetches"] = sh.OriginFetches()
	}
	if serveErr != nil {
		sess.Finish(extra)
		return serveErr
	}
	return sess.Finish(extra)
}
