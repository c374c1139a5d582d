// Command tscluster hosts a whole serving fleet in one process: one
// DC-scoped edge per -dcs group (times -replicas) on ephemeral loopback
// ports and the front tier — router, collector, optional origin shield —
// on -router-addr, every tier behind its own listener exactly as tsserve
// and tsrouter serve it (fleet.Launch). Point tsload and tsgate at the
// router address and the fleet behaves like one tsserve. SIGINT drains
// front to back (router, a last collector poll, then the edges), so the
// exit summary's cluster totals equal the sum of the edges' lines.
//
// Usage:
//
//	tscluster [-router-addr 127.0.0.1:8090]
//	          [-dcs 'north-america,south-america;europe;asia']
//	          [-replicas 1] [-shield]
//	          [every tsserve model flag: -capacity -chunk ...]
//	          [every tsrouter model flag: -retries -fail-after ...]
//
// -dcs groups regions into edges: ';' separates edges, ',' co-hosts
// regions on one. The default runs four single-DC edges. -replicas > 1
// starts several edges per group; the router splits each group's objects
// across them by consistent hash.
//
// -shield routes every edge's miss through an origin shield on the
// router: concurrent misses for one object collapse into a single origin
// fetch and peer DCs are probed before the origin. -origin-latency and
// -origin-bw then also describe the origin the shield fronts.
//
// The router's /metrics is the fleet's one metrics page: every edge's
// edge_* and cdn_*{dc} series summed, and the router's fleet_* and the
// shield's fleet_shield_* counters; its /slo is the cluster's report.
// The cluster line of the exit summary is read from it.
//
// The model flags are the ones tsserve and tsrouter declare (edge.AddFlags,
// fleet.AddRouterFlags), with their defaults; see those tools' -h. To run
// the tiers as separate processes, start tsserve -dc and tsrouter -backend
// by hand.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"trafficscope/internal/edge"
	"trafficscope/internal/fleet"
	"trafficscope/internal/obs/cliobs"
	"trafficscope/internal/timeutil"
)

func main() {
	opts := addFlags(flag.CommandLine)
	flag.Parse()
	ctx, stop := cliobs.SignalContext()
	defer stop()
	if err := run(ctx, opts); err != nil {
		fmt.Fprintln(os.Stderr, "tscluster:", err)
		os.Exit(1)
	}
}

// options are tscluster's flags: the topology, which is its own, and the
// two model flag sets it shares with tsserve (edge) and tsrouter (bound
// straight into cfg.Router and cfg.Collector).
type options struct {
	cfg    fleet.LaunchConfig
	dcs    string
	shield bool
	edge   *edge.Flags
}

func addFlags(fs *flag.FlagSet) *options {
	o := &options{edge: edge.AddFlags(fs)}
	fleet.AddRouterFlags(fs, &o.cfg.Router, &o.cfg.Collector)
	fs.StringVar(&o.cfg.RouterAddr, "router-addr", "127.0.0.1:8090", "front tier listen address (the cluster's public address)")
	fs.StringVar(&o.dcs, "dcs", "north-america;south-america;europe;asia", "region groups, one edge per ';'-separated group, ','-separated regions co-hosted")
	fs.IntVar(&o.cfg.Replicas, "replicas", 1, "edges per group (objects split by consistent hash)")
	fs.BoolVar(&o.shield, "shield", false, "route edge misses through an origin shield on the router (dedupe + peer fill)")
	return o
}

// launchConfig completes the fleet the parsed flags describe.
func (o *options) launchConfig() (fleet.LaunchConfig, error) {
	cfg := o.cfg
	var err error
	if cfg.Groups, err = fleet.ParseGroups(o.dcs); err != nil {
		return cfg, fmt.Errorf("bad -dcs: %v", err)
	}
	if cfg.Replicas < 1 {
		return cfg, fmt.Errorf("-replicas must be >= 1")
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "tscluster: "+format+"\n", args...)
	}
	cfg.Router.Logf, cfg.Collector.Logf = logf, logf
	cfg.NewEdge = func(regions []timeutil.Region, name, shieldURL string) (*edge.Server, error) {
		return o.edge.NewServer(regions, name, shieldURL, nil)
	}
	if o.shield {
		// The shield fronts the same origin the edges model.
		cfg.Shield = &fleet.ShieldConfig{OriginLatency: o.edge.OriginLatency, OriginBandwidth: o.edge.OriginBandwidth, Logf: logf}
	}
	return cfg, nil
}

func run(ctx context.Context, o *options) error {
	cfg, err := o.launchConfig()
	if err != nil {
		return err
	}
	f, err := fleet.Launch(ctx, cfg)
	if err != nil {
		return err
	}
	fill := ""
	if o.shield {
		fill = ", origin shield"
	}
	fmt.Fprintf(os.Stderr, "tscluster: cluster ready on %s (%d edges, %d region groups%s; endpoints: /o/ /healthz /slo /metrics /backends)\n",
		f.URL, len(f.Edges), len(cfg.Groups), fill)

	<-ctx.Done()
	err = f.Shutdown()
	for _, e := range f.Edges {
		fmt.Fprint(os.Stderr, edge.Summary("tscluster: edge "+e.Backend.Name, e.Server.TotalStats(), e.Server.FillStats()))
	}
	merged, _ := f.Front.Collector.Merged()
	fmt.Fprint(os.Stderr, edge.Summary("tscluster: cluster", merged.CDN(), merged.Fill()))
	return err
}
