// Command tscluster spawns a whole serving fleet on one machine: one
// DC-scoped tsserve backend per -dcs group (times -replicas) on
// ephemeral ports, plus a tsrouter front tier wired to all of them. It
// scrapes each child's bound address from its readiness line, waits for
// /healthz, prefixes child logs ("[europe] ...", "[router] ..."), and
// fans SIGINT out for a graceful cluster-wide drain. Point tsload and
// tsgate at the router address and the fleet behaves like one tsserve.
//
// Usage:
//
//	tscluster [-router-addr 127.0.0.1:8090]
//	          [-dcs 'north-america,south-america;europe;asia']
//	          [-replicas 1] [-redirect] [-shield]
//	          [-ready-timeout 15s] [-shutdown-timeout 15s]
//	          [-tsserve-bin path] [-tsrouter-bin path]
//	          forwarded to every tsserve when set:
//	          [-policy p] [-capacity bytes] [-shards n] [-chunk bytes]
//	          [-origin-latency d] [-origin-bw bytes/s] [-max-body bytes]
//	          [-max-inflight n] [-slo-policy <file>] [-drain-grace d]
//	          forwarded to tsrouter when set:
//	          [-retries n] [-probe-interval d] [-fail-after n]
//	          [-collect-interval d]
//
// -dcs groups regions into backend processes: ';' separates processes,
// ',' co-hosts regions on one process. The default runs four single-DC
// backends. -replicas > 1 starts several backends per group; the router
// splits each group's objects across them by consistent hash.
//
// -shield routes every backend's miss through an origin shield on the
// router (tsrouter -shield): concurrent misses for one object collapse
// into a single origin fetch and peer DCs are probed before the origin.
// The router address is fixed up front, so backends can point at the
// shield before the router exists. -origin-latency and -origin-bw then
// also describe the origin the shield fronts.
//
// The forwarded flags are passed on only when given, so tsserve and
// tsrouter hold their only defaults (see their -h).
//
// Child binaries default to tsserve/tsrouter next to the tscluster
// executable, then $PATH.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"trafficscope/internal/fleet"
	"trafficscope/internal/obs/cliobs"
	"trafficscope/internal/timeutil"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tscluster:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		routerAddr      = flag.String("router-addr", "127.0.0.1:8090", "tsrouter listen address (the cluster's public address)")
		dcs             = flag.String("dcs", "north-america;south-america;europe;asia", "region groups, one backend process per ';'-separated group, ','-separated regions co-hosted")
		replicas        = flag.Int("replicas", 1, "backend processes per group (objects split by consistent hash)")
		redirect        = flag.Bool("redirect", false, "router answers 307 redirects instead of proxying")
		shield          = flag.Bool("shield", false, "route backend misses through an origin shield on the router (dedupe + peer fill)")
		readyTimeout    = flag.Duration("ready-timeout", fleet.DefaultReadyTimeout, "per-child readiness budget")
		shutdownTimeout = flag.Duration("shutdown-timeout", fleet.DefaultShutdownTimeout, "graceful drain budget before children are killed")
		tsserveBin      = flag.String("tsserve-bin", "", "tsserve binary (default: next to tscluster, then $PATH)")
		tsrouterBin     = flag.String("tsrouter-bin", "", "tsrouter binary (default: next to tscluster, then $PATH)")
	)
	// Forwarded flags are declared only so that flag.Parse accepts and
	// type-checks them: the zero defaults are never passed on.
	const toServe, toRouter = " (forwarded to every tsserve when set)", " (forwarded to tsrouter when set)"
	flag.String("policy", "", "per-DC eviction policy"+toServe)
	flag.Int64("capacity", 0, "per-datacenter cache capacity in bytes"+toServe)
	flag.Int("shards", 0, "consistent-hash shards per DC cache"+toServe)
	flag.Int64("chunk", 0, "video chunk size in bytes, negative disables chunking"+toServe)
	flag.Duration("origin-latency", 0, "simulated origin round-trip on miss"+toServe+"; with -shield, also the shield's origin")
	flag.Int64("origin-bw", 0, "simulated origin bandwidth in bytes/s"+toServe+"; with -shield, also the shield's origin")
	flag.Int64("max-body", 0, "max on-wire body bytes per response"+toServe)
	flag.Int("max-inflight", 0, "per-backend max concurrently served requests"+toServe)
	flag.String("slo-policy", "", "SLO policy file"+toServe)
	flag.Duration("drain-grace", 0, "backend drain grace window"+toServe)
	flag.Int("retries", 0, "retry budget on transport failure"+toRouter)
	flag.Duration("probe-interval", 0, "backend probe period"+toRouter)
	flag.Int("fail-after", 0, "consecutive failures before backend eviction"+toRouter)
	flag.Duration("collect-interval", 0, "collector polling period"+toRouter)
	flag.Parse()

	groups, err := parseGroups(*dcs)
	if err != nil {
		return err
	}
	if *replicas < 1 {
		return fmt.Errorf("-replicas must be >= 1")
	}

	ctx, stop := cliobs.SignalContext()
	defer stop()

	cluster := fleet.NewCluster(fleet.ClusterConfig{
		ReadyTimeout:    *readyTimeout,
		ShutdownTimeout: *shutdownTimeout,
	})

	serveBin := findBin(*tsserveBin, "tsserve")
	routerBin := findBin(*tsrouterBin, "tsrouter")

	// Only the flags the user set travel on, as -name=value, so a child's
	// own default applies to everything else. The origin model is the
	// backends' and, with -shield, the shield's too.
	var serveArgs, routerArgs []string
	flag.Visit(func(f *flag.Flag) {
		arg := "-" + f.Name + "=" + f.Value.String()
		switch f.Name {
		case "policy", "capacity", "shards", "chunk", "max-body", "max-inflight", "slo-policy", "drain-grace":
			serveArgs = append(serveArgs, arg)
		case "origin-latency", "origin-bw":
			serveArgs = append(serveArgs, arg)
			if *shield {
				routerArgs = append(routerArgs, arg)
			}
		case "retries", "probe-interval", "fail-after", "collect-interval":
			routerArgs = append(routerArgs, arg)
		}
	})

	// Backends first: each announces its ephemeral port, then must
	// answer /healthz before the router is wired to it.
	type started struct {
		group string
		proc  *fleet.Proc
	}
	var backends []started
	for _, group := range groups {
		for rep := 0; rep < *replicas; rep++ {
			name := group
			if *replicas > 1 {
				name = group + "#" + strconv.Itoa(rep)
			}
			args := []string{
				"-addr", "127.0.0.1:0",
				"-dc", group,
				// The fill name must match the router-side backend name
				// (derived from the group) so the shield skips the requester.
				"-name", group,
			}
			if *shield {
				args = append(args, "-shield", "http://"+*routerAddr)
			}
			p, err := cluster.Start(name, serveBin, append(args, serveArgs...)...)
			if err != nil {
				cluster.Shutdown()
				return fmt.Errorf("starting backend %s: %w", name, err)
			}
			backends = append(backends, started{group: group, proc: p})
		}
	}
	routerArgs = append(routerArgs, "-addr", *routerAddr)
	for _, b := range backends {
		addr, err := cluster.Addr(ctx, b.proc)
		if err != nil {
			cluster.Shutdown()
			return err
		}
		if err := cluster.WaitHealthy(ctx, addr); err != nil {
			cluster.Shutdown()
			return err
		}
		routerArgs = append(routerArgs, "-backend", b.group+"=http://"+addr)
	}
	if *redirect {
		routerArgs = append(routerArgs, "-redirect")
	}
	if *shield {
		routerArgs = append(routerArgs, "-shield")
	}
	router, err := cluster.Start("router", routerBin, routerArgs...)
	if err != nil {
		cluster.Shutdown()
		return fmt.Errorf("starting router: %w", err)
	}
	addr, err := cluster.Addr(ctx, router)
	if err != nil {
		cluster.Shutdown()
		return err
	}
	if err := cluster.WaitHealthy(ctx, addr); err != nil {
		cluster.Shutdown()
		return err
	}
	fill := ""
	if *shield {
		fill = ", origin shield"
	}
	fmt.Fprintf(os.Stderr, "tscluster: cluster ready on http://%s (%d backends, %d region groups%s)\n",
		addr, len(backends), len(groups), fill)

	// Supervise: come down on SIGINT/SIGTERM or when any child dies
	// (a degraded topology should fail loudly, not limp).
	name, exitErr := cluster.WaitAny(ctx)
	shutdownErr := cluster.Shutdown()
	if ctx.Err() == nil {
		if exitErr != nil {
			return fmt.Errorf("child %s exited: %w", name, exitErr)
		}
		return fmt.Errorf("child %s exited unexpectedly", name)
	}
	fmt.Fprintln(os.Stderr, "tscluster: cluster stopped")
	return shutdownErr
}

// parseGroups validates the -dcs grammar and returns the per-process
// region groups (still in flag syntax — tsserve re-parses its -dc).
func parseGroups(spec string) ([]string, error) {
	var groups []string
	seen := map[timeutil.Region]string{}
	for _, group := range strings.Split(spec, ";") {
		group = strings.TrimSpace(group)
		if group == "" {
			continue
		}
		for _, part := range strings.Split(group, ",") {
			r, err := timeutil.ParseRegion(strings.TrimSpace(part))
			if err != nil {
				return nil, fmt.Errorf("bad -dcs: %v", err)
			}
			if prev, dup := seen[r]; dup {
				return nil, fmt.Errorf("bad -dcs: region %s appears in groups %q and %q", r, prev, group)
			}
			seen[r] = group
		}
		groups = append(groups, group)
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("bad -dcs: no region groups")
	}
	return groups, nil
}

// findBin resolves a child binary: explicit flag, then a sibling of the
// tscluster executable, then $PATH.
func findBin(flagVal, name string) string {
	if flagVal != "" {
		return flagVal
	}
	if exe, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(exe), name)
		if st, err := os.Stat(cand); err == nil && !st.IsDir() {
			return cand
		}
	}
	return name
}
