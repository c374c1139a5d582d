package fleet

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"trafficscope/internal/edge"
	"trafficscope/internal/obs"
	"trafficscope/internal/timeutil"
)

// ParseGroups parses the tscluster -dcs grammar: ';' separates region
// groups (one edge each), ',' co-hosts regions on one edge
// (timeutil.ParseRegions). Blank groups are skipped, a region may appear
// once in the whole spec, and at least one group is required.
func ParseGroups(spec string) ([][]timeutil.Region, error) {
	var groups [][]timeutil.Region
	var seen [timeutil.NumRegions + 1]bool
	for _, group := range strings.Split(spec, ";") {
		if strings.TrimSpace(group) == "" {
			continue
		}
		regions, err := timeutil.ParseRegions(group)
		if err != nil {
			return nil, fmt.Errorf("fleet: region groups %q: %v", spec, err)
		}
		for _, r := range regions {
			if seen[r] {
				return nil, fmt.Errorf("fleet: region groups %q: %s appears twice", spec, r)
			}
			seen[r] = true
		}
		groups = append(groups, regions)
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("fleet: region groups %q: no groups", spec)
	}
	return groups, nil
}

// Front is the fleet's front tier on one mux: the router, the collector's
// merged views and, optionally, the origin shield; its /metrics covers
// all three tiers. tsrouter serves one over the backends it is told
// about, Launch over the edges it hosts.
type Front struct {
	Router    *Router
	Collector *Collector
	Shield    *Shield // nil without a ShieldConfig

	stopPolls context.CancelFunc // ends the router's probes and the collector's loop
	collected chan struct{}      // closed when Collector.Run has returned
}

// NewFront builds the front tier over backends, mounts it on mux and
// starts the router's health probes and the collector's polling loop. A
// nil sc mounts no shield.
func NewFront(mux *http.ServeMux, backends []*Backend, rc RouterConfig, cc CollectorConfig, sc *ShieldConfig) (*Front, error) {
	rc.Backends, cc.Backends = backends, backends
	f := &Front{collected: make(chan struct{})}
	var err error
	if f.Router, err = NewRouter(rc); err != nil {
		return nil, err
	}
	if f.Collector, err = NewCollector(cc); err != nil {
		return nil, err
	}
	f.Router.Register(mux)
	f.Collector.Register(mux)
	f.Collector.local = []*obs.Registry{f.Router.reg}
	if sc != nil {
		shield := *sc
		shield.Backends = backends
		f.Shield = NewShield(shield)
		f.Shield.Register(mux)
		if f.Shield.reg != f.Router.reg {
			f.Collector.local = append(f.Collector.local, f.Shield.reg)
		}
	}
	var polls context.Context
	polls, f.stopPolls = context.WithCancel(context.Background())
	f.Router.Start(polls)
	go func() {
		defer close(f.collected)
		f.Collector.Run(polls)
	}()
	return f, nil
}

// Stop ends the probes and joins the collector, whose last poll runs on
// its way out. Called once the front tier's listener has drained and
// while the backends still answer, it leaves Collector.Merged exact: no
// request is in flight and none is missing.
func (f *Front) Stop() {
	f.stopPolls()
	<-f.collected
}

// LaunchConfig describes a fleet hosted in one process: a Front and one
// edge per region group and replica behind it, every tier on its own
// listener.
type LaunchConfig struct {
	// Groups are the region groups; each gets Replicas edges. Required.
	Groups [][]timeutil.Region
	// Replicas is the number of edges per group (the router splits a
	// group's objects across them by consistent hash); zero means one.
	Replicas int
	// NewEdge builds one edge: the regions it owns, the name its fills
	// carry (its Backend's name, so the shield never probes the requester
	// back) and the shield's base URL, "" when Shield is nil. Required.
	NewEdge func(regions []timeutil.Region, name, shieldURL string) (*edge.Server, error)
	// RouterAddr is the front tier's listen address, the fleet's public
	// one; empty picks a free loopback port. Edges always do.
	RouterAddr string
	// Router, Collector and Shield configure the front tier (NewFront).
	Router    RouterConfig
	Collector CollectorConfig
	Shield    *ShieldConfig
}

// Edge is one launched edge and the Backend the front tier reaches it by.
type Edge struct {
	Backend *Backend
	Server  *edge.Server
	stop    func() error
}

// Fleet is a launched fleet. It serves until Shutdown.
type Fleet struct {
	// URL is the front tier's base URL: point tsload and tsgate here.
	URL   string
	Edges []Edge
	Front *Front

	stop     func() error // the front tier's listener
	shutdown sync.Once
	serveErr error // first tier's serve or drain error, set by Shutdown
}

// Launch starts the fleet cfg describes and returns once every tier
// answers /healthz (ctx bounds only that start-up). The front tier's mux
// is bound first and filled last: its address is the shield URL the edges
// are built with, before the router can know its backends.
func Launch(ctx context.Context, cfg LaunchConfig) (*Fleet, error) {
	f := &Fleet{}
	if err := f.start(ctx, cfg); err != nil {
		f.Shutdown()
		return nil, err
	}
	return f, nil
}

func (f *Fleet) start(ctx context.Context, cfg LaunchConfig) (err error) {
	if cfg.RouterAddr == "" {
		cfg.RouterAddr = "127.0.0.1:0"
	}
	mux := http.NewServeMux()
	if f.URL, f.stop, err = serveTier(cfg.RouterAddr, mux, nil); err != nil {
		return err
	}
	shieldURL := ""
	if cfg.Shield != nil {
		shieldURL = f.URL
	}
	var backends []*Backend
	for _, regions := range cfg.Groups {
		group := strings.Join(timeutil.RegionNames(regions), ",")
		for rep := 0; rep < max(cfg.Replicas, 1); rep++ {
			name := group
			if cfg.Replicas > 1 {
				name += "#" + strconv.Itoa(rep)
			}
			e := Edge{}
			if e.Server, err = cfg.NewEdge(regions, name, shieldURL); err != nil {
				return fmt.Errorf("fleet: edge %s: %w", name, err)
			}
			var url string
			if url, e.stop, err = serveTier("127.0.0.1:0", e.Server.Handler(), e.Server.StartDraining); err != nil {
				return fmt.Errorf("fleet: edge %s: %w", name, err)
			}
			e.Backend = NewBackend(name, url, regions...)
			backends = append(backends, e.Backend)
			f.Edges = append(f.Edges, e)
		}
	}
	if f.Front, err = NewFront(mux, backends, cfg.Router, cfg.Collector, cfg.Shield); err != nil {
		return err
	}
	// The listeners are bound and the handlers mounted, so only a wedged
	// machine gets near the bound.
	ready, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	for _, b := range append([]*Backend{NewBackend("router", f.URL)}, backends...) {
		for !f.Front.Router.probeOnce(ready, b) {
			select {
			case <-ready.Done():
				return fmt.Errorf("fleet: %s not ready: %w", b.Name, ready.Err())
			case <-time.After(20 * time.Millisecond):
			}
		}
	}
	return nil
}

// Shutdown stops the fleet front to back, so the final numbers are
// exact: the router drains, the collector takes its last poll of the
// still-serving edges (Front.Stop), then the edges drain. Afterwards
// Collector.Merged equals the sum of the edges' own counters. It returns
// the first tier's serve or drain error, on every call.
func (f *Fleet) Shutdown() error {
	f.shutdown.Do(func() {
		if f.stop != nil {
			f.serveErr = f.stop()
		}
		if f.Front != nil {
			f.Front.Stop()
		}
		for _, e := range f.Edges {
			if err := e.stop(); f.serveErr == nil {
				f.serveErr = err
			}
		}
	})
	return f.serveErr
}

// serveTier binds addr and serves h there through edge.ListenAndServe
// (its timeouts and drain). It returns the bound base URL and the
// function that drains the tier and reports its serve error.
func serveTier(addr string, h http.Handler, onDrain func()) (url string, stop func() error, err error) {
	ctx, cancel := context.WithCancel(context.Background())
	bound, done := make(chan string, 1), make(chan error, 1)
	go func() {
		done <- edge.ListenAndServe(ctx, h, edge.ListenConfig{
			Addr:    addr,
			OnReady: func(a string) { bound <- a },
		}, onDrain)
	}()
	select {
	case a := <-bound:
		return "http://" + a, func() error { cancel(); return <-done }, nil
	case err := <-done: // the listen failed
		cancel()
		return "", nil, err
	}
}
