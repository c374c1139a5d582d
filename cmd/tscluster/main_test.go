package main

import (
	"context"
	"flag"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"trafficscope/internal/edge"
	"trafficscope/internal/fleet"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// parse runs args through tscluster's flag set.
func parse(t *testing.T, args ...string) *options {
	t.Helper()
	fs := flag.NewFlagSet("tscluster", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := addFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return o
}

// TestLaunchConfigMapping pins flags -> fleet.LaunchConfig: with nothing
// set every value is the default tsserve and tsrouter declare themselves,
// and each flag lands in the one config field it names.
func TestLaunchConfigMapping(t *testing.T) {
	for _, c := range []struct {
		name  string
		args  []string
		check func(t *testing.T, o *options, cfg fleet.LaunchConfig)
	}{
		{"defaults", nil, func(t *testing.T, o *options, cfg fleet.LaunchConfig) {
			if len(cfg.Groups) != timeutil.NumRegions || cfg.Replicas != 1 || cfg.RouterAddr != "127.0.0.1:8090" || cfg.Shield != nil {
				t.Errorf("topology = %d groups, %d replicas, %q, shield %v", len(cfg.Groups), cfg.Replicas, cfg.RouterAddr, cfg.Shield)
			}
			r, col := cfg.Router, cfg.Collector
			if r.Retries != fleet.DefaultRetries || r.ProbeInterval != fleet.DefaultProbeInterval ||
				r.ProbeTimeout != fleet.DefaultProbeTimeout || r.FailAfter != fleet.DefaultFailAfter ||
				col.Interval != fleet.DefaultCollectInterval {
				t.Errorf("front tier = %+v, %+v; want tsrouter's defaults", r, col)
			}
			want := edge.Flags{Capacity: 1 << 30, ChunkBytes: 2 << 20, TraceSample: 1,
				Config: edge.Config{MaxBodyBytes: edge.DefaultMaxBodyBytes, FillTimeout: edge.DefaultFillTimeout}}
			if !reflect.DeepEqual(*o.edge, want) {
				t.Errorf("edge model = %+v, want tsserve's defaults %+v", *o.edge, want)
			}
		}},
		{"topology", []string{"-dcs", "north-america,south-america;europe;asia", "-replicas", "2", "-router-addr", "127.0.0.1:0"},
			func(t *testing.T, _ *options, cfg fleet.LaunchConfig) {
				if len(cfg.Groups) != 3 || len(cfg.Groups[0]) != 2 || cfg.Replicas != 2 || cfg.RouterAddr != "127.0.0.1:0" {
					t.Errorf("topology = %v x%d on %q", cfg.Groups, cfg.Replicas, cfg.RouterAddr)
				}
			}},
		{"router model", []string{"-retries", "3", "-probe-interval", "50ms", "-probe-timeout", "70ms", "-fail-after", "5", "-collect-interval", "90ms"},
			func(t *testing.T, _ *options, cfg fleet.LaunchConfig) {
				r := cfg.Router
				if r.Retries != 3 || r.ProbeInterval != 50*time.Millisecond || r.ProbeTimeout != 70*time.Millisecond ||
					r.FailAfter != 5 || cfg.Collector.Interval != 90*time.Millisecond {
					t.Errorf("front tier = %+v, %+v", r, cfg.Collector)
				}
			}},
		{"shield fronts the edges' origin", []string{"-shield", "-origin-latency", "7ms", "-origin-bw", "1000000"},
			func(t *testing.T, o *options, cfg fleet.LaunchConfig) {
				if cfg.Shield == nil || cfg.Shield.OriginLatency != 7*time.Millisecond || cfg.Shield.OriginBandwidth != 1000000 {
					t.Fatalf("shield = %+v, want the edges' origin model", cfg.Shield)
				}
				if o.edge.OriginLatency != 7*time.Millisecond || o.edge.OriginBandwidth != 1000000 {
					t.Errorf("edge origin model = %v, %d", o.edge.OriginLatency, o.edge.OriginBandwidth)
				}
			}},
		{"origin model without shield stays on the edges", []string{"-origin-latency", "7ms"},
			func(t *testing.T, _ *options, cfg fleet.LaunchConfig) {
				if cfg.Shield != nil {
					t.Errorf("shield = %+v without -shield", cfg.Shield)
				}
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			o := parse(t, c.args...)
			cfg, err := o.launchConfig()
			if err != nil {
				t.Fatal(err)
			}
			c.check(t, o, cfg)
		})
	}

	for _, bad := range [][]string{{"-dcs", "europe;europe"}, {"-dcs", ";"}, {"-dcs", "mars"}, {"-replicas", "0"}} {
		if _, err := parse(t, bad...).launchConfig(); err == nil {
			t.Errorf("launchConfig(%v) succeeded, want error", bad)
		}
	}
}

// TestShieldPointsEveryEdgeAtTheRouter launches what `tscluster -shield`
// describes: every edge is built with the front tier's URL as its shield,
// and a miss sent through the router is filled by the shield there.
func TestShieldPointsEveryEdgeAtTheRouter(t *testing.T) {
	o := parse(t, "-shield", "-router-addr", "127.0.0.1:0", "-dcs", "north-america,south-america;europe;asia")
	cfg, err := o.launchConfig()
	if err != nil {
		t.Fatal(err)
	}
	var shieldURLs []string
	newEdge := cfg.NewEdge
	cfg.NewEdge = func(regions []timeutil.Region, name, shieldURL string) (*edge.Server, error) {
		shieldURLs = append(shieldURLs, shieldURL)
		return newEdge(regions, name, shieldURL)
	}
	f, err := fleet.Launch(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	if len(shieldURLs) != 3 {
		t.Fatalf("built %d edges, want 3", len(shieldURLs))
	}
	for i, u := range shieldURLs {
		if u != f.URL || !strings.HasPrefix(u, "http://127.0.0.1:") {
			t.Errorf("edge %d shield URL %q, want the router %q", i, u, f.URL)
		}
	}

	rec := &trace.Record{
		Timestamp: time.Date(2016, 4, 12, 9, 30, 0, 0, time.UTC), Publisher: "V-1", ObjectID: 7, FileType: "mp4",
		ObjectSize: 1 << 20, BytesServed: 1 << 20, UserID: 1, Region: timeutil.RegionEurope,
	}
	resp, err := http.Get(f.URL + edge.RequestPath(rec))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(fleet.HeaderBackend) != "europe" {
		t.Fatalf("GET through the router: status %d from backend %q", resp.StatusCode, resp.Header.Get(fleet.HeaderBackend))
	}
	// FillErrors counts every miss the shield did not answer.
	if fs := f.Edges[1].Server.FillStats(); fs.OriginFills != 1 || fs.FillErrors != 0 {
		t.Errorf("europe's fills: %d origin, %d errors; want one origin fill answered by the shield", fs.OriginFills, fs.FillErrors)
	}
}

// TestClusterMetricsCoverEveryTier runs tscluster's own wiring: edges
// from edge.Flags.NewServer without a registry and a shield without one.
// Every tier still counts, and the router's /metrics carries them all.
func TestClusterMetricsCoverEveryTier(t *testing.T) {
	o := parse(t, "-shield", "-router-addr", "127.0.0.1:0", "-dcs", "north-america,south-america;europe;asia")
	cfg, err := o.launchConfig()
	if err != nil {
		t.Fatal(err)
	}
	f, err := fleet.Launch(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()

	// Three first requests fill from the origin; object 1 asked again
	// from Asia fills from Europe's edge.
	for i, r := range []struct {
		obj    uint64
		region timeutil.Region
	}{{1, timeutil.RegionEurope}, {2, timeutil.RegionAsia}, {3, timeutil.RegionNorthAmerica}, {1, timeutil.RegionAsia}} {
		rec := &trace.Record{
			Timestamp: time.Date(2016, 4, 12, 9, 30, i, 0, time.UTC), Publisher: "P-1", ObjectID: r.obj, FileType: "jpg",
			ObjectSize: 1000, BytesServed: 1000, UserID: uint64(10 + i), Region: r.region,
		}
		resp, err := http.Get(f.URL + edge.RequestPath(rec))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}

	var originFills int64
	for _, e := range f.Edges {
		originFills += e.Server.FillStats().OriginFills
	}
	if got := f.Front.Shield.OriginFetches(); got != originFills || got != 3 {
		t.Errorf("shield origin fetches = %d, edges' origin fills = %d; want 3 each", got, originFills)
	}

	f.Front.Collector.PollOnce(context.Background())
	resp, err := http.Get(f.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{"edge_requests_total 4\n", `cdn_requests_total{dc="asia"} 2` + "\n", "fleet_shield_requests_total 4\n"} {
		if !strings.Contains(string(page), series) {
			t.Errorf("router /metrics lacks %q:\n%s", series, page)
		}
	}
}
