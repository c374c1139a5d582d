package edge

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"trafficscope/internal/cdn"
	"trafficscope/internal/obs"
	"trafficscope/internal/obs/slo"
	"trafficscope/internal/timeutil"
)

// Flags are the edge's model flags: what an edge is — LRU cache size,
// publisher partitions, origin model, body and shed limits, SLO
// objectives, trace ring — as opposed to where it runs (-addr, -dc,
// -name, -shield and the listener timeouts stay tsserve's own). tsserve
// and tscluster both register them through AddFlags, so every name,
// default and usage string is declared once. The flags that are Config fields as they stand
// (origin model, body and shed limits, fill timeout) land in the embedded
// Config; NewServer derives the rest of it.
type Flags struct {
	Config
	Capacity        int64
	PublisherCaches string
	ChunkBytes      int64
	SLOPolicy       string
	TraceBuffer     int
	TraceSample     int
}

// AddFlags registers the edge model flags on fs and returns their
// destination, valid after fs.Parse.
func AddFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.Int64Var(&f.Capacity, "capacity", 1<<30, "per-datacenter LRU cache capacity in bytes")
	fs.StringVar(&f.PublisherCaches, "publisher-caches", "", "dedicated per-publisher partitions, e.g. V-1=268435456,P-1=134217728")
	fs.Int64Var(&f.ChunkBytes, "chunk", 2<<20, "video chunk size in bytes (negative disables chunking)")
	fs.DurationVar(&f.OriginLatency, "origin-latency", 0, "simulated origin round-trip added to every miss")
	fs.Int64Var(&f.OriginBandwidth, "origin-bw", 0, "simulated origin fill bandwidth in bytes/s (0 = infinite)")
	fs.Int64Var(&f.MaxBodyBytes, "max-body", DefaultMaxBodyBytes, "max on-wire body bytes per response (logical size travels in X-TS-Bytes; negative = no body)")
	fs.IntVar(&f.MaxInflight, "max-inflight", 0, "max concurrently served requests; excess get 503 (0 = unlimited)")
	fs.StringVar(&f.SLOPolicy, "slo-policy", "", "SLO policy (file path or inline) with objectives to evaluate live")
	fs.IntVar(&f.TraceBuffer, "trace-buffer", 0, "per-request trace-event ring size for /debug/trace (0 = disabled)")
	fs.IntVar(&f.TraceSample, "trace-sample", 1, "trace every Nth request when the ring is enabled")
	fs.DurationVar(&f.FillTimeout, "fill-timeout", DefaultFillTimeout, "budget for one shield fill attempt")
	return f
}

// NewServer builds the edge the flags describe at the placement the
// caller gives it: the regions it owns (none = every region), the name
// its fill requests carry, the shield its misses go through ("" = the
// flat origin model) and the registry the edge and its CDN model count
// into (nil = one of their own, which /metrics renders all the same).
func (f *Flags) NewServer(regions []timeutil.Region, name, shieldURL string, metrics *obs.Registry) (*Server, error) {
	if f.Capacity <= 0 {
		return nil, fmt.Errorf("-capacity must be positive, got %d", f.Capacity)
	}
	pubFactories, err := parsePublisherCaches(f.PublisherCaches)
	if err != nil {
		return nil, err
	}
	// The SLO engine always runs (its windows are read from the series
	// the edge records anyway, once per interval); -slo-policy supplies
	// the objectives that can actually breach.
	policy := slo.Policy{}
	if f.SLOPolicy != "" {
		if policy, err = slo.LoadPolicy(f.SLOPolicy); err != nil {
			return nil, err
		}
	}
	// An objective scoped to a name that is no region would judge
	// windows nothing records into, compliant forever. A region this
	// edge does not own is a scope of a fleet-wide policy: it loads.
	for _, o := range policy.Objectives {
		if _, err := timeutil.ParseRegion(o.Scope); o.Scope != "" && err != nil {
			return nil, fmt.Errorf("-slo-policy: %s objective scoped to %q, which names no region", o.Name(), o.Scope)
		}
	}
	// Every owned region is a scope so per-DC objectives are evaluable; a
	// cluster collector merges the scoped edges' reports into one view.
	owned := regions
	if len(owned) == 0 {
		owned = timeutil.AllRegions()
	}
	if metrics == nil {
		metrics = obs.NewRegistry()
	}
	cfg := f.Config
	cfg.Regions, cfg.Name, cfg.ShieldURL, cfg.Metrics = regions, name, shieldURL, metrics
	cfg.CDN = cdn.New(cdn.Config{
		NewCache:        lru(f.Capacity),
		ChunkBytes:      f.ChunkBytes,
		PublisherCaches: pubFactories,
		Metrics:         metrics,
	})
	cfg.SLO = slo.NewEngine(policy, timeutil.RegionNames(owned)...)
	cfg.Trace = NewTraceRing(f.TraceBuffer, f.TraceSample)
	return New(cfg)
}

// lru builds a data center's LRU, or one publisher's partition of it.
func lru(capacity int64) func() cdn.Cache {
	return func() cdn.Cache { return cdn.NewLRU(capacity) }
}

// parsePublisherCaches parses "site=bytes,site=bytes" into dedicated LRU
// partitions. A site may be named once, and every size is positive: a
// partition that holds nothing would serve its publisher only misses.
func parsePublisherCaches(spec string) (map[string]func() cdn.Cache, error) {
	if spec == "" {
		return nil, nil
	}
	out := map[string]func() cdn.Cache{}
	for _, part := range strings.Split(spec, ",") {
		site, sizeStr, ok := strings.Cut(part, "=")
		site, sizeStr = strings.TrimSpace(site), strings.TrimSpace(sizeStr)
		if !ok || site == "" {
			return nil, fmt.Errorf("bad -publisher-caches entry %q (want site=bytes)", part)
		}
		if out[site] != nil {
			return nil, fmt.Errorf("bad -publisher-caches: site %q appears twice", site)
		}
		size, err := strconv.ParseInt(sizeStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -publisher-caches size %q: %v", sizeStr, err)
		}
		if size <= 0 {
			return nil, fmt.Errorf("bad -publisher-caches size %d for %q: must be positive", size, site)
		}
		out[site] = lru(size)
	}
	return out, nil
}
