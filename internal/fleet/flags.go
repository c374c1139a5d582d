package fleet

import "flag"

// AddRouterFlags registers the front tier's model flags on fs — how the
// router routes and probes (into rc) and how often the collector polls
// (into cc) — as opposed to where it runs and what it fronts (-addr,
// -backend, -shield and the shielded origin's model stay tsrouter's own).
// tsrouter and tscluster both call it, so every name, default and usage
// string is declared once.
func AddRouterFlags(fs *flag.FlagSet, rc *RouterConfig, cc *CollectorConfig) {
	fs.IntVar(&rc.Retries, "retries", DefaultRetries, "extra proxy attempts on transport failure (negative disables)")
	fs.DurationVar(&rc.ProbeInterval, "probe-interval", DefaultProbeInterval, "backend /healthz probe period")
	fs.DurationVar(&rc.ProbeTimeout, "probe-timeout", DefaultProbeTimeout, "single probe request budget")
	fs.IntVar(&rc.FailAfter, "fail-after", DefaultFailAfter, "consecutive failures before a backend is evicted")
	fs.DurationVar(&cc.Interval, "collect-interval", DefaultCollectInterval, "backend stats polling period for the merged cluster views")
}
