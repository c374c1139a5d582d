// Package fleet is the distributed serving tier: it turns N single-DC
// tsserve processes into one logical CDN cluster. A Router maps object
// requests to the backend owning their region (consistent-hashed when a
// region has several backends) and proxies them there, with
// /healthz-driven failover; a Collector polls every backend's /slo and
// /metrics and serves merged cluster views on the same endpoints so
// tsgate and dashboards see one server. Launch
// hosts the whole topology in one process, every tier on its own
// listener, for tscluster and the e2e tests.
//
// This is process topology, not statistics — the statistical clustering
// of user sessions lives in internal/cluster.
package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"trafficscope/internal/timeutil"
)

// Backend is one tsserve process as the router sees it: a base URL, the
// regions it owns, and live health state driven by probes and by
// request-path outcomes.
type Backend struct {
	// Name identifies the backend in logs, /backends and X-TS-Backend.
	Name string
	// URL is the backend's base URL ("http://127.0.0.1:8081"), no
	// trailing slash.
	URL string
	// Regions are the DCs this backend owns (matches its tsserve -dc).
	Regions []timeutil.Region

	// healthy is 1 when the backend is eligible for traffic. Backends
	// start healthy; FailAfter consecutive failures (probe or proxy)
	// evict, one success restores.
	healthy     atomic.Bool
	consecFails atomic.Int64
	// probes/failures count health-relevant observations for /backends.
	probes   atomic.Int64
	failures atomic.Int64
}

// Healthy reports whether the backend is currently eligible for traffic.
func (b *Backend) Healthy() bool { return b.healthy.Load() }

// noteSuccess records a healthy observation; returns true when it
// restored an evicted backend.
func (b *Backend) noteSuccess() (recovered bool) {
	b.probes.Add(1)
	b.consecFails.Store(0)
	return b.healthy.CompareAndSwap(false, true)
}

// noteFailure records an unhealthy observation; after failAfter
// consecutive failures the backend is evicted. Returns true when this
// observation flipped it unhealthy.
func (b *Backend) noteFailure(failAfter int) (evicted bool) {
	b.probes.Add(1)
	b.failures.Add(1)
	if b.consecFails.Add(1) >= int64(failAfter) {
		return b.healthy.CompareAndSwap(true, false)
	}
	return false
}

// BackendStatus is one backend's row in the router's /backends document.
type BackendStatus struct {
	Name     string   `json:"name"`
	URL      string   `json:"url"`
	Regions  []string `json:"regions"`
	Healthy  bool     `json:"healthy"`
	Probes   int64    `json:"probes"`
	Failures int64    `json:"failures"`
}

// Status snapshots the backend's health for /backends.
func (b *Backend) Status() BackendStatus {
	return BackendStatus{
		Name:     b.Name,
		URL:      b.URL,
		Regions:  timeutil.RegionNames(b.Regions),
		Healthy:  b.healthy.Load(),
		Probes:   b.probes.Load(),
		Failures: b.failures.Load(),
	}
}

// ParseBackendSpec parses a "regions=url" backend flag value, e.g.
// "europe=http://127.0.0.1:8081" or
// "north-america,south-america=http://127.0.0.1:8082". The backend name
// is derived from the region list. The URL must name a host once its
// trailing slashes are trimmed ("http://" alone trims to "http:").
func ParseBackendSpec(spec string) (*Backend, error) {
	regionsStr, rawURL, ok := strings.Cut(spec, "=")
	if !ok || regionsStr == "" || rawURL == "" {
		return nil, fmt.Errorf("fleet: bad backend spec %q (want regions=url)", spec)
	}
	if !strings.HasPrefix(rawURL, "http://") && !strings.HasPrefix(rawURL, "https://") {
		return nil, fmt.Errorf("fleet: backend url %q must start with http:// or https://", rawURL)
	}
	if u, err := url.Parse(strings.TrimRight(rawURL, "/")); err != nil || u.Host == "" {
		return nil, fmt.Errorf("fleet: backend url %q names no host", rawURL)
	}
	regions, err := timeutil.ParseRegions(regionsStr)
	if err != nil {
		return nil, fmt.Errorf("fleet: backend spec %q: %v", spec, err)
	}
	return NewBackend(regionsStr, rawURL, regions...), nil
}

// NewBackend builds a healthy backend owning the given regions.
func NewBackend(name, url string, regions ...timeutil.Region) *Backend {
	b := &Backend{Name: name, URL: strings.TrimRight(url, "/"), Regions: regions}
	b.healthy.Store(true)
	return b
}

// hopHeader is the header of every request the router and the shield
// send to a backend, shared read-only: backends read none of it, and the
// empty User-Agent keeps net/http from sending its default.
var hopHeader = http.Header{"User-Agent": {""}}

// internalTransport is the pooled transport the router and the shield
// build when given none. Backends never compress, so asking them to
// (Accept-Encoding: gzip) would only cost each one a header to parse.
func internalTransport() *http.Transport {
	return &http.Transport{MaxIdleConnsPerHost: 64, IdleConnTimeout: time.Minute, DisableCompression: true}
}

// roundTrip sends one bare request to a backend: hopHeader, no body, and
// whatever it answers (a redirect included) is the reply.
func roundTrip(ctx context.Context, rt http.RoundTripper, method, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, nil)
	if err != nil {
		return nil, err
	}
	req.Header = hopHeader
	return rt.RoundTrip(req)
}
