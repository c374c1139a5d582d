package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"trafficscope/internal/cdn"
	"trafficscope/internal/edge"
	"trafficscope/internal/obs"
	"trafficscope/internal/obs/slo"
	"trafficscope/internal/timeutil"
)

// Merged is the collector's last poll read back as numbers.
type Merged struct {
	// Series holds every series of the merged /metrics page, keyed by
	// name and labels as the page prints them.
	Series map[string]float64
	// Unreachable lists backends the poll could not read, in name order.
	// Their traffic is missing from Series.
	Unreachable []string
}

// Counter returns one series' value, 0 when the page lacks it.
func (m Merged) Counter(series string) int64 { return int64(m.Series[series]) }

// CDN sums every DC's cdn_*{dc} counters into the cluster's totals.
func (m Merged) CDN() (total cdn.DCStats) {
	for _, r := range timeutil.AllRegions() {
		total.Add(cdn.ReadStats(r, m.Counter))
	}
	return total
}

// Fill reads the edges' summed edge_*fill* counters: where the cluster's
// misses were filled from. Fill().OriginFillBytes is the cluster's actual
// origin egress; Fill().SavedBytes() is what the fill hierarchy saved.
func (m Merged) Fill() edge.FillStats { return edge.ReadFillStats(m.Counter) }

// CollectorConfig configures a cluster stats Collector.
type CollectorConfig struct {
	// Backends are the processes to poll. Required.
	Backends []*Backend
	// Interval is the polling period for Run; zero defaults to
	// DefaultCollectInterval.
	Interval time.Duration
	// Logf receives poll-failure log lines; nil silences them.
	Logf func(format string, args ...any)
}

// DefaultCollectInterval is the Collector's polling period when
// CollectorConfig.Interval is zero.
const DefaultCollectInterval = time.Second

// collectTimeout bounds one backend poll (both endpoints together).
const collectTimeout = 5 * time.Second

// maxPollBytes caps each reply the collector reads: over 100x the
// 10.1 KiB /metrics (five region-labelled latency histograms among its
// series) and 5.7 KiB /slo of an idle unscoped edge under the demo SLO
// policy. A longer reply makes its backend unreachable for the poll.
const maxPollBytes = 1 << 20

// Collector polls every backend's /slo and /metrics and serves merged
// cluster views on the same endpoints: tsgate judges the whole cluster
// through the collector exactly as it would one tsserve.
//
// Consistency: each backend is polled at a slightly different instant
// and backends keep serving between polls, so merged views are
// weakly consistent snapshots, the same contract a single live server's
// /metrics already has. After traffic stops, the next poll converges on
// exact totals.
type Collector struct {
	cfg CollectorConfig
	// local are the front tier's own registries, merged into /metrics.
	local []*obs.Registry

	mu      sync.RWMutex
	polled  bool // at least one poll completed
	merged  Merged
	slo     slo.Report
	sloErr  error
	metrics []byte
}

// NewCollector validates the config and builds a Collector. Polling
// starts with Run (or call PollOnce directly).
func NewCollector(cfg CollectorConfig) (*Collector, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("fleet: CollectorConfig.Backends is required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultCollectInterval
	}
	return &Collector{cfg: cfg}, nil
}

// Run polls all backends every Interval until ctx is cancelled. One
// final poll runs on the way out so post-drain totals are captured.
func (c *Collector) Run(ctx context.Context) {
	tick := time.NewTicker(c.cfg.Interval)
	defer tick.Stop()
	c.PollOnce(ctx)
	for {
		select {
		case <-ctx.Done():
			// Backends drain before they exit; a last poll (with a fresh
			// context — ctx is already dead) snapshots their final totals.
			fctx, cancel := context.WithTimeout(context.Background(), collectTimeout)
			c.PollOnce(fctx)
			cancel()
			return
		case <-tick.C:
			c.PollOnce(ctx)
		}
	}
}

// backendPoll is one backend's fetched state.
type backendPoll struct {
	backend *Backend
	slo     slo.Report
	metrics *promMerger // the parsed /metrics page
	err     error
}

// PollOnce fetches every backend's /slo and /metrics once and
// rebuilds the merged views. Unreachable backends are recorded, not
// fatal: the cluster view degrades to the reachable subset.
func (c *Collector) PollOnce(ctx context.Context) {
	polls := make([]backendPoll, len(c.cfg.Backends))
	var wg sync.WaitGroup
	for i, b := range c.cfg.Backends {
		wg.Add(1)
		go func(i int, b *Backend) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, collectTimeout)
			defer cancel()
			polls[i] = c.pollBackend(pctx, b)
		}(i, b)
	}
	wg.Wait()

	var unreachable []string
	var reports []slo.Report
	metrics := newPromMerger()
	for _, p := range polls {
		if p.err != nil {
			unreachable = append(unreachable, p.backend.Name)
			c.logf("fleet: collector: backend %s unreachable: %v", p.backend.Name, p.err)
			continue
		}
		reports = append(reports, p.slo)
		metrics.merge(p.metrics)
	}
	for _, reg := range c.local {
		var buf bytes.Buffer
		reg.WritePrometheus(&buf)
		page, err := parsePage(buf.Bytes())
		if err != nil {
			c.logf("fleet: collector: front tier metrics: %v", err)
			continue
		}
		metrics.merge(page)
	}
	sort.Strings(unreachable)
	var page bytes.Buffer
	metrics.render(&page)

	var mergedSLO slo.Report
	var sloErr error
	if len(reports) > 0 {
		mergedSLO, sloErr = slo.MergeReports(reports...)
	} else {
		sloErr = fmt.Errorf("fleet: no backend reachable")
	}
	if sloErr != nil {
		c.logf("fleet: collector: slo merge: %v", sloErr)
	}

	c.mu.Lock()
	c.polled = true
	c.merged = Merged{Series: metrics.values, Unreachable: unreachable}
	c.slo, c.sloErr = mergedSLO, sloErr
	c.metrics = page.Bytes()
	c.mu.Unlock()
}

func (c *Collector) pollBackend(ctx context.Context, b *Backend) backendPoll {
	p := backendPoll{backend: b}
	sloBody, err := c.get(ctx, b.URL+"/slo")
	if err != nil {
		p.err = err
		return p
	}
	if p.err = json.Unmarshal(sloBody, &p.slo); p.err != nil {
		return p
	}
	page, err := c.get(ctx, b.URL+"/metrics")
	if err != nil {
		p.err = err
		return p
	}
	p.metrics, p.err = parsePage(page)
	return p
}

func (c *Collector) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxPollBytes+1))
	if err != nil {
		return nil, err
	}
	if len(body) > maxPollBytes {
		return nil, fmt.Errorf("%s: reply exceeds %d bytes", url, maxPollBytes)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

func (c *Collector) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Merged returns the latest poll's merged series and whether a poll has
// completed yet.
func (c *Collector) Merged() (Merged, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.merged, c.polled
}

// SLOReport returns the latest merged SLO report.
func (c *Collector) SLOReport() (slo.Report, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if !c.polled {
		return slo.Report{}, fmt.Errorf("fleet: collector has not polled yet")
	}
	return c.slo, c.sloErr
}

// Register mounts the merged cluster views on mux: /slo and /metrics,
// shape-compatible with a single edge's endpoints. Before the first
// completed poll both answer 503 so a gate never judges an empty view.
func (c *Collector) Register(mux *http.ServeMux) {
	mux.HandleFunc("/slo", func(w http.ResponseWriter, _ *http.Request) {
		rep, err := c.SLOReport()
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rep)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		c.mu.RLock()
		polled, page := c.polled, c.metrics
		c.mu.RUnlock()
		if !polled {
			http.Error(w, "collector warming up", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		w.Write(page)
	})
}
