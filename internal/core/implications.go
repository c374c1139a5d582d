package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"trafficscope/internal/analysis"
	"trafficscope/internal/cdn"
	"trafficscope/internal/report"
	"trafficscope/internal/trace"
)

// The §V table's fixed parameters: every data center gets 100 GiB of
// edge cache at paper scale (2 GiB at scale 0.02), and the edge-push
// cell places the first day's 200 most requested objects.
const (
	implicationCapacity = 100 << 30
	implicationPushTop  = 200
)

// implicationCell is one CDN configuration replayed for the §V table:
// its part in the fan-out, the config its Build makes a CDN of, that
// CDN, and the counters its rows print. A cell with a Survey is cold and
// fills stats itself; the others report the measured week's totals.
type implicationCell struct {
	cdn.FanoutCell
	cfg     cdn.Config
	network *cdn.CDN
	stats   cdn.DCStats
	// parentHitBytes, set on a cell whose edges have a parent tier,
	// counts the bytes of edge-missed chunks the parent served.
	parentHitBytes func() int64
}

// fill splits the bytes of the chunks the cell's edges missed, which s
// counts as OriginBytes, into those the parent tier served and those the
// origin sent. (A 304 whose validator lookup misses admits its object
// and counts no bytes anywhere.)
func (c *implicationCell) fill(s cdn.DCStats) (parent, origin int64) {
	if c.parentHitBytes != nil {
		parent = c.parentHitBytes()
	}
	return parent, s.OriginBytes - parent
}

// implicationRow is one line of the §V table: the implication it speaks
// to, the cell replayed for it — rows comparing against the same
// configuration share one cell, so the LRU baseline is replayed once —
// and what the row reports beyond the cell's hit ratio and origin
// traffic. A row without a cell reports only its note.
type implicationRow struct {
	implication, setup string
	cell               *implicationCell
	note               func() string
}

// must unwraps a constructor whose arguments are the table's constants.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// implicationRows declares the §V table for a per-DC capacity: every
// configuration the paper's implications compare, as data.
func (r *Results) implicationRows(capacity int64) []implicationRow {
	cell := func(cfg cdn.Config) *implicationCell {
		c := &implicationCell{cfg: cfg}
		c.Build = func() *cdn.CDN {
			c.network = cdn.New(c.cfg)
			return c.network
		}
		return c
	}
	lru := func(capacity int64) func() cdn.Cache {
		return func() cdn.Cache { return cdn.NewLRU(capacity) }
	}
	policy := func(name string) *implicationCell {
		return cell(cdn.Config{NewCache: must(cdn.PolicyFactory(name, capacity))})
	}
	baseline := policy("lru")
	ttl := func(d time.Duration) *implicationCell {
		return cell(cdn.Config{NewCache: func() cdn.Cache { return must(cdn.NewTTLCache(cdn.NewLRU(capacity), d)) }})
	}

	sites := r.SiteNames()
	partitions := map[string]func() cdn.Cache{}
	for _, site := range sites {
		partitions[site] = lru(capacity / int64(len(sites)))
	}

	// The edge-level hit ratio is the same with and without the parent by
	// construction; the parent's value is the share of edge misses it
	// absorbs, and their bytes, which never reach the origin. One parent
	// stands behind every DC's edge, as the live fleet's shield does (a
	// cell is served by one goroutine, so sharing it is safe).
	var tiers []*cdn.TieredCache
	parent := cdn.NewLRU(capacity)
	shield := cell(cdn.Config{NewCache: func() cdn.Cache {
		t := cdn.NewTieredCache(cdn.NewLRU(capacity/4), parent)
		tiers = append(tiers, t)
		return t
	}})
	shield.parentHitBytes = func() (n int64) {
		for _, t := range tiers {
			n += t.ParentHitBytes
		}
		return n
	}
	absorbed := func() string {
		var hits, misses int64
		for _, t := range tiers {
			hits += t.ParentHits
			misses += t.ParentMisses
		}
		return fmt.Sprintf("shield absorbs %.2f%% of edge misses, %.2f GiB",
			100*float64(hits)/float64(hits+misses), float64(shield.parentHitBytes())/(1<<30))
	}

	// incognito is an LRU cell in which permille of the users browse
	// privately, and the share of its measured requests answered 304.
	incognito := func(permille uint64) (*implicationCell, func() string) {
		c := cell(cdn.Config{NewCache: lru(capacity), IsIncognito: func(_ string, user uint64) bool {
			return user%1000 < permille
		}})
		var requests, notModified int64
		c.Observe = func(rec *trace.Record) error {
			requests++
			if rec.StatusCode == cdn.StatusNotModified {
				notModified++
			}
			return nil
		}
		return c, func() string { return fmt.Sprintf("304 share %.4g%%", 100*float64(notModified)/float64(requests)) }
	}
	incognito0, share0 := incognito(0)
	incognito50, share50 := incognito(500)
	incognito88, share88 := incognito(880)

	// Push mainly accelerates cold starts, so this pair alone skips the
	// warm-up: the push cell counts the first day's objects on that read
	// instead, and both report their counters as of the end of day one.
	dayEnd := r.Week.Start.Add(24 * time.Hour)
	coldFirstDay := func(survey func(*trace.Record) error) *implicationCell {
		c := cell(cdn.Config{NewCache: lru(capacity)})
		c.Survey = survey
		c.Observe = func(rec *trace.Record) error {
			if rec.Timestamp.Before(dayEnd) {
				c.stats = c.network.TotalStats()
			}
			return nil
		}
		return c
	}
	pull := coldFirstDay(func(*trace.Record) error { return nil })
	counts := map[uint64]objectCount{}
	push := coldFirstDay(func(rec *trace.Record) error {
		if rec.Timestamp.Before(dayEnd) {
			counts[rec.ObjectID] = objectCount{counts[rec.ObjectID].requests + 1, rec.ObjectSize}
		}
		return nil
	})
	empty := push.Build
	push.Build = func() *cdn.CDN {
		network := empty()
		for _, id := range topObjects(counts, implicationPushTop) {
			network.PushToAll(id, counts[id].size, r.Week.Start)
		}
		return network
	}

	mix := func(radius int) func() string {
		return func() string { return r.clusterMix(radius) }
	}
	return []implicationRow{
		{"eviction policy", "lru", baseline, nil},
		{"eviction policy", "lfu", policy("lfu"), nil},
		{"eviction policy", "fifo", policy("fifo"), nil},
		{"eviction policy", "slru", policy("slru"), nil},
		{"eviction policy", "gdsf", policy("gdsf"), nil},
		{"eviction policy", "2q", policy("2q"), nil},
		{"split by size", "unified lru", baseline, nil},
		{"split by size", "small/large at 1 MiB", policy("split"), nil},
		{"revalidation TTL", "1 h", ttl(time.Hour), nil},
		{"revalidation TTL", "24 h", ttl(24 * time.Hour), nil},
		{"revalidation TTL", "7 d", ttl(7 * 24 * time.Hour), nil},
		{"publisher partitions", "shared lru", baseline, nil},
		{"publisher partitions", fmt.Sprintf("%d equal partitions", len(sites)),
			cell(cdn.Config{NewCache: lru(1), PublisherCaches: partitions}), nil},
		{"sharding", "monolithic lru", baseline, nil},
		{"sharding", "8 consistent-hash shards", cell(cdn.Config{NewCache: func() cdn.Cache {
			return must(cdn.NewShardedCache(8, 64, lru(capacity/8)))
		}}), nil},
		{"parent tier", "edge only (capacity/4)", cell(cdn.Config{NewCache: lru(capacity / 4)}), nil},
		{"parent tier", "edge + one shared shield", shield, absorbed},
		{"incognito browsing", "0% of users", incognito0, share0},
		{"incognito browsing", "50% of users", incognito50, share50},
		{"incognito browsing", "88% of users", incognito88, share88},
		{"edge push", "pull only, cold first day", pull, nil},
		{"edge push", fmt.Sprintf("push top %d, cold first day", implicationPushTop), push, nil},
		{"DTW band", "full DTW", nil, mix(-1)},
		{"DTW band", "band 24 h", nil, mix(24)},
		{"DTW band", "band 6 h", nil, mix(6)},
	}
}

// objectCount is what a survey of the trace learns about one object.
type objectCount struct {
	requests int
	size     int64
}

// topObjects returns the n most requested objects, most requested first,
// ties broken by ascending object ID: the set may not depend on map
// order.
func topObjects(counts map[uint64]objectCount, n int) []uint64 {
	ids := make([]uint64, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if a, b := counts[ids[i]].requests, counts[ids[j]].requests; a != b {
			return a > b
		}
		return ids[i] < ids[j]
	})
	return ids[:min(n, len(ids))]
}

// clusterMix cuts the V-2 video series (the Fig. 9 population, 60
// warmest objects) into four clusters under the given Sakoe-Chiba radius
// and returns the cluster sizes — what the band changes about the
// clustering, as opposed to what it saves.
func (r *Results) clusterMix(radius int) string {
	res, err := r.Series().ClusterSeries("V-2", trace.CategoryVideo, analysis.ClusterOptions{
		MinRequests: 25, MaxObjects: 60, K: 4, BandRadius: radius, Workers: r.ClusterOpts.Workers,
	})
	if err != nil {
		return err.Error()
	}
	sizes := make([]string, len(res.Clusters))
	for i, c := range res.Clusters {
		sizes[i] = fmt.Sprint(c.Size)
	}
	return fmt.Sprintf("K=4 cluster sizes %s of %d V-2 video series", strings.Join(sizes, "/"), len(res.ObjectIDs))
}

// ImplicationsTableSource replays the paper's §V implications — eviction
// policy, split by size, TTL, publisher partitions, sharding, a parent
// tier, incognito browsing, edge push — against src, which must yield in
// time order the generated (pre-CDN) week the results were computed
// from, and appends what the DTW band does to the clustering. Every cell
// is an independent CDN with the same per-DC capacity, proportional to
// the study's scale; all of them share two reads of src.
func (r *Results) ImplicationsTableSource(src trace.Source) (*report.Table, error) {
	if r.Composition() == nil || r.Series() == nil {
		return nil, fmt.Errorf("core: composition and series analyses not part of this run")
	}
	capacity := int64(implicationCapacity * r.scale)
	rows := r.implicationRows(capacity)
	if err := replayImplications(src, rows); err != nil {
		return nil, err
	}
	t := report.NewTable(
		fmt.Sprintf("§V implications (%s of edge cache per DC, warm-up + measured week)", report.Bytes(capacity)),
		"implication", "cell", "hit ratio", "origin traffic", "note")
	for _, row := range rows {
		hit, origin, note := "-", "-", "-" // for what a row does not report
		if c := row.cell; c != nil {
			if c.Survey == nil {
				c.stats = c.network.TotalStats()
			}
			_, originBytes := c.fill(c.stats)
			hit = fmt.Sprintf("%.2f%%", 100*c.stats.HitRatio())
			origin = fmt.Sprintf("%.2f GiB", float64(originBytes)/(1<<30))
		}
		if row.note != nil {
			note = row.note()
		}
		t.AddRow(row.implication, row.setup, hit, origin, note)
	}
	return t, nil
}

// replayImplications replays every distinct cell of rows over two reads
// of src.
func replayImplications(src trace.Source, rows []implicationRow) error {
	var fan []cdn.FanoutCell
	replayed := map[*implicationCell]bool{}
	for _, row := range rows {
		if c := row.cell; c != nil && !replayed[c] {
			replayed[c] = true
			fan = append(fan, c.FanoutCell)
		}
	}
	if _, err := cdn.ReplayFanout(src, fan); err != nil {
		return fmt.Errorf("core: implications replay: %w", err)
	}
	return nil
}
