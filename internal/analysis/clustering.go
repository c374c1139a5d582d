package analysis

import (
	"fmt"
	"runtime"
	"sort"

	"trafficscope/internal/cluster"
	"trafficscope/internal/dtw"
	"trafficscope/internal/sketch"
	"trafficscope/internal/stats"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// ObjectSeries accumulates per-object hour-of-week request-count time
// series, the input to the paper's §IV-B DTW clustering (Figs. 8-10).
// Counts are held as float32 — request counts are integers well below
// 2^24, so the narrower cells are exact while halving the footprint of
// the largest per-object allocation in a streaming run.
//
// Bounded mode (Params.MemoryBudget > 0) gates series admission behind
// a Count-Min sketch: an object only gets a 168-hour series once its
// estimated request count reaches seriesAdmitThreshold, and at most the
// budget's worth of series exist per site and category. The error
// model: an admitted object's series misses at most threshold-1 early
// requests, a relative error below (threshold-1)/minRequests for any
// object the clustering would consider (default minRequests 20);
// objects that never reach the threshold are exactly the cold objects
// SeriesSet filters out anyway. Count-Min never
// undercounts, so no qualifying object is starved — overcounts can only
// admit a cold object early, which the minRequests filter still drops.
type ObjectSeries struct {
	perSite[seriesSite]
	budget int
}

// seriesAdmitThreshold is the estimated request count at which a series
// is allocated in bounded mode.
const seriesAdmitThreshold = 4

// hourRow is one object's hour-of-week request counts.
type hourRow [timeutil.HoursPerWeek]float32

// rowChunk is the number of rows allocated at a time: rows live in
// fixed-size chunks so that taking one more never copies the 672-byte
// rows already in use.
const rowChunk = 64

type seriesSite struct {
	// rowOf, at catSlot, is one more than the row holding the series of
	// that object under that category; zero for none.
	rowOf []uint32
	rows  [][]hourRow
	// perCat counts the series per category, what bounded mode caps.
	perCat [numCats]int
	// Bounded mode: objs slots the admitted objects (exact mode uses
	// the keyspace's slots) and gates holds the per-category Count-Min
	// admission sketches, nil for a category without requests.
	objs  idTable
	gates [numCats]*sketch.CountMin
}

// row returns the series stored in row i.
func (st *seriesSite) row(i uint32) *hourRow { return &st.rows[i/rowChunk][i%rowChunk] }

// has reports whether the object slot has a series under the category.
func (st *seriesSite) has(slot uint32, cat uint8) bool {
	i := catSlot(slot, cat)
	return i < uint32(len(st.rowOf)) && st.rowOf[i] != 0
}

// series returns the series of the object slot under the category,
// starting an empty one if it has none.
func (st *seriesSite) series(slot uint32, cat uint8) *hourRow {
	ri := at(&st.rowOf, catSlot(slot, cat))
	if *ri == 0 {
		n := 0
		for _, per := range st.perCat {
			n += per
		}
		if n == len(st.rows)*rowChunk {
			st.rows = append(st.rows, make([]hourRow, rowChunk))
		}
		st.perCat[cat]++
		*ri = uint32(n) + 1
	}
	return st.row(*ri - 1)
}

// newObjectSeries creates an accumulator over the given trace week;
// budget 0 is exact, a positive budget caps per-(site, category) series
// at that count behind a Count-Min admission gate.
func newObjectSeries(week timeutil.Week, budget int) *ObjectSeries {
	s := &ObjectSeries{budget: budget}
	s.week, s.needs = week, exactNeeds(budget, needObjects)
	return s
}

// Add folds one record; records outside the week are ignored.
func (s *ObjectSeries) Add(r *trace.Record) { s.add(r, s.resolve(r)) }

func (s *ObjectSeries) add(r *trace.Record, k *recKey) {
	if k.hour < 0 {
		return
	}
	st := s.site(k.site)
	slot := k.obj
	if s.budget > 0 {
		var known bool
		if slot, known = st.objs.idx.Get(r.ObjectID); !known || !st.has(slot, k.cat) {
			if st.gates[k.cat] == nil {
				st.gates[k.cat] = sketch.NewCountMin(0, 0)
			}
			if est := st.gates[k.cat].Add(k.objHash, 1); est < seriesAdmitThreshold || st.perCat[k.cat] >= s.budget {
				return
			}
			slot = st.objs.slot(r.ObjectID)
		}
	}
	st.series(slot, k.cat)[k.hour]++
}

// SeriesSet extracts, for one site and category, the normalized request
// time series of objects with at least minRequests requests (cold objects
// carry no shape information), capped at maxObjects by descending request
// count. Series are normalized to sum 1, matching the paper's
// "normalized request count" axes.
func (s *ObjectSeries) SeriesSet(site string, cat trace.Category, minRequests float64, maxObjects int) (ids []uint64, series [][]float64) {
	si, st := s.find(site)
	c, ok := catIndex(cat)
	if st == nil || !ok {
		return nil, nil
	}
	objIDs := s.objectIDs(si, st.objs.keys)
	type cand struct {
		id    uint64
		total float64
		raw   *hourRow
	}
	var cands []cand
	for i := int(c); i < len(st.rowOf); i += numCats {
		if st.rowOf[i] == 0 {
			continue
		}
		raw := st.row(st.rowOf[i] - 1)
		if total := sum32(raw); total >= minRequests {
			cands = append(cands, cand{id: objIDs[i/numCats], total: total, raw: raw})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].total != cands[j].total {
			return cands[i].total > cands[j].total
		}
		return cands[i].id < cands[j].id
	})
	if maxObjects > 0 && len(cands) > maxObjects {
		cands = cands[:maxObjects]
	}
	for _, c := range cands {
		ids = append(ids, c.id)
		series = append(series, stats.Normalize(widen(c.raw)))
	}
	return ids, series
}

// sum32 totals a stored series.
func sum32(raw *hourRow) float64 {
	var total float64
	for _, v := range raw {
		total += float64(v)
	}
	return total
}

// widen converts a stored series back to the float64 slice the DTW and
// normalization code operates on.
func widen(raw *hourRow) []float64 {
	out := make([]float64, len(raw))
	for i, v := range raw {
		out[i] = float64(v)
	}
	return out
}

// ClusterOptions configures ClusterSeries.
type ClusterOptions struct {
	// MinRequests filters out cold objects; default 20.
	MinRequests float64
	// MaxObjects caps the clustered population (DTW is O(n^2) pairs);
	// default 400, 0 keeps the default, negative means unlimited.
	MaxObjects int
	// K is the number of clusters to cut; default 5 (diurnal-A,
	// diurnal-B, long-lived, short-lived, outliers).
	K int
	// BandRadius is the Sakoe-Chiba radius for DTW; default 24 hours.
	// Negative disables the band.
	BandRadius int
	// Workers parallelizes the distance matrix; default GOMAXPROCS.
	Workers int
}

func (o *ClusterOptions) withDefaults() ClusterOptions {
	out := *o
	if out.MinRequests == 0 {
		out.MinRequests = 20
	}
	if out.MaxObjects == 0 {
		out.MaxObjects = 400
	}
	if out.K == 0 {
		out.K = 5
	}
	if out.BandRadius == 0 {
		out.BandRadius = 24
	}
	if out.Workers < 1 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	return out
}

// ClusterResult is the outcome of the Fig. 8-10 analysis for one site and
// category.
type ClusterResult struct {
	// ObjectIDs lists the clustered objects in series order.
	ObjectIDs []uint64
	// Series holds the normalized hour-of-week series per object.
	Series [][]float64
	// Labels assigns each object to a cluster.
	Labels []int
	// Dendrogram is the full agglomeration history.
	Dendrogram *cluster.Dendrogram
	// Clusters carries members and medoids per cluster, ordered by
	// descending size.
	Clusters []ClusterSummary
}

// ClusterSummary describes one cluster with its medoid series.
type ClusterSummary struct {
	// Label is the cluster's label in Labels.
	Label int
	// Size is the member count.
	Size int
	// Frac is the share of clustered objects ("11% Diurnal-A ...").
	Frac float64
	// MedoidID is the medoid object.
	MedoidID uint64
	// Medoid is the medoid's normalized series (Figs. 9-10 solid line).
	Medoid []float64
}

// ClusterSeries runs DTW + average-linkage agglomerative hierarchical
// clustering over one site and category and extracts cluster mixes and
// medoids.
func (s *ObjectSeries) ClusterSeries(site string, cat trace.Category, opts ClusterOptions) (*ClusterResult, error) {
	o := opts.withDefaults()
	ids, series := s.SeriesSet(site, cat, o.MinRequests, o.MaxObjects)
	if len(ids) < o.K {
		return nil, fmt.Errorf("analysis: %s/%s: %d series with >= %v requests, need >= k=%d",
			site, cat, len(ids), o.MinRequests, o.K)
	}
	dist, err := dtw.PairwiseDistances(series, dtw.PairwiseOptions{BandRadius: o.BandRadius, Workers: o.Workers})
	if err != nil {
		return nil, fmt.Errorf("analysis: %s/%s: dtw: %w", site, cat, err)
	}
	dendro, err := cluster.Agglomerative(dist, cluster.LinkageAverage)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s/%s: clustering: %w", site, cat, err)
	}
	labels, _, err := dendro.CutK(o.K)
	if err != nil {
		return nil, err
	}
	clusters, err := cluster.Extract(dist, labels)
	if err != nil {
		return nil, err
	}
	res := &ClusterResult{
		ObjectIDs:  ids,
		Series:     series,
		Labels:     labels,
		Dendrogram: dendro,
	}
	for _, c := range clusters {
		cs := ClusterSummary{
			Label:    labels[c.Medoid],
			Size:     len(c.Members),
			Frac:     float64(len(c.Members)) / float64(len(ids)),
			MedoidID: ids[c.Medoid],
			Medoid:   series[c.Medoid],
		}
		res.Clusters = append(res.Clusters, cs)
	}
	sort.Slice(res.Clusters, func(i, j int) bool { return res.Clusters[i].Size > res.Clusters[j].Size })
	return res, nil
}

// ClassifyShape heuristically labels a normalized hour-of-week series as
// one of the paper's temporal classes, used to name clusters in reports.
func ClassifyShape(series []float64) string {
	if len(series) == 0 {
		return "empty"
	}
	total := stats.Sum(series)
	if total == 0 {
		return "empty"
	}
	// Active span and mass concentration.
	first, last := -1, -1
	peak, peakIdx := 0.0, 0
	for h, v := range series {
		if v > 0 {
			if first < 0 {
				first = h
			}
			last = h
		}
		if v > peak {
			peak, peakIdx = v, h
		}
	}
	span := last - first + 1
	// Mass within 24h of the peak.
	var nearPeak float64
	for h := max(0, peakIdx-12); h <= min(len(series)-1, peakIdx+12); h++ {
		nearPeak += series[h]
	}
	switch {
	case span <= 36 || nearPeak/total > 0.85:
		return "short-lived"
	case span >= 120 && nearPeak/total < 0.35:
		return "diurnal"
	case nearPeak/total >= 0.35:
		return "long-lived"
	default:
		return "outlier"
	}
}
