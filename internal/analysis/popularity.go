package analysis

import (
	"cmp"
	"slices"

	"trafficscope/internal/stats"
	"trafficscope/internal/trace"
)

// Popularity accumulates Fig. 6: per-site, per-category distributions of
// per-object request counts, plus Zipf-exponent fits.
type Popularity struct {
	// Per site: requests by object slot and category, at catSlot.
	perSite[[]int64]
}

// catSlot is where per-(object, category) state of an object slot lives
// in a flat slice. An object keeps one category in practice; a trace
// that serves one ID under two keeps them apart.
func catSlot(slot uint32, cat uint8) uint32 { return slot*numCats + uint32(cat) }

// newPopularity creates an empty accumulator.
func newPopularity() *Popularity {
	p := &Popularity{}
	p.needs = needObjects
	return p
}

// Add folds one record.
func (p *Popularity) Add(r *trace.Record) { p.add(r, p.resolve(r)) }

func (p *Popularity) add(_ *trace.Record, k *recKey) {
	*at(p.site(k.site), catSlot(k.obj, k.cat))++
}

// Counts returns the per-object request counts for the site and category,
// sorted descending (rank order).
func (p *Popularity) Counts(site string, cat trace.Category) []int64 {
	_, counts := p.find(site)
	c, ok := catIndex(cat)
	if counts == nil || !ok {
		return nil
	}
	out := []int64{}
	for i := int(c); i < len(*counts); i += numCats {
		if n := (*counts)[i]; n != 0 {
			out = append(out, n)
		}
	}
	slices.SortFunc(out, func(a, b int64) int { return cmp.Compare(b, a) })
	return out
}

// RequestCounts returns the site's per-object request counts keyed by
// object ID, summed over the categories an object is served under: the
// log-level truth the §II crawl baseline compares a crawl against.
func (p *Popularity) RequestCounts(site string) map[uint64]int64 {
	si, counts := p.find(site)
	if counts == nil {
		return nil
	}
	ids := p.objectIDs(si, nil)
	out := make(map[uint64]int64, len(*counts)/numCats)
	for i, n := range *counts {
		if n != 0 {
			out[ids[i/numCats]] += n
		}
	}
	return out
}

// CDF returns the ECDF of per-object request counts, the paper's Fig. 6
// presentation.
func (p *Popularity) CDF(site string, cat trace.Category) *stats.ECDF {
	counts := p.Counts(site, cat)
	if len(counts) == 0 {
		return nil
	}
	sample := make([]float64, len(counts))
	for i, n := range counts {
		sample[i] = float64(n)
	}
	return stats.MustECDF(sample)
}

// ZipfExponent fits the popularity skew of the site's category.
func (p *Popularity) ZipfExponent(site string, cat trace.Category) float64 {
	return stats.FitZipf(p.Counts(site, cat))
}

// TopShare returns the fraction of requests absorbed by the most popular
// frac of objects (e.g. TopShare(site, cat, 0.1) = share of the top 10%),
// quantifying the long tail.
func (p *Popularity) TopShare(site string, cat trace.Category, frac float64) float64 {
	counts := p.Counts(site, cat)
	if len(counts) == 0 || frac <= 0 {
		return 0
	}
	k := int(float64(len(counts)) * frac)
	if k < 1 {
		k = 1
	}
	if k > len(counts) {
		k = len(counts)
	}
	var top, total int64
	for i, n := range counts {
		total += n
		if i < k {
			top += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(top) / float64(total)
}
