package analysis

import (
	"trafficscope/internal/stats"
	"trafficscope/internal/trace"
)

// SizeDistribution accumulates Fig. 5: per-site, per-category CDFs of
// distinct-object sizes ("content sizes"). Objects are deduplicated by
// ID, so repeated requests do not skew the distribution.
type SizeDistribution struct {
	perSite[sizesSite]
}

type sizesSite struct {
	// size, at catSlot, is the object's size as last seen under that
	// category; has, by object slot, is the set of categories (bit
	// catIndex) it was seen under.
	size []int64
	has  []uint8
}

// newSizeDistribution creates an empty accumulator.
func newSizeDistribution() *SizeDistribution {
	s := &SizeDistribution{}
	s.needs = needObjects
	return s
}

// Add folds one record.
func (s *SizeDistribution) Add(r *trace.Record) { s.add(r, s.resolve(r)) }

func (s *SizeDistribution) add(r *trace.Record, k *recKey) {
	s.site(k.site).set(k.obj, k.cat, r.ObjectSize)
}

func (st *sizesSite) set(slot uint32, cat uint8, size int64) {
	*at(&st.size, catSlot(slot, cat)) = size
	*at(&st.has, slot) |= 1 << cat
}

// CDF returns the size ECDF of the site's objects in the category, or nil
// when no such objects were observed.
func (s *SizeDistribution) CDF(site string, cat trace.Category) *stats.ECDF {
	_, st := s.find(site)
	c, ok := catIndex(cat)
	if st == nil || !ok {
		return nil
	}
	var sample []float64
	for slot, has := range st.has {
		if has&(1<<c) != 0 {
			sample = append(sample, float64(st.size[catSlot(uint32(slot), c)]))
		}
	}
	if len(sample) == 0 {
		return nil
	}
	return stats.MustECDF(sample)
}

// FracAbove returns the fraction of the site's category objects strictly
// larger than the threshold (e.g. the paper's "majority of requested
// video objects have sizes greater than 1 MB").
func (s *SizeDistribution) FracAbove(site string, cat trace.Category, threshold int64) float64 {
	e := s.CDF(site, cat)
	if e == nil {
		return 0
	}
	return 1 - e.At(float64(threshold))
}

// BimodalityGap reports a crude bimodality check for image sizes: the
// ratio between the p75 and p25 of the distribution. Bi-modal
// thumbnail/full-size mixes produce large gaps (>> 10x).
func (s *SizeDistribution) BimodalityGap(site string, cat trace.Category) float64 {
	e := s.CDF(site, cat)
	if e == nil {
		return 0
	}
	q25, err1 := e.Quantile(0.25)
	q75, err2 := e.Quantile(0.75)
	if err1 != nil || err2 != nil || q25 <= 0 {
		return 0
	}
	return q75 / q25
}
