package analysis

import (
	"testing"

	"trafficscope/internal/trace"
	"trafficscope/internal/useragent"
)

// TestSitesAccessors covers the Sites() enumerators, across a merge that
// adopts a second site, and the missing-site branches of every
// accumulator.
func TestSitesAccessors(t *testing.T) {
	r1 := rec("B-site", 1, 1, trace.FileJPG, 10, 0)
	r2 := rec("A-site", 2, 2, trace.FileMP4, 10, 1)

	t.Run("addiction", func(t *testing.T) {
		a, b := newAddiction(0), newAddiction(0)
		a.Add(r1)
		b.Add(r2)
		adoptAlone(a, b)
		sites := a.Sites()
		if len(sites) != 2 || sites[0] != "A-site" || sites[1] != "B-site" {
			t.Errorf("Sites = %v", sites)
		}
	})
	t.Run("aging", func(t *testing.T) {
		a, b := newAging(week, 0), newAging(week, 0)
		a.Add(r1)
		b.Add(r2)
		adoptAlone(a, b)
		if got := a.Sites(); len(got) != 2 {
			t.Errorf("Sites = %v", got)
		}
		if a.FracAliveAllWeek("missing") != 0 {
			t.Error("missing site should be 0")
		}
		if got := a.Curve("missing"); got[0] != 0 {
			t.Error("missing site curve should be zero")
		}
	})
	t.Run("caching", func(t *testing.T) {
		a, b := newCaching(0), newCaching(0)
		hit := rec("B-site", 1, 1, trace.FileJPG, 10, 0)
		hit.Cache = trace.CacheHit
		a.Add(hit)
		b.Add(r2)
		adoptAlone(a, b)
		if got := a.Sites(); len(got) != 2 {
			t.Errorf("Sites = %v", got)
		}
		if a.WeightedHitRatio("missing") != 0 {
			t.Error("missing site ratio should be 0")
		}
		if a.PopularityHitCorrelation("missing") != 0 {
			t.Error("missing site corr should be 0")
		}
		if a.HitRatioCDF("B-site", trace.CategoryVideo) != nil {
			t.Error("category without data should be nil")
		}
		if a.ResponseCodes("missing", trace.CategoryImage) != nil {
			t.Error("missing site codes should be nil")
		}
		if a.CodeFrac("missing", trace.CategoryImage, 200) != 0 {
			t.Error("missing site code frac should be 0")
		}
	})
	t.Run("sessions", func(t *testing.T) {
		a, b := newSessions(0, 0), newSessions(0, 0)
		a.Add(r1)
		b.Add(r2)
		adoptAlone(a, b)
		if got := a.Sites(); len(got) != 2 {
			t.Errorf("Sites = %v", got)
		}
		if a.SessionsOf("missing") != nil {
			t.Error("missing site sessions should be nil")
		}
		if a.IATCDF("missing") != nil {
			t.Error("missing site IAT CDF should be nil")
		}
		if a.TimeoutKnee("missing") != 0 {
			t.Error("missing site knee should be 0")
		}
	})
	t.Run("popularity", func(t *testing.T) {
		a, b := newPopularity(), newPopularity()
		a.Add(r1)
		b.Add(r2)
		adoptAlone(a, b)
		if got := a.Sites(); len(got) != 2 {
			t.Errorf("Sites = %v", got)
		}
		if a.Counts("missing", trace.CategoryImage) != nil {
			t.Error("missing site counts should be nil")
		}
		if a.RequestCounts("missing") != nil {
			t.Error("missing site request counts should be nil")
		}
		if a.TopShare("missing", trace.CategoryImage, 0.1) != 0 {
			t.Error("missing site top share should be 0")
		}
	})
	t.Run("sizes", func(t *testing.T) {
		a, b := newSizeDistribution(), newSizeDistribution()
		a.Add(r1)
		b.Add(r2)
		adoptAlone(a, b)
		if got := a.Sites(); len(got) != 2 {
			t.Errorf("Sites = %v", got)
		}
		if a.FracAbove("missing", trace.CategoryImage, 1) != 0 {
			t.Error("missing site frac should be 0")
		}
		if a.BimodalityGap("missing", trace.CategoryImage) != 0 {
			t.Error("missing site gap should be 0")
		}
	})
	t.Run("composition", func(t *testing.T) {
		a, b := newComposition(0), newComposition(0)
		a.Add(r1)
		b.Add(r2)
		adoptAlone(a, b)
		if got := a.Sites(); len(got) != 2 {
			t.Errorf("Sites = %v", got)
		}
	})
	t.Run("devices", func(t *testing.T) {
		a, b := newDeviceMix(0), newDeviceMix(0)
		a.Add(r1)
		b.Add(r2)
		adoptAlone(a, b)
		if got := a.Sites(); len(got) != 2 {
			t.Errorf("Sites = %v", got)
		}
	})
	t.Run("hourly", func(t *testing.T) {
		a, b := newHourlyVolume(), newHourlyVolume()
		a.Add(r1)
		b.Add(r2)
		adoptAlone(a, b)
		if got := a.Sites(); len(got) != 2 {
			t.Errorf("Sites = %v", got)
		}
	})
	t.Run("series", func(t *testing.T) {
		a, b := newObjectSeries(week, 0), newObjectSeries(week, 0)
		a.Add(r1)
		b.Add(r2)
		adoptAlone(a, b)
		ids, _ := a.SeriesSet("A-site", trace.CategoryVideo, 1, 0)
		if len(ids) != 1 {
			t.Errorf("merged series missing: %v", ids)
		}
	})
}

// TestZeroCategoryBreakdownFracs covers the zero-denominator branches.
func TestZeroCategoryBreakdownFracs(t *testing.T) {
	b := newCategoryBreakdown()
	if b.ObjectFrac(trace.CategoryVideo) != 0 ||
		b.RequestFrac(trace.CategoryVideo) != 0 ||
		b.ByteFrac(trace.CategoryVideo) != 0 {
		t.Error("empty breakdown fractions should be zero")
	}
}

// TestDeviceLabelsViaAnalysis pins the device enumeration used by the
// DeviceMix columns.
func TestDeviceLabelsViaAnalysis(t *testing.T) {
	labels := []string{"desktop", "android", "ios", "misc"}
	for i, d := range useragent.AllDevices() {
		if d.String() != labels[i] {
			t.Errorf("device %d = %s, want %s", i, d.String(), labels[i])
		}
	}
}
