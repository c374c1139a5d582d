package synth

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// sampleSizes draws n sizes from a category's configured distribution.
func sampleSizes(t *testing.T, site string, cat trace.Category, class PatternClass, n int) []float64 {
	t.Helper()
	p, err := profileByName(site)
	if err != nil {
		t.Fatal(err)
	}
	cp, ok := p.Categories[cat]
	if !ok {
		t.Fatalf("%s has no %s category", site, cat)
	}
	rng := rand.New(rand.NewSource(99))
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(sampleSize(rng, &cp.Sizes, class, cat))
	}
	sort.Float64s(out)
	return out
}

// P-2 is configured with the largest videos; at the distribution level
// (large sample) the median ordering must hold even though a 4-object
// trace sample is too noisy to show it.
func TestP2VideosLargestAtDistributionLevel(t *testing.T) {
	p2 := sampleSizes(t, "P-2", trace.CategoryVideo, ClassLongLived, 4000)
	v1 := sampleSizes(t, "V-1", trace.CategoryVideo, ClassLongLived, 4000)
	p2med := p2[len(p2)/2]
	v1med := v1[len(v1)/2]
	if p2med <= v1med {
		t.Errorf("P-2 video median %v <= V-1 %v", p2med, v1med)
	}
}

// For video, the paper's class-size ordering: diurnal < short-lived <
// long-lived.
func TestVideoClassSizeOrdering(t *testing.T) {
	d := sampleSizes(t, "V-1", trace.CategoryVideo, ClassDiurnalA, 4000)
	s := sampleSizes(t, "V-1", trace.CategoryVideo, ClassShortLived, 4000)
	l := sampleSizes(t, "V-1", trace.CategoryVideo, ClassLongLived, 4000)
	dm, sm, lm := d[len(d)/2], s[len(s)/2], l[len(l)/2]
	if !(dm < sm && sm < lm) {
		t.Errorf("class medians diurnal %v, short %v, long %v — want increasing", dm, sm, lm)
	}
}

// Image sizes are bi-modal: a large fraction below 50 KB (thumbnails)
// and a meaningful fraction above 100 KB.
func TestImageBimodalityAtDistributionLevel(t *testing.T) {
	xs := sampleSizes(t, "P-1", trace.CategoryImage, ClassDiurnalA, 8000)
	below := sort.SearchFloat64s(xs, 50e3)
	above := len(xs) - sort.SearchFloat64s(xs, 100e3)
	fBelow := float64(below) / float64(len(xs))
	fAbove := float64(above) / float64(len(xs))
	if fBelow < 0.3 {
		t.Errorf("thumbnail mass = %v, want >= 0.3", fBelow)
	}
	if fAbove < 0.2 {
		t.Errorf("full-size mass = %v, want >= 0.2", fAbove)
	}
}

// Class shapes behave per construction: diurnal spans the whole week,
// short-lived dies within ~a day, long-lived within ~5 days.
func TestClassShapeLifetimes(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	site, _ := profileByName("V-2")
	lastNonzero := func(shape [timeutil.HoursPerWeek]float64) int {
		last := -1
		for h, v := range shape {
			if v > 0 {
				last = h
			}
		}
		return last
	}
	for trial := 0; trial < 50; trial++ {
		d := classShape(rng, ClassDiurnalA, 0, &site.HourlyShape)
		if lastNonzero(d) < timeutil.HoursPerWeek-24 {
			t.Fatalf("diurnal shape dies at hour %d", lastNonzero(d))
		}
		s := classShape(rng, ClassShortLived, 0, &site.HourlyShape)
		if last := lastNonzero(s); last > 36 {
			t.Fatalf("short-lived shape alive at hour %d", last)
		}
		l := classShape(rng, ClassLongLived, 0, &site.HourlyShape)
		if last := lastNonzero(l); last > 5*24 {
			t.Fatalf("long-lived shape alive at hour %d", last)
		}
		// Injection mid-week truncates but never precedes.
		inject := 100
		li := classShape(rng, ClassLongLived, inject, &site.HourlyShape)
		for h := 0; h < inject; h++ {
			if li[h] != 0 {
				t.Fatal("intensity before injection")
			}
		}
	}
}

// Diurnal-B is phase-shifted from diurnal-A by construction.
func TestDiurnalPhases(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	site, _ := profileByName("V-2")
	peakHour := func(shape [timeutil.HoursPerWeek]float64) int {
		var byHour [24]float64
		for h, v := range shape {
			byHour[h%24] += v
		}
		best := 0
		for h, v := range byHour {
			if v > byHour[best] {
				best = h
			}
		}
		_ = best
		peak := 0
		for h, v := range byHour {
			if v > byHour[peak] {
				peak = h
			}
		}
		return peak
	}
	a := classShape(rng, ClassDiurnalA, -1, &site.HourlyShape)
	b := classShape(rng, ClassDiurnalB, -1, &site.HourlyShape)
	pa, pb := peakHour(a), peakHour(b)
	diff := (pb - pa + 24) % 24
	if diff > 12 {
		diff = 24 - diff // circular distance
	}
	if diff < 5 {
		t.Errorf("diurnal A/B circular peak distance = %d hours, want ~8", diff)
	}
}

// The Zipf weights of a category population sum to ~1 and decrease with
// rank.
func TestPopulationWeights(t *testing.T) {
	g, err := NewGenerator(Config{Seed: 3, Scale: 0.02, Salt: "w"})
	if err != nil {
		t.Fatal(err)
	}
	for _, pop := range g.Populations() {
		for cat, objs := range pop.ByCategory {
			var sum float64
			for i, o := range objs {
				sum += o.Weight
				if i > 0 && o.Weight > objs[i-1].Weight+1e-12 {
					t.Fatalf("%s/%s: weights not decreasing at %d", pop.Site, cat, i)
				}
			}
			if math.Abs(sum-1) > 1e-6 {
				t.Errorf("%s/%s: weights sum to %v", pop.Site, cat, sum)
			}
		}
	}
}
