package synth

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"trafficscope/internal/stats"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// Object is one synthetic content object of a site.
type Object struct {
	// ID is the object's hashed-URL identity.
	ID uint64
	// FileType determines the content category.
	FileType trace.FileType
	// Size is the full object size in bytes.
	Size int64
	// Class is the temporal-popularity class.
	Class PatternClass
	// InjectHour is the hour-of-week the object was published; negative
	// values mean the object predates the trace window.
	InjectHour int
	// Weight is the object's relative popularity within its category
	// (Zipf-assigned).
	Weight float64
	// Shape is the object's normalized hour-of-week request intensity in
	// local time; entries sum to 1 over the hours the object is live
	// (to float32 rounding: the narrower cells halve the population's
	// dominant allocation, and the ~1e-7 relative error is far below
	// the generator's sampling noise).
	Shape [timeutil.HoursPerWeek]float32
	// key is the object's dense key (trace.Record.ObjectKey): the
	// populations' objects are numbered site by site in slice order, then
	// private-audience objects as they are created.
	key uint32
}

// Category returns the object's content category.
func (o *Object) Category() trace.Category { return o.FileType.Category() }

// Population is the full object population of one site.
type Population struct {
	// Site is the profile name.
	Site string
	// Objects lists all objects, grouped by category in the order of
	// trace.AllCategories.
	Objects []*Object
	// ByCategory indexes objects per category.
	ByCategory map[trace.Category][]*Object
}

// buildPopulation materializes a site's object population at the given
// scale factor (scale 1.0 = paper-reported object counts).
func buildPopulation(p *SiteProfile, scale float64, rng *rand.Rand, anon *trace.Anonymizer) (*Population, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("synth: scale must be positive, got %v", scale)
	}
	pop := &Population{Site: p.Name, ByCategory: map[trace.Category][]*Object{}}
	for _, cat := range trace.AllCategories() {
		cp, ok := p.Categories[cat]
		if !ok {
			continue
		}
		n := int(math.Round(float64(p.Objects) * scale * cp.ObjectFrac))
		if cp.ObjectFrac > 0 && n < 4 {
			n = 4 // keep tiny categories analyzable at small scales
		}
		if n == 0 {
			continue
		}
		objs, err := buildCategoryObjects(p, cat, &cp, n, rng, anon)
		if err != nil {
			return nil, err
		}
		pop.ByCategory[cat] = objs
		pop.Objects = append(pop.Objects, objs...)
	}
	if len(pop.Objects) == 0 {
		return nil, fmt.Errorf("synth: %s: empty population at scale %v", p.Name, scale)
	}
	return pop, nil
}

func buildCategoryObjects(p *SiteProfile, cat trace.Category, cp *CategoryProfile, n int, rng *rand.Rand, anon *trace.Anonymizer) ([]*Object, error) {
	zipf, err := stats.NewZipf(n, cp.ZipfExponent)
	if err != nil {
		return nil, fmt.Errorf("synth: %s/%s: %w", p.Name, cat, err)
	}
	classes, weights := classMixSlices(cp.Classes)
	objs := make([]*Object, 0, n)
	// Each object's URL, "<site>/<category>/obj-<i>", is formatted into
	// one reused buffer and hashed from there.
	url := append(append(append([]byte(p.Name), '/'), cat.String()...), "/obj-"...)
	prefix := len(url)
	for i := 0; i < n; i++ {
		class := classes[stats.WeightedChoice(rng, weights)]
		url = strconv.AppendInt(url[:prefix], int64(i), 10)
		o := &Object{
			ID:         anon.HashBytes(url),
			FileType:   cp.FileTypes[rng.Intn(len(cp.FileTypes))],
			Size:       sampleSize(rng, &cp.Sizes, class, cat),
			Class:      class,
			InjectHour: sampleInjectHour(rng, p.PreexistFrac, class),
			Weight:     zipf.Prob(i),
		}
		o.Shape = narrowShape(classShape(rng, class, o.InjectHour, &p.HourlyShape))
		objs = append(objs, o)
	}
	return objs, nil
}

func classMixSlices(mix ClassMix) ([]PatternClass, []float64) {
	classes := make([]PatternClass, 0, len(mix))
	weights := make([]float64, 0, len(mix))
	for _, c := range AllClasses() {
		if w, ok := mix[c]; ok && w > 0 {
			classes = append(classes, c)
			weights = append(weights, w)
		}
	}
	return classes, weights
}

// sampleSize draws an object size. The paper's further analysis notes
// that for video, diurnal objects are smaller than short-lived, which are
// smaller than long-lived; the class multiplier encodes that ordering.
func sampleSize(rng *rand.Rand, d *SizeDist, class PatternClass, cat trace.Category) int64 {
	median, p90 := d.MedianSmall, d.P90Small
	if d.LargeFrac > 0 && rng.Float64() < d.LargeFrac {
		median, p90 = d.MedianLarge, d.P90Large
	}
	mu, sigma, err := stats.LogNormalFromMedianP90(median, p90)
	if err != nil {
		// Profile validation prevents this; fall back defensively.
		mu, sigma = math.Log(median), 0.5
	}
	size := stats.LogNormal(rng, mu, sigma)
	if cat == trace.CategoryVideo {
		switch class {
		case ClassDiurnalA, ClassDiurnalB:
			size *= 0.6
		case ClassLongLived:
			size *= 1.6
		case ClassShortLived:
			size *= 1.2
		}
	}
	if size < 256 {
		size = 256
	}
	return int64(size)
}

// sampleInjectHour draws the publication hour. Diurnal (front-page-style)
// objects are mostly pre-existing; short- and long-lived objects are
// injected throughout the week, driving the Fig. 7 aging curve.
func sampleInjectHour(rng *rand.Rand, preexistFrac float64, class PatternClass) int {
	pre := preexistFrac
	switch class {
	case ClassDiurnalA, ClassDiurnalB:
		pre = math.Min(1, preexistFrac+0.3)
	case ClassShortLived, ClassLongLived:
		pre = math.Max(0, preexistFrac-0.35)
	}
	if rng.Float64() < pre {
		return -1 - rng.Intn(24*21) // up to three weeks old
	}
	// Injected during the week, but early enough to leave some life. The
	// last day still receives injections (their lifetime is truncated).
	return rng.Intn(timeutil.HoursPerWeek)
}

// classShape builds the normalized hour-of-week intensity of an object.
// siteShape is the site's local-hour-of-day weighting used to modulate
// diurnal classes.
func classShape(rng *rand.Rand, class PatternClass, injectHour int, siteShape *[24]float64) [timeutil.HoursPerWeek]float64 {
	var shape [timeutil.HoursPerWeek]float64
	start := injectHour
	if start < 0 {
		start = 0
	}
	switch class {
	case ClassDiurnalA, ClassDiurnalB:
		// Requested continuously with day/night modulation. Phase B
		// shifts the daily peak by ~8 hours (the second diurnal cluster
		// of Fig. 8a).
		phase := 0
		if class == ClassDiurnalB {
			phase = 8
		}
		jitter := rng.Intn(3) - 1
		for h := start; h < timeutil.HoursPerWeek; h++ {
			shape[h] = siteShape[((h+phase+jitter)%24+24)%24]
		}
	case ClassLongLived:
		// Peaks within the first day after injection, decays over days
		// with diurnal modulation, and completely dies down after a few
		// days (Fig. 9b/10b) — a hard lifetime keeps the object silent
		// afterwards even for very popular objects.
		rampHours := 6 + rng.Intn(12)
		halfLife := 14.0 + rng.Float64()*14       // 14-28h decay half-life
		lifetime := rampHours + 48 + rng.Intn(48) // dead 2-4 days after peak
		for h := start; h < timeutil.HoursPerWeek; h++ {
			age := float64(h - start)
			if age > float64(lifetime) {
				break
			}
			var env float64
			if age < float64(rampHours) {
				env = (age + 1) / float64(rampHours)
			} else {
				env = math.Exp(-(age - float64(rampHours)) * math.Ln2 / halfLife)
			}
			shape[h] = env * siteShape[h%24]
		}
	case ClassShortLived:
		// Sharp peak on arrival, completely dead within a day
		// (Fig. 9c/10c).
		rampHours := 1 + rng.Intn(3)
		halfLife := 2.0 + rng.Float64()*5         // 2-7h half-life
		lifetime := rampHours + 12 + rng.Intn(12) // hard stop within ~a day
		for h := start; h < timeutil.HoursPerWeek; h++ {
			age := float64(h - start)
			if age > float64(lifetime) {
				break
			}
			var env float64
			if age < float64(rampHours) {
				env = (age + 1) / float64(rampHours)
			} else {
				env = math.Exp(-(age - float64(rampHours)) * math.Ln2 / halfLife)
			}
			shape[h] = env
		}
	case ClassOutlier:
		// Bursty, irregular: a few random bursts of random width.
		bursts := 1 + rng.Intn(4)
		for b := 0; b < bursts; b++ {
			center := start + rng.Intn(timeutil.HoursPerWeek-start)
			width := 1 + rng.Intn(18)
			for h := center - width; h <= center+width; h++ {
				if h < start || h >= timeutil.HoursPerWeek {
					continue
				}
				d := float64(h-center) / float64(width)
				shape[h] += math.Exp(-3 * d * d)
			}
		}
	}
	normalizeShape(&shape, start)
	return shape
}

// narrowShape rounds a computed shape into the float32 cells Object
// stores.
func narrowShape(shape [timeutil.HoursPerWeek]float64) [timeutil.HoursPerWeek]float32 {
	var out [timeutil.HoursPerWeek]float32
	for h, v := range shape {
		out[h] = float32(v)
	}
	return out
}

// normalizeShape scales entries to sum to 1. An all-zero shape becomes
// uniform over the live window [start, end) so every object remains
// requestable without predating its injection.
func normalizeShape(shape *[timeutil.HoursPerWeek]float64, start int) {
	if start < 0 {
		start = 0
	}
	var sum float64
	for _, v := range shape {
		sum += v
	}
	if sum == 0 {
		live := timeutil.HoursPerWeek - start
		for h := start; h < timeutil.HoursPerWeek; h++ {
			shape[h] = 1.0 / float64(live)
		}
		return
	}
	for h := range shape {
		shape[h] /= sum
	}
}
