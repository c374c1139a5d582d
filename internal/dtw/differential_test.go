package dtw

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"

	"trafficscope/internal/stats"
)

// shape generates one kind of series of a given length.
type shape struct {
	name string
	gen  func(rng *rand.Rand, n int) []float64
}

// clusteringShapes are the kinds of series the clustering sees: request
// counts normalised as analysis.SeriesSet normalises them.
var clusteringShapes = []shape{
	{"diurnal", func(rng *rand.Rand, n int) []float64 {
		s := make([]float64, n)
		phase := rng.Float64() * 24
		for h := range s {
			s[h] = 1 + math.Sin(2*math.Pi*(float64(h)+phase)/24) + 0.1*rng.Float64()
		}
		return stats.Normalize(s)
	}},
	{"short-lived", func(rng *rand.Rand, n int) []float64 {
		s := make([]float64, n)
		start := rng.Intn(n)
		for h := start; h < n && h < start+12; h++ {
			s[h] = math.Exp(-float64(h-start) / 3)
		}
		return stats.Normalize(s)
	}},
	{"normalised-counts", func(rng *rand.Rand, n int) []float64 {
		s := make([]float64, n)
		for h := range s {
			if rng.Intn(3) > 0 {
				s[h] = float64(rng.Intn(9))
			}
		}
		return stats.Normalize(s)
	}},
}

// shapes adds the ones that stress the comparisons: ties everywhere, a
// lone spike, negative values.
var shapes = append([]shape{
	{"all-zero", func(_ *rand.Rand, n int) []float64 { return make([]float64, n) }},
	{"single-spike", func(rng *rand.Rand, n int) []float64 {
		s := make([]float64, n)
		s[rng.Intn(n)] = 1
		return s
	}},
	{"negative", randSeries},
}, clusteringShapes...)

// public is the exported entry point for a radius: negative is Distance.
func public(a, b []float64, radius int) (float64, error) {
	if radius < 0 {
		return Distance(a, b)
	}
	return DistanceBand(a, b, radius)
}

// checkAgainstReference compares one evaluation with the reference
// kernel's: the same bits, or the same error.
func checkAgainstReference(t *testing.T, what string, a, b []float64, radius int, got float64, gotErr error) {
	t.Helper()
	want, wantErr := referenceDistance(a, b, radius)
	switch {
	case (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("%s, %d×%d radius %d: error %v, reference %v", what, len(a), len(b), radius, gotErr, wantErr)
	case math.Float64bits(got) != math.Float64bits(want):
		t.Fatalf("%s, %d×%d radius %d: %v (%#x), reference %v (%#x)",
			what, len(a), len(b), radius, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// differentialCases calls fn for every length pair, both ways round, of
// every shape pairing, under every radius.
func differentialCases(fn func(a, b []float64, radius int)) {
	rng := rand.New(rand.NewSource(19))
	for _, dims := range [][2]int{{1, 1}, {1, 50}, {3, 6}, {168, 24}, {168, 168}} {
		n, m := dims[0], dims[1]
		for _, sa := range shapes {
			for _, sb := range shapes {
				a, b := sa.gen(rng, n), sb.gen(rng, m)
				for _, radius := range []int{0, 1, 5, 24, n, 4 * n, -1} {
					fn(a, b, radius)
					if n != m {
						fn(b, a, radius)
					}
				}
			}
		}
	}
}

// TestKernelMatchesReference is the guarantee the dendrograms, the figure
// goldens and the benchmark digests rest on. Every case runs twice: on a
// fresh kernel through the exported functions, and on one kernel shared
// by the whole table — what a matrix worker does — so each pair meets
// rows and bounds left behind by a pair of another shape.
func TestKernelMatchesReference(t *testing.T) {
	var shared kernel
	var tooSmall int
	differentialCases(func(a, b []float64, radius int) {
		got, err := public(a, b, radius)
		checkAgainstReference(t, "fresh kernel", a, b, radius, got, err)
		got, err = shared.distance(a, b, radius)
		checkAgainstReference(t, "shared kernel", a, b, radius, got, err)
		if err != nil && strings.Contains(err.Error(), "band radius too small") {
			tooSmall++
		}
	})
	if tooSmall == 0 {
		t.Error("no case where the reference reports a band radius too small")
	}
}

// TestBandBoundsMatchPredicate brute-forces the integer bounds against
// the per-cell float predicate they replace, and the two properties the
// kernel's reuse of stale rows depends on.
func TestBandBoundsMatchPredicate(t *testing.T) {
	var k kernel
	for n := 1; n <= 40; n++ {
		for m := 1; m <= 40; m++ {
			for radius := 0; radius <= 45; radius++ {
				k.setShape(n, m, radius)
				for i := 0; i < n; i++ {
					lo, hi := k.lo[i], k.hi[i]
					for j := 0; j < m; j++ {
						if in := lo <= j && j <= hi; in != referenceInBand(n, m, radius, i, j) {
							t.Fatalf("%d×%d radius %d: cell (%d,%d) in bounds [%d,%d] = %v, predicate disagrees",
								n, m, radius, i, j, lo, hi, in)
						}
					}
					if lo < 0 || hi >= m || lo > hi+1 {
						t.Fatalf("%d×%d radius %d: row %d bounds [%d,%d]", n, m, radius, i, lo, hi)
					}
					if i > 0 && (lo < k.lo[i-1] || hi < k.hi[i-1]) {
						t.Fatalf("%d×%d radius %d: bounds move left at row %d: [%d,%d] after [%d,%d]",
							n, m, radius, i, lo, hi, k.lo[i-1], k.hi[i-1])
					}
				}
			}
		}
	}
	k.setShape(5, 9, -1)
	for i := 0; i < 5; i++ {
		if k.lo[i] != 0 || k.hi[i] != 8 {
			t.Fatalf("unbanded 5×9: row %d bounds [%d,%d], want [0,8]", i, k.lo[i], k.hi[i])
		}
	}
}

// encodeSeries is FuzzDistanceBand's input format: little-endian float64s.
func encodeSeries(s []float64) []byte {
	raw := make([]byte, 0, 8*len(s))
	for _, v := range s {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
	}
	return raw
}

// FuzzDistanceBand holds the kernel to the reference on any finite input:
// raw is a run of float64s, split after lenA samples into the two series.
func FuzzDistanceBand(f *testing.F) {
	seeds := 0
	differentialCases(func(a, b []float64, radius int) {
		// The table is large; every seventh case still covers each
		// length pair, radius and shape.
		if seeds++; seeds%7 == 0 && len(a)+len(b) <= 64 {
			f.Add(encodeSeries(append(append([]float64(nil), a...), b...)), len(a), radius)
		}
	})
	f.Add(encodeSeries([]float64{1, 2, 3, 1, 1, 2, 2, 3, 3}), 3, 0) // band radius too small
	f.Add(encodeSeries([]float64{math.MaxFloat64, -math.MaxFloat64}), 1, 1)
	var shared kernel
	f.Fuzz(func(t *testing.T, raw []byte, lenA, radius int) {
		if len(raw) > 8*256 {
			t.Skip("the reference is quadratic")
		}
		samples := make([]float64, len(raw)/8)
		for i := range samples {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite sample")
			}
			samples[i] = v
		}
		lenA = min(max(lenA, 0), len(samples))
		a, b := samples[:lenA], samples[lenA:]
		if radius >= 0 {
			got, err := DistanceBand(a, b, radius)
			checkAgainstReference(t, "DistanceBand", a, b, radius, got, err)
		}
		got, err := shared.distance(a, b, radius)
		checkAgainstReference(t, "shared kernel", a, b, radius, got, err)
	})
}
