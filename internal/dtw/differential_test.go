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

// public is the exported entry point for a radius: Distance when
// negative, else PairwiseDistances of the one pair.
func public(a, b []float64, radius int) (float64, error) {
	if radius < 0 {
		return Distance(a, b)
	}
	m, err := PairwiseDistances([][]float64{a, b}, PairwiseOptions{BandRadius: radius})
	if err != nil {
		return 0, err
	}
	return m[0][1], nil
}

// pair runs one pair on k, its spare lanes repeating b.
func pair(k *kernel, a, b []float64, radius int) (float64, error) {
	var d [1]float64
	err := k.distances(a, [][]float64{b}, radius, d[:])
	return d[0], err
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
		got, err = pair(&shared, a, b, radius)
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

// FuzzDistanceBand holds the kernel, banded or not, to the reference on
// any finite input:
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
		if len(a) > 0 && len(b) > 0 { // PairwiseDistances names an empty series itself
			got, err := public(a, b, radius)
			checkAgainstReference(t, "exported", a, b, radius, got, err)
		}
		got, err := pair(&shared, a, b, radius)
		checkAgainstReference(t, "shared kernel", a, b, radius, got, err)
	})
}

// checkMatrix holds PairwiseDistances on one and two workers to the
// reference matrix: every cell bit for bit, or the same error, which it
// returns.
func checkMatrix(t *testing.T, series [][]float64, radius int) error {
	t.Helper()
	want, wantErr := referenceMatrix(series, radius)
	for _, workers := range []int{1, 2} {
		got, err := PairwiseDistances(series, PairwiseOptions{BandRadius: radius, Workers: workers})
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%d series, radius %d, workers %d: error %v, reference %v", len(series), radius, workers, err, wantErr)
		}
		for i := range got {
			for j := range got {
				if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("%d series, radius %d, workers %d: (%d,%d) = %v, reference %v",
						len(series), radius, workers, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
	return wantErr
}

// TestPairwiseLanes holds the matrix to the reference wherever the
// kernel's groups of lanes pairs can go wrong: at every row tail (n = 1
// to 9 and 33 end rows with every count of spare lanes), on series of
// one length and on mixed lengths that cut groups short, under no band,
// the diagonal, the clustering's band and a band too small for some
// pairs.
func TestPairwiseLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var failed int
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 33} {
		for _, lengths := range [][]int{{24}, {24, 24, 24, 13, 60}} {
			series := make([][]float64, n)
			for i := range series {
				series[i] = shapes[rng.Intn(len(shapes))].gen(rng, lengths[rng.Intn(len(lengths))])
			}
			for _, radius := range []int{-1, 0, 24, 1} {
				if checkMatrix(t, series, radius) != nil {
					failed++
				}
			}
		}
	}
	if failed == 0 {
		t.Error("no matrix where the band is too small for a pair")
	}
}

// FuzzPairwiseDistances holds the matrix to the reference on any finite
// series: raw[0] picks 2 to 9 series, the next bytes their lengths (1 to
// 32), and the rest are little-endian float64 samples, dealt out in
// order and repeated when they run out.
func FuzzPairwiseDistances(f *testing.F) {
	rng := rand.New(rand.NewSource(29))
	seed := func(radius int, series ...[]float64) {
		raw := []byte{byte(len(series) - 2)}
		var samples []float64
		for _, s := range series {
			raw = append(raw, byte(len(s)-1))
			samples = append(samples, s...)
		}
		f.Add(append(raw, encodeSeries(samples)...), radius)
	}
	for n := 2; n <= 9; n++ {
		series := make([][]float64, n)
		for i := range series {
			series[i] = shapes[i%len(shapes)].gen(rng, []int{8, 8, 8, 5, 32}[rng.Intn(5)])
		}
		seed(-1, series...)
		seed(n-2, series...)
	}
	seed(1, []float64{1, 2}, []float64{-math.MaxFloat64}, []float64{3}, []float64{math.MaxFloat64})
	f.Fuzz(func(t *testing.T, raw []byte, radius int) {
		if len(raw) < 1 {
			t.Skip("no series count")
		}
		n := 2 + int(raw[0])%8
		if len(raw) < 1+n {
			t.Skip("no length for every series")
		}
		lengths, raw := raw[1:1+n], raw[1+n:]
		samples := make([]float64, max(1, len(raw)/8))
		for i := range len(raw) / 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite sample")
			}
			samples[i] = v
		}
		series := make([][]float64, n)
		next := 0
		for i, l := range lengths {
			series[i] = make([]float64, 1+int(l)%32)
			for j := range series[i] {
				series[i][j] = samples[next%len(samples)]
				next++
			}
		}
		checkMatrix(t, series, radius)
	})
}
