package dtw

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestDistanceIdentical(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	d, err := Distance(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("Distance(a, a) = %v, want 0", d)
	}
}

func TestDistanceKnown(t *testing.T) {
	// DTW of a shifted spike under |·| cost is 0 because warping aligns
	// the spikes perfectly (classic DTW behaviour Euclidean distance
	// cannot reproduce).
	a := []float64{0, 0, 1, 0, 0}
	b := []float64{0, 0, 0, 1, 0}
	d, err := Distance(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("shifted spike DTW = %v, want 0", d)
	}
	// Constant offset cannot be warped away: each of the 3 alignment
	// steps costs 1.
	c := []float64{1, 1, 1}
	e := []float64{2, 2, 2}
	d, err = Distance(c, e)
	if err != nil {
		t.Fatal(err)
	}
	if d != 3 {
		t.Errorf("constant offset DTW = %v, want 3", d)
	}
}

func TestDistanceUnequalLengths(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{1, 1, 2, 2, 3, 3}
	d, err := Distance(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("stretched series DTW = %v, want 0", d)
	}
}

func TestDistanceEmpty(t *testing.T) {
	if _, err := Distance(nil, []float64{1}); err != ErrEmptySeries {
		t.Errorf("want ErrEmptySeries, got %v", err)
	}
	if _, err := Distance([]float64{1}, nil); err != ErrEmptySeries {
		t.Errorf("want ErrEmptySeries, got %v", err)
	}
}

// Property: DTW is symmetric, nonnegative, and zero on identical inputs.
func TestDistanceMetricProperties(t *testing.T) {
	f := func(raw1, raw2 []float64) bool {
		a := sanitize(raw1)
		b := sanitize(raw2)
		dab, err1 := Distance(a, b)
		dba, err2 := Distance(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		daa, _ := Distance(a, a)
		return dab >= 0 && math.Abs(dab-dba) < 1e-9 && daa == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: banded DTW >= unconstrained DTW, and a full-width band equals
// the unconstrained distance.
func TestBandDominanceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(30)
		a, b := randSeries(rng, n), randSeries(rng, n)
		full, err := Distance(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, radius := range []int{1, 2, 5, n} {
			banded, err := public(a, b, radius)
			if err != nil {
				t.Fatal(err)
			}
			if banded < full-1e-9 {
				t.Fatalf("band %d distance %v < full %v", radius, banded, full)
			}
		}
		wide, err := public(a, b, n)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(wide-full) > 1e-9 {
			t.Fatalf("full-width band %v != unconstrained %v", wide, full)
		}
	}
}

func TestDistanceBandValidation(t *testing.T) {
	// Radius 0 admits no path between series of lengths 3 and 6.
	if _, err := public([]float64{1, 2, 3}, []float64{1, 1, 2, 2, 3, 3}, 0); err == nil || !strings.Contains(err.Error(), "band radius too small") {
		t.Errorf("radius 0 on 3×6: error %v, want band radius too small", err)
	}
	// Radius 0 on equal-length series follows the diagonal and succeeds.
	d, err := public([]float64{1, 2, 3}, []float64{1, 2, 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Errorf("diagonal-only DTW = %v, want 1", d)
	}
}

// TestPairwiseDistances pins the matrix bit for bit to the reference
// kernel's, banded and unbanded, at every worker count, on equal-length
// series and on rows of unequal length.
func TestPairwiseDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	equal := make([][]float64, 8)
	for i := range equal {
		equal[i] = randSeries(rng, 24)
	}
	unequal := make([][]float64, 7)
	for i := range unequal {
		unequal[i] = randSeries(rng, 18+3*(i%3))
	}
	for _, tc := range []struct {
		name   string
		series [][]float64
		radius int
	}{
		{"equal/unbanded", equal, -1},
		{"equal/band3", equal, 3},
		{"unequal/unbanded", unequal, -1},
		{"unequal/band5", unequal, 5},
	} {
		want, err := referenceMatrix(tc.series, tc.radius)
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		for _, workers := range []int{0, 1, 2, 3, len(tc.series) + 5} {
			m, err := PairwiseDistances(tc.series, PairwiseOptions{BandRadius: tc.radius, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers %d: %v", tc.name, workers, err)
			}
			for i := range m {
				if m[i][i] != 0 {
					t.Errorf("%s workers %d: diagonal (%d,%d) = %v", tc.name, workers, i, i, m[i][i])
				}
				for j := range m {
					if m[i][j] != m[j][i] {
						t.Errorf("%s workers %d: asymmetric at (%d,%d)", tc.name, workers, i, j)
					}
					if math.Float64bits(m[i][j]) != math.Float64bits(want[i][j]) {
						t.Errorf("%s workers %d: (%d,%d) = %v, reference %v", tc.name, workers, i, j, m[i][j], want[i][j])
					}
				}
			}
		}
	}
}

// TestPairwiseDistancesFirstError: a band too narrow for some pairs, or
// samples whose costs overflow to +Inf, fail the matrix with the error of
// the first failing pair in row-major order, at any worker count.
func TestPairwiseDistancesFirstError(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Radius 1 joins lengths 12 and 12 or 12 and 13, not 12 and 40 or 13
	// and 40: the first failing pair is (0, 3), and (1, 3) and (3, 4),
	// which name other lengths, fail with a different message.
	narrow := make([][]float64, 6)
	for i, n := range []int{12, 13, 12, 40, 12, 13} {
		narrow[i] = randSeries(rng, n)
	}
	// Every pair of row 0 but (0, 3) has a finite cost, and (0, 3) is the
	// third lane of row 0's first group: with -MaxFloat64 in series 0 and
	// +MaxFloat64 in series 3, a path that aligns the two pays +Inf there
	// and one that does not pays MaxFloat64 twice, which overflows too.
	// Row 1 fails later in row-major order, on lengths 12 and 40: the
	// message of a kernel that misses the failure in lane 2.
	overflow := make([][]float64, 6)
	for i := range overflow {
		overflow[i] = randSeries(rng, 12)
	}
	overflow[5] = randSeries(rng, 40)
	overflow[0][4], overflow[3][7] = -math.MaxFloat64, math.MaxFloat64
	for _, tc := range []struct {
		name   string
		series [][]float64
	}{{"narrow", narrow}, {"overflow", overflow}} {
		_, want := referenceMatrix(tc.series, 1)
		for j := 1; j <= 3; j++ {
			if _, err := referenceDistance(tc.series[0], tc.series[j], 1); (err != nil) != (j == 3) || j == 3 && err.Error() != want.Error() {
				t.Fatalf("%s: the reference's first failing pair is not (0, 3): (0, %d) gives %v", tc.name, j, err)
			}
		}
		for _, workers := range []int{0, 1, 2, 3, len(tc.series) + 5} {
			for rep := 0; rep < 20; rep++ {
				m, err := PairwiseDistances(tc.series, PairwiseOptions{BandRadius: 1, Workers: workers})
				if m != nil || err == nil || err.Error() != want.Error() {
					t.Fatalf("%s, workers %d: matrix %v, error %v; want nil, %v", tc.name, workers, m, err, want)
				}
			}
		}
	}
}

// TestPairwiseAllocs: the matrix, its row headers, and one worker's
// goroutine, kernel and bookkeeping — a constant, where the parent
// allocated two rows per pair, a row per series and a job per pair.
func TestPairwiseAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	series := make([][]float64, 32)
	for i := range series {
		series[i] = randSeries(rng, 168)
	}
	perMatrix := func(series [][]float64) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := PairwiseDistances(series, PairwiseOptions{BandRadius: 24, Workers: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := perMatrix(series[:8]), perMatrix(series)
	if small != large {
		t.Errorf("allocations grow with the pair count: %v for 28 pairs, %v for 496", small, large)
	}
	// 11 as written, 14 under the race detector.
	if large > 16 {
		t.Errorf("%v allocations per matrix, want a handful", large)
	}
}

func TestPairwiseDistancesEmptySeries(t *testing.T) {
	if _, err := PairwiseDistances([][]float64{{1}, {}}, PairwiseOptions{}); err == nil {
		t.Error("empty member series should error")
	}
	// No series, or a single one: no pairs, trivially fine.
	if m, err := PairwiseDistances(nil, PairwiseOptions{Workers: 3}); err != nil || len(m) != 0 {
		t.Errorf("no series: matrix %v, %v", m, err)
	}
	m, err := PairwiseDistances([][]float64{{1, 2}}, PairwiseOptions{})
	if err != nil || len(m) != 1 || m[0][0] != 0 {
		t.Errorf("single series matrix = %v, %v", m, err)
	}
}

// TestNonFinite: a NaN or infinite sample is refused up front by every
// entry point, naming the series, instead of surfacing as a NaN distance
// (or, under comparison min, as a silently skipped cell).
func TestNonFinite(t *testing.T) {
	good := []float64{1, 2, 3}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := []float64{1, v, 3}
		if _, err := Distance(good, bad); !errors.Is(err, ErrNonFinite) || !strings.Contains(err.Error(), "series 1") {
			t.Errorf("Distance(good, %v) error = %v, want ErrNonFinite naming series 1", bad, err)
		}
		if _, err := Distance(bad, good); !errors.Is(err, ErrNonFinite) || !strings.Contains(err.Error(), "series 0") {
			t.Errorf("Distance(%v, good) error = %v, want ErrNonFinite naming series 0", bad, err)
		}
		m, err := PairwiseDistances([][]float64{good, good, bad, good}, PairwiseOptions{Workers: 2})
		if m != nil || !errors.Is(err, ErrNonFinite) || !strings.Contains(err.Error(), "series 2") {
			t.Errorf("PairwiseDistances with %v: matrix %v, error %v, want ErrNonFinite naming series 2", bad, m, err)
		}
	}
}

// BenchmarkPairwiseDistances times a matrix like the ones Fig. 8
// clusters — 128 normalised hour-of-week series, diurnal, short-lived
// and sparse counts, under the 24-hour band — by the reference kernel
// and by the package's on one and two workers, and beside it a matrix of
// 128 series of Gaussian noise (randSeries) on one worker. The kernel's
// min is branchless, so its time does not depend on the data: noise,
// where no branch would predict, costs it 1.0× what these shapes do per
// pair (medians of eight runs each on a 2-vCPU Xeon).
func BenchmarkPairwiseDistances(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	series := make([][]float64, 128)
	for i := range series {
		series[i] = clusteringShapes[i%len(clusteringShapes)].gen(rng, 168)
	}
	noise := make([][]float64, len(series))
	for i := range noise {
		noise[i] = randSeries(rng, 168)
	}
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := referenceMatrix(series, 24); err != nil {
				b.Fatal(err)
			}
		}
	})
	run := func(name string, series [][]float64, workers int) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := PairwiseDistances(series, PairwiseOptions{BandRadius: 24, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("workers-1", series, 1)
	run("workers-2", series, 2)
	run("noise", noise, 1)
}

func randSeries(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64() * 10
	}
	return s
}

func sanitize(raw []float64) []float64 {
	out := make([]float64, 0, len(raw)+1)
	for _, v := range raw {
		// Drop NaN/Inf and clamp magnitude so accumulated path costs
		// cannot overflow float64.
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out = append(out, math.Mod(v, 1e9))
		}
	}
	if len(out) == 0 {
		out = append(out, 0)
	}
	return out
}
