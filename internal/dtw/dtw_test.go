package dtw

import (
	"math"
	"math/rand"
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
			banded, err := DistanceBand(a, b, radius)
			if err != nil {
				t.Fatal(err)
			}
			if banded < full-1e-9 {
				t.Fatalf("band %d distance %v < full %v", radius, banded, full)
			}
		}
		wide, err := DistanceBand(a, b, n)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(wide-full) > 1e-9 {
			t.Fatalf("full-width band %v != unconstrained %v", wide, full)
		}
	}
}

func TestDistanceBandValidation(t *testing.T) {
	if _, err := DistanceBand([]float64{1}, []float64{1}, -1); err == nil {
		t.Error("negative radius should error")
	}
	// Radius 0 on equal-length series follows the diagonal and succeeds.
	d, err := DistanceBand([]float64{1, 2, 3}, []float64{1, 2, 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Errorf("diagonal-only DTW = %v, want 1", d)
	}
}

func TestPairwiseDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	series := make([][]float64, 8)
	for i := range series {
		series[i] = randSeries(rng, 24)
	}
	for _, workers := range []int{0, 1, 4} {
		m, err := PairwiseDistances(series, PairwiseOptions{BandRadius: -1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := range m {
			if m[i][i] != 0 {
				t.Errorf("diagonal (%d,%d) = %v", i, i, m[i][i])
			}
			for j := range m {
				if m[i][j] != m[j][i] {
					t.Errorf("asymmetric at (%d,%d)", i, j)
				}
				if i != j {
					want, _ := Distance(series[i], series[j])
					if math.Abs(m[i][j]-want) > 1e-9 {
						t.Errorf("(%d,%d) = %v, want %v", i, j, m[i][j], want)
					}
				}
			}
		}
	}
}

func TestPairwiseDistancesEmptySeries(t *testing.T) {
	if _, err := PairwiseDistances([][]float64{{1}, {}}, PairwiseOptions{}); err == nil {
		t.Error("empty member series should error")
	}
	// Single series: no pairs, trivially fine.
	m, err := PairwiseDistances([][]float64{{1, 2}}, PairwiseOptions{})
	if err != nil || len(m) != 1 || m[0][0] != 0 {
		t.Errorf("single series matrix = %v, %v", m, err)
	}
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
