package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestLogNormalFromMedianP90(t *testing.T) {
	mu, sigma, err := LogNormalFromMedianP90(100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(math.Exp(mu), 100, 1e-9) {
		t.Errorf("median = %v, want 100", math.Exp(mu))
	}
	// Sample and verify the empirical median and p90.
	rng := rand.New(rand.NewSource(11))
	n := 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = LogNormal(rng, mu, sigma)
	}
	sort.Float64s(xs)
	med := xs[n/2]
	p90 := xs[int(0.9*float64(n))]
	if math.Abs(med-100)/100 > 0.05 {
		t.Errorf("empirical median = %v, want ~100", med)
	}
	if math.Abs(p90-1000)/1000 > 0.05 {
		t.Errorf("empirical p90 = %v, want ~1000", p90)
	}
	if _, _, err := LogNormalFromMedianP90(10, 5); err == nil {
		t.Error("median > p90 should error")
	}
	if _, _, err := LogNormalFromMedianP90(0, 5); err == nil {
		t.Error("zero median should error")
	}
}

func TestParetoTail(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xm, alpha := 2.0, 1.5
	n := 100000
	var below float64
	for i := 0; i < n; i++ {
		x := Pareto(rng, xm, alpha)
		if x < xm {
			t.Fatalf("Pareto sample %v below scale %v", x, xm)
		}
		// P(X <= 2*xm) = 1 - (1/2)^alpha
		if x <= 2*xm {
			below++
		}
	}
	want := 1 - math.Pow(0.5, alpha)
	got := below / float64(n)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("P(X<=2xm) = %v, want %v", got, want)
	}
}

func TestNewZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := NewZipf(10, -1); err == nil {
		t.Error("negative s should error")
	}
	if _, err := NewZipf(10, math.NaN()); err == nil {
		t.Error("NaN s should error")
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	const n = 100
	z, err := NewZipf(n, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for r := 0; r < n; r++ {
		p := z.Prob(r)
		if p <= 0 {
			t.Fatalf("Prob(%d) = %v, want > 0", r, p)
		}
		sum += p
	}
	if !almostEqual(sum, 1, 1e-9) {
		t.Errorf("probabilities sum to %v", sum)
	}
	if z.Prob(-1) != 0 || z.Prob(n) != 0 {
		t.Error("out-of-range Prob should be 0")
	}
}

func TestZipfRankZeroMostLikely(t *testing.T) {
	z, _ := NewZipf(1000, 1.0)
	// Rank 0 must dominate and mass must decrease with rank.
	for r := 1; r < 1000; r++ {
		if z.Prob(r) >= z.Prob(r-1) {
			t.Fatalf("Zipf ordering violated: P(%d) = %v >= P(%d) = %v", r, z.Prob(r), r-1, z.Prob(r-1))
		}
	}
	// With s = 1, P(rank 0) is 1 over the 1000th harmonic number.
	var h float64
	for r := 1; r <= 1000; r++ {
		h += 1 / float64(r)
	}
	if got := z.Prob(0); math.Abs(got-1/h) > 1e-12 {
		t.Errorf("P(rank 0) = %v, want %v", got, 1/h)
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	z, _ := NewZipf(4, 0)
	for r := 0; r < 4; r++ {
		if !almostEqual(z.Prob(r), 0.25, 1e-12) {
			t.Errorf("s=0 Prob(%d) = %v, want 0.25", r, z.Prob(r))
		}
	}
}

func TestFitZipf(t *testing.T) {
	// Construct exact Zipf counts and verify recovery of the exponent.
	s := 1.2
	counts := make([]int64, 200)
	for i := range counts {
		counts[i] = int64(1e9 / math.Pow(float64(i+1), s))
	}
	got := FitZipf(counts)
	if math.Abs(got-s) > 0.05 {
		t.Errorf("FitZipf = %v, want ~%v", got, s)
	}
	if !math.IsNaN(FitZipf([]int64{5})) {
		t.Error("single rank should yield NaN")
	}
	if !math.IsNaN(FitZipf(nil)) {
		t.Error("empty input should yield NaN")
	}
	// Constant counts fit exponent ~0.
	if got := FitZipf([]int64{7, 7, 7, 7}); math.Abs(got) > 1e-9 {
		t.Errorf("constant counts exponent = %v, want 0", got)
	}
}

func TestWeightedChoice(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	counts := make([]int, 3)
	for i := 0; i < 60000; i++ {
		counts[WeightedChoice(rng, []float64{1, 2, 3})]++
	}
	for i, want := range []float64{1.0 / 6, 2.0 / 6, 3.0 / 6} {
		got := float64(counts[i]) / 60000
		if math.Abs(got-want) > 0.01 {
			t.Errorf("weight %d freq = %v, want ~%v", i, got, want)
		}
	}
	// All-zero weights fall back to uniform; negative treated as zero.
	zero := make([]int, 2)
	for i := 0; i < 10000; i++ {
		zero[WeightedChoice(rng, []float64{0, 0})]++
	}
	if zero[0] == 0 || zero[1] == 0 {
		t.Error("zero-weight fallback should be uniform")
	}
	for i := 0; i < 100; i++ {
		if WeightedChoice(rng, []float64{-1, 5}) == 0 {
			t.Fatal("negative weight should never be chosen")
		}
	}
}
