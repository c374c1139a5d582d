package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestNormalize(t *testing.T) {
	got := Normalize([]float64{1, 3})
	if !almostEqual(got[0], 0.25, 1e-12) || !almostEqual(got[1], 0.75, 1e-12) {
		t.Errorf("Normalize = %v", got)
	}
	zero := Normalize([]float64{0, 0})
	if zero[0] != 0 || zero[1] != 0 {
		t.Errorf("Normalize zero-sum = %v", zero)
	}
	if out := Normalize(nil); len(out) != 0 {
		t.Errorf("Normalize(nil) = %v", out)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Errorf("perfect positive corr = %v", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); !almostEqual(got, -1, 1e-12) {
		t.Errorf("perfect negative corr = %v", got)
	}
	if !math.IsNaN(Pearson(xs, ys[:3])) {
		t.Error("length mismatch should yield NaN")
	}
	if !math.IsNaN(Pearson([]float64{1, 1}, []float64{2, 3})) {
		t.Error("zero variance should yield NaN")
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// Any strictly monotone transform has Spearman correlation 1.
	xs := []float64{1, 5, 2, 9, 3}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(x)
	}
	if got := Spearman(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Spearman of monotone transform = %v, want 1", got)
	}
}

func TestRanksTies(t *testing.T) {
	got := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", got, want)
		}
	}
}

// Property: Pearson is symmetric and bounded in [-1, 1].
func TestPearsonProperty(t *testing.T) {
	f := func(pairs [][2]float64) bool {
		if len(pairs) < 2 {
			return true
		}
		xs := make([]float64, len(pairs))
		ys := make([]float64, len(pairs))
		for i, p := range pairs {
			if math.IsNaN(p[0]) || math.IsNaN(p[1]) || math.IsInf(p[0], 0) || math.IsInf(p[1], 0) {
				return true
			}
			xs[i], ys[i] = p[0], p[1]
		}
		r1, r2 := Pearson(xs, ys), Pearson(ys, xs)
		if math.IsNaN(r1) {
			return math.IsNaN(r2)
		}
		return almostEqual(r1, r2, 1e-9) && r1 >= -1-1e-9 && r1 <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
