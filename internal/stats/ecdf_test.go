package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewECDFEmpty(t *testing.T) {
	if _, err := NewECDF(nil); err != ErrEmpty {
		t.Fatalf("NewECDF(nil) err = %v, want ErrEmpty", err)
	}
}

func TestECDFAt(t *testing.T) {
	e := MustECDF([]float64{1, 2, 3, 4})
	tests := []struct {
		x    float64
		want float64
	}{
		{0.5, 0},
		{1, 0.25},
		{2.5, 0.5},
		{4, 1},
		{100, 1},
	}
	for _, tt := range tests {
		if got := e.At(tt.x); got != tt.want {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestECDFQuantile(t *testing.T) {
	e := MustECDF([]float64{10, 20, 30, 40, 50})
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 10},
		{0.2, 10},
		{0.5, 30},
		{0.8, 40},
		{1, 50},
	}
	for _, tt := range tests {
		got, err := e.Quantile(tt.q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", tt.q, err)
		}
		if got != tt.want {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if _, err := e.Quantile(1.5); err == nil {
		t.Error("Quantile(1.5) should error")
	}
	if _, err := e.Quantile(-0.1); err == nil {
		t.Error("Quantile(-0.1) should error")
	}
}

func TestECDFMinMaxMeanMedian(t *testing.T) {
	e := MustECDF([]float64{3, 1, 2})
	if lo, _ := e.Quantile(0); lo != 1 {
		t.Errorf("Quantile(0) = %v, want the minimum 1", lo)
	}
	if hi, _ := e.Quantile(1); hi != 3 {
		t.Errorf("Quantile(1) = %v, want the maximum 3", hi)
	}
	med, err := e.Median()
	if err != nil || med != 2 {
		t.Errorf("Median = %v, %v, want 2", med, err)
	}
}

// Property: ECDF is monotone nondecreasing and bounded in [0,1] for any
// sample and any pair of probe points.
func TestECDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		sample := make([]float64, 0, len(raw)+1)
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				sample = append(sample, v)
			}
		}
		sample = append(sample, 0) // never empty
		e := MustECDF(sample)
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		pa, pb := e.At(a), e.At(b)
		return pa >= 0 && pb <= 1 && pa <= pb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: quantile is an inverse of At in the nearest-rank sense: for any
// q, At(Quantile(q)) >= q.
func TestECDFQuantileInverseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(50)
		sample := make([]float64, n)
		for i := range sample {
			sample[i] = rng.NormFloat64() * 100
		}
		e := MustECDF(sample)
		q := rng.Float64()
		v, err := e.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		if e.At(v) < q-1e-12 {
			t.Fatalf("At(Quantile(%v)) = %v < q", q, e.At(v))
		}
	}
}

func TestMustECDFPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustECDF(nil) should panic")
		}
	}()
	MustECDF(nil)
}
