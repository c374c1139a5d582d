// Package stats provides the statistical primitives used throughout
// trafficscope: empirical CDFs, quantiles, descriptive moments,
// correlation coefficients and heavy-tailed samplers.
//
// Everything in this package is deterministic given its inputs; samplers
// take an explicit *rand.Rand so callers control seeding.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by estimators that need at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// ECDF is an empirical cumulative distribution function built from a
// sample. The zero value is empty; use NewECDF to build one.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from the sample. It sorts the sample in place and
// keeps it, so the caller hands the slice over: pass a copy to keep using
// it.
func NewECDF(sample []float64) (*ECDF, error) {
	if len(sample) == 0 {
		return nil, ErrEmpty
	}
	sort.Float64s(sample)
	return &ECDF{sorted: sample}, nil
}

// MustECDF is NewECDF but panics on error. Intended for tests and static
// fixtures where an empty sample is a programming error.
func MustECDF(sample []float64) *ECDF {
	e, err := NewECDF(sample)
	if err != nil {
		panic(err)
	}
	return e
}

// Len reports the number of observations.
func (e *ECDF) Len() int { return len(e.sorted) }

// At returns P(X <= x), the fraction of observations at or below x.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// First index with sorted[i] > x.
	i := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x })
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-th quantile, q in [0,1], using the nearest-rank
// method. Quantile(0) is the minimum and Quantile(1) the maximum.
func (e *ECDF) Quantile(q float64) (float64, error) {
	if len(e.sorted) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %v outside [0,1]", q)
	}
	if q == 0 {
		return e.sorted[0], nil
	}
	rank := int(math.Ceil(q * float64(len(e.sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(e.sorted) {
		rank = len(e.sorted)
	}
	return e.sorted[rank-1], nil
}

// Median returns the 0.5 quantile.
func (e *ECDF) Median() (float64, error) { return e.Quantile(0.5) }

// Min returns the smallest observation.
func (e *ECDF) Min() float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	return e.sorted[0]
}

// Max returns the largest observation.
func (e *ECDF) Max() float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	return e.sorted[len(e.sorted)-1]
}

// Mean returns the arithmetic mean of the sample.
func (e *ECDF) Mean() float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range e.sorted {
		sum += v
	}
	return sum / float64(len(e.sorted))
}

// Point is one (X, P) evaluation of a CDF, suitable for plotting.
type Point struct {
	X float64 // value
	P float64 // cumulative probability P(X <= x)
}

// Curve evaluates the ECDF at n log- or linearly-spaced points between the
// sample min and max, returning a plottable curve. If logScale is true the
// evaluation points are geometrically spaced (all observations must be > 0).
func (e *ECDF) Curve(n int, logScale bool) ([]Point, error) {
	if len(e.sorted) == 0 {
		return nil, ErrEmpty
	}
	if n < 2 {
		return nil, fmt.Errorf("stats: curve needs n >= 2, got %d", n)
	}
	lo, hi := e.sorted[0], e.sorted[len(e.sorted)-1]
	pts := make([]Point, 0, n)
	if logScale {
		if lo <= 0 {
			// Clamp to the smallest positive observation.
			i := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > 0 })
			if i == len(e.sorted) {
				return nil, errors.New("stats: log-scale curve needs positive observations")
			}
			lo = e.sorted[i]
		}
		if hi <= lo {
			hi = lo * (1 + 1e-9)
		}
		ratio := math.Pow(hi/lo, 1/float64(n-1))
		x := lo
		for i := 0; i < n; i++ {
			pts = append(pts, Point{X: x, P: e.At(x)})
			x *= ratio
		}
		return pts, nil
	}
	step := (hi - lo) / float64(n-1)
	for i := 0; i < n; i++ {
		x := lo + float64(i)*step
		pts = append(pts, Point{X: x, P: e.At(x)})
	}
	return pts, nil
}

// Values returns a copy of the sorted sample.
func (e *ECDF) Values() []float64 {
	out := make([]float64, len(e.sorted))
	copy(out, e.sorted)
	return out
}
