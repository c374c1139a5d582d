package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// LogNormal samples from a log-normal distribution whose underlying normal
// has mean mu and standard deviation sigma.
func LogNormal(rng *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(rng.NormFloat64()*sigma + mu)
}

// LogNormalFromMedianP90 returns (mu, sigma) for a log-normal distribution
// with the given median and 90th percentile. Useful for encoding calibration
// targets stated as "median X, p90 Y".
func LogNormalFromMedianP90(median, p90 float64) (mu, sigma float64, err error) {
	if !(0 < median && median < p90) {
		return 0, 0, fmt.Errorf("stats: need 0 < median < p90, got %v, %v", median, p90)
	}
	mu = math.Log(median)
	const z90 = 1.2815515655446004 // Phi^-1(0.9)
	sigma = (math.Log(p90) - mu) / z90
	return mu, sigma, nil
}

// Pareto samples from a Pareto(Type I) distribution with scale xm > 0 and
// shape alpha > 0.
func Pareto(rng *rand.Rand, xm, alpha float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Zipf is the distribution of ranks in [0, n) with probability
// proportional to 1/(rank+1)^s. It precomputes the CDF once.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a Zipf distribution over n ranks with exponent s >= 0.
func NewZipf(n int, s float64) (*Zipf, error) {
	if n < 1 {
		return nil, fmt.Errorf("stats: zipf needs n >= 1, got %d", n)
	}
	if s < 0 || math.IsNaN(s) {
		return nil, fmt.Errorf("stats: zipf needs s >= 0, got %v", s)
	}
	cdf := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1 // guard against float rounding
	return &Zipf{cdf: cdf}, nil
}

// Prob returns the probability mass of the given rank.
func (z *Zipf) Prob(rank int) float64 {
	if rank < 0 || rank >= len(z.cdf) {
		return 0
	}
	if rank == 0 {
		return z.cdf[0]
	}
	return z.cdf[rank] - z.cdf[rank-1]
}

// FitZipf estimates the Zipf exponent s of a sorted-descending count vector
// by least-squares regression of log(count) on log(rank) over the top ranks
// with nonzero counts. Returns NaN when fewer than two usable ranks exist.
func FitZipf(countsDesc []int64) float64 {
	lx, ly := make([]float64, 0, len(countsDesc)), make([]float64, 0, len(countsDesc))
	for i, c := range countsDesc {
		if c <= 0 {
			break
		}
		lx = append(lx, math.Log(float64(i+1)))
		ly = append(ly, math.Log(float64(c)))
	}
	if len(lx) < 2 {
		return math.NaN()
	}
	// Slope of the regression line; Zipf exponent is its negation.
	mx, my := Mean(lx), Mean(ly)
	var sxy, sxx float64
	for i := range lx {
		sxy += (lx[i] - mx) * (ly[i] - my)
		sxx += (lx[i] - mx) * (lx[i] - mx)
	}
	if sxx == 0 {
		return math.NaN()
	}
	return -sxy / sxx
}

// WeightedChoice draws an index in [0, len(weights)) with probability
// proportional to weights[i]. Negative weights are treated as zero. A draw
// over all-zero weights returns uniformly.
func WeightedChoice(rng *rand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		return rng.Intn(len(weights))
	}
	u := rng.Float64() * total
	var acc float64
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}
