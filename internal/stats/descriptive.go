package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum
}

// Normalize returns xs scaled so the entries sum to one. A zero-sum or
// empty input yields a copy of the input unchanged.
func Normalize(xs []float64) []float64 {
	out := make([]float64, len(xs))
	sum := Sum(xs)
	if sum == 0 {
		copy(out, xs)
		return out
	}
	for i, x := range xs {
		out[i] = x / sum
	}
	return out
}

// Pearson returns the Pearson product-moment correlation coefficient of the
// paired samples xs and ys. It returns NaN when the inputs differ in
// length, have fewer than two points, or either sample has zero variance.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Spearman returns Spearman's rank correlation coefficient: the Pearson
// correlation of the fractional ranks of the two samples. Ties receive the
// mean of the ranks they span.
func Spearman(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	return Pearson(Ranks(xs), Ranks(ys))
}

// Ranks returns the fractional (mid) ranks of xs, 1-based. Tied values all
// receive the average of the rank range they occupy.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Average 1-based rank over the tie run [i, j].
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}
