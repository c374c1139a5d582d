package dtw

import (
	"fmt"
	"math"
)

// absDiff is the point-wise cost function: |a - b|, the "area between the
// time warped time series" interpretation used by the paper.
func absDiff(a, b float64) float64 { return math.Abs(a - b) }

// referenceDistance is the kernel this package shipped before the band
// became a real band, kept verbatim as the oracle of the differential
// tests: it visits all n×m cells and asks a float predicate of each.
// radius < 0 disables the band.
func referenceDistance(a, b []float64, radius int) (float64, error) {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return 0, ErrEmptySeries
	}
	inf := math.Inf(1)

	inBand := func(i, j int) bool {
		if radius < 0 {
			return true
		}
		// Scale the diagonal for unequal lengths.
		center := float64(i) * float64(m-1) / math.Max(1, float64(n-1))
		return math.Abs(center-float64(j)) <= float64(radius)
	}

	prev := make([]float64, m)
	cur := make([]float64, m)
	for j := range prev {
		prev[j] = inf
	}
	for i := 0; i < n; i++ {
		for j := range cur {
			cur[j] = inf
		}
		for j := 0; j < m; j++ {
			if !inBand(i, j) {
				continue
			}
			cost := absDiff(a[i], b[j])
			var best float64
			switch {
			case i == 0 && j == 0:
				best = 0
			case i == 0:
				best = cur[j-1]
			case j == 0:
				best = prev[j]
			default:
				best = math.Min(prev[j], math.Min(cur[j-1], prev[j-1]))
			}
			if math.IsInf(best, 1) {
				continue
			}
			cur[j] = cost + best
		}
		prev, cur = cur, prev
	}
	d := prev[m-1]
	if math.IsInf(d, 1) {
		return 0, fmt.Errorf("dtw: band radius too small for series of lengths %d, %d", n, m)
	}
	return d, nil
}

// referenceInBand is referenceDistance's per-cell predicate, for the
// brute-force check of the integer band bounds.
func referenceInBand(n, m, radius, i, j int) bool {
	center := float64(i) * float64(m-1) / math.Max(1, float64(n-1))
	return math.Abs(center-float64(j)) <= float64(radius)
}

// referenceMatrix is the pairwise matrix by the reference kernel.
func referenceMatrix(series [][]float64, radius int) ([][]float64, error) {
	dist := make([][]float64, len(series))
	for i := range dist {
		dist[i] = make([]float64, len(series))
	}
	for i := range series {
		for j := i + 1; j < len(series); j++ {
			d, err := referenceDistance(series[i], series[j], radius)
			if err != nil {
				return nil, err
			}
			dist[i][j], dist[j][i] = d, d
		}
	}
	return dist, nil
}
