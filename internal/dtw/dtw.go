// Package dtw implements Dynamic Time Warping, the time-series similarity
// measure the paper uses to cluster per-object request-count time series
// (§IV-B): "DTW uses a dynamic programming approach to obtain a minimum
// distance alignment between two time series".
//
// The package provides the full O(N·M) dynamic program, a Sakoe-Chiba
// banded variant for large series, and the pairwise-distance matrix the
// agglomerative clustering consumes.
package dtw

import (
	"errors"
	"fmt"
	"math"
)

// ErrEmptySeries is returned when either input series is empty.
var ErrEmptySeries = errors.New("dtw: empty series")

// absDiff is the point-wise cost function: |a - b|, the "area between the
// time warped time series" interpretation used by the paper.
func absDiff(a, b float64) float64 { return math.Abs(a - b) }

// Distance computes the DTW distance between a and b with the full
// dynamic program (no band).
func Distance(a, b []float64) (float64, error) {
	return compute(a, b, -1)
}

// DistanceBand computes the DTW distance constrained to a Sakoe-Chiba band
// of the given radius: cell (i, j) is admissible only when
// |i*M/N - j| <= radius (band scaled for unequal lengths). A radius
// covering the full matrix reproduces the unconstrained distance. The
// banded distance is always >= the unconstrained distance.
func DistanceBand(a, b []float64, radius int) (float64, error) {
	if radius < 0 {
		return 0, fmt.Errorf("dtw: negative band radius %d", radius)
	}
	return compute(a, b, radius)
}

// compute runs the DP over two rolling rows. radius < 0 disables the
// band.
func compute(a, b []float64, radius int) (float64, error) {
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

// PairwiseOptions configures PairwiseDistances.
type PairwiseOptions struct {
	// BandRadius constrains the DTW computation to a Sakoe-Chiba band;
	// negative means unconstrained.
	BandRadius int
	// Workers is the parallelism degree; values < 1 mean single-threaded.
	Workers int
}

// PairwiseDistances computes the symmetric DTW distance matrix of the
// given series. The diagonal is zero. The returned matrix is fully
// populated (both triangles).
func PairwiseDistances(series [][]float64, opts PairwiseOptions) ([][]float64, error) {
	n := len(series)
	for i, s := range series {
		if len(s) == 0 {
			return nil, fmt.Errorf("dtw: series %d is empty", i)
		}
	}
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
	}
	type job struct{ i, j int }
	jobs := make([]job, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			jobs = append(jobs, job{i, j})
		}
	}
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(jobs) && len(jobs) > 0 {
		workers = len(jobs)
	}
	errCh := make(chan error, 1)
	jobCh := make(chan job)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			for jb := range jobCh {
				d, err := compute(series[jb.i], series[jb.j], opts.BandRadius)
				if err != nil {
					select {
					case errCh <- err:
					default:
					}
					continue
				}
				dist[jb.i][jb.j] = d
				dist[jb.j][jb.i] = d
			}
			done <- struct{}{}
		}()
	}
	for _, jb := range jobs {
		jobCh <- jb
	}
	close(jobCh)
	for w := 0; w < workers; w++ {
		<-done
	}
	select {
	case err := <-errCh:
		return nil, err
	default:
	}
	return dist, nil
}
