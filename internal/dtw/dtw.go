// Package dtw implements Dynamic Time Warping, the time-series similarity
// measure the paper uses to cluster per-object request-count time series
// (§IV-B): "DTW uses a dynamic programming approach to obtain a minimum
// distance alignment between two time series".
//
// One kernel serves the full O(N·M) dynamic program, its Sakoe-Chiba
// banded variant and the pairwise-distance matrix the agglomerative
// clustering consumes: it visits only the cells inside per-row integer
// band bounds (an unbanded run is a band that covers every cell).
package dtw

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// ErrEmptySeries is returned when either input series is empty.
var ErrEmptySeries = errors.New("dtw: empty series")

// ErrNonFinite is returned (wrapped, naming the series and the sample)
// when an input holds a NaN or an infinity: no alignment cost is defined
// for it, and the kernel's comparisons would silently skip it.
var ErrNonFinite = errors.New("dtw: non-finite sample")

// Distance computes the DTW distance between a and b with the full
// dynamic program (no band).
func Distance(a, b []float64) (float64, error) {
	return distance(a, b, -1)
}

// DistanceBand computes the DTW distance constrained to a Sakoe-Chiba band
// of the given radius: cell (i, j) is admissible only when
// |i*(M-1)/(N-1) - j| <= radius (band scaled for unequal lengths). A
// radius covering the full matrix reproduces the unconstrained distance.
// The banded distance is always >= the unconstrained distance.
func DistanceBand(a, b []float64, radius int) (float64, error) {
	if radius < 0 {
		return 0, fmt.Errorf("dtw: negative band radius %d", radius)
	}
	return distance(a, b, radius)
}

// distance validates one pair and runs it on a fresh kernel.
func distance(a, b []float64, radius int) (float64, error) {
	for i, s := range [2][]float64{a, b} {
		if err := checkFinite(i, s); err != nil {
			return 0, err
		}
	}
	var k kernel
	return k.distance(a, b, radius)
}

// checkFinite reports the first NaN or infinite sample of series idx.
func checkFinite(idx int, s []float64) error {
	for at, v := range s {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w %v at index %d of series %d", ErrNonFinite, v, at, idx)
		}
	}
	return nil
}

// kernel is one evaluator's reusable state: the two rolling rows of the
// dynamic program and the band bounds of the last shape it ran, so a
// run of same-shaped pairs — a whole matrix of hour-of-week series —
// derives the bounds once and allocates nothing per pair.
type kernel struct {
	// n, m, radius is the shape lo and hi describe.
	n, m, radius int
	// Row i admits columns lo[i]..hi[i] (none when lo[i] > hi[i], and
	// then lo[i] == hi[i]+1); both are non-decreasing in i. hi carries
	// one extra entry, hi[n] = m-1, the columns read after the last row.
	lo, hi []int
	// rows backs the two rolling rows of m+1 cells each: column j lives
	// at index j+1, index 0 is the column left of the matrix.
	rows []float64
}

// setShape points the kernel at n×m matrices under the given radius
// (negative: no band). The bounds are the integer form of the per-cell
// predicate |i·(m−1)/max(1,n−1) − j| ≤ radius, evaluated with the same
// float expressions: splitting |d| ≤ r into d ≤ r (which bounds j from
// below) and d ≥ −r (from above) gives two conditions monotone in both i
// and j, so one forward sweep of each pointer settles every row.
func (k *kernel) setShape(n, m, radius int) {
	if n == k.n && m == k.m && radius == k.radius {
		return
	}
	k.n, k.m, k.radius = n, m, radius
	k.lo = slices.Grow(k.lo[:0], n)[:n]
	k.hi = slices.Grow(k.hi[:0], n+1)[:n+1]
	k.rows = slices.Grow(k.rows[:0], 2*(m+1))[:2*(m+1)]
	r := math.Inf(1)
	if radius >= 0 {
		r = float64(radius)
	}
	lo, hi := 0, 0
	for i := 0; i < n; i++ {
		center := float64(i) * float64(m-1) / math.Max(1, float64(n-1))
		// center <= m-1, so column m-1 always ends this loop; center >= 0,
		// so column 0 always satisfies the other side.
		for center-float64(lo) > r {
			lo++
		}
		for hi+1 < m && center-float64(hi+1) >= -r {
			hi++
		}
		k.lo[i], k.hi[i] = lo, hi
	}
	k.hi[n] = m - 1
}

// distance runs the dynamic program over the band cells of a×b.
//
// Each row writes its band cells and nothing else, so a cell outside
// the band holds whatever an earlier row or pair left there. What makes
// that safe is that row i+1 reads only columns lo[i+1]-1..hi[i+1] of
// row i, and the bounds never move left: row i sets column lo[i]-1 and
// columns hi[i]+1..hi[i+1] to +Inf — one cell each side for equal
// lengths — and those plus its band cover everything the next row reads.
//
// On finite input the result is bit-identical to filling the whole
// matrix with math.Min: every cell is a sum of absolute values, so no
// NaN and no negative zero ever reaches a comparison.
func (k *kernel) distance(a, b []float64, radius int) (float64, error) {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return 0, ErrEmptySeries
	}
	k.setShape(n, m, radius)
	inf := math.Inf(1)
	prev, cur := k.rows[:m+1], k.rows[m+1:]
	// The row above the matrix: only the corner left of column 0 is a
	// predecessor, of cell (0, 0), at cost zero.
	prev[0] = 0
	for j := 0; j <= k.hi[0]; j++ {
		prev[j+1] = inf
	}
	for i, ai := range a {
		lo, hi := k.lo[i], k.hi[i]
		cur[lo] = inf
		left, diag := inf, prev[lo]
		band := b[lo : hi+1]
		up := prev[lo+1:][:len(band)]
		out := cur[lo+1:][:len(band)]
		for j, bj := range band {
			u := up[j]
			best := u
			if diag < best {
				best = diag
			}
			if left < best {
				best = left
			}
			left = math.Abs(ai-bj) + best
			out[j] = left
			diag = u
		}
		for j := hi + 1; j <= k.hi[i+1]; j++ {
			cur[j+1] = inf
		}
		prev, cur = cur, prev
	}
	d := prev[m]
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
// populated (both triangles); its rows share one backing array.
//
// Workers claim whole rows of the upper triangle in ascending order —
// longest rows first, and series i stays cached across its row — each
// on its own kernel, so the call allocates the matrix and a constant
// amount per worker, nothing per pair. On failure the error is that of
// the first failing pair in row-major order, whatever the worker count.
func PairwiseDistances(series [][]float64, opts PairwiseOptions) ([][]float64, error) {
	n := len(series)
	for i, s := range series {
		if len(s) == 0 {
			return nil, fmt.Errorf("dtw: series %d is empty", i)
		}
		if err := checkFinite(i, s); err != nil {
			return nil, err
		}
	}
	slab := make([]float64, n*n)
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = slab[i*n : (i+1)*n : (i+1)*n]
	}
	var (
		nextRow atomic.Int64
		wg      sync.WaitGroup
		mu      sync.Mutex // guards failRow and failErr
		failRow = n        // the lowest row found to hold a failing pair
		failErr error
	)
	// Row n-1 of the upper triangle is empty: n-1 rows to hand out.
	for w := max(1, min(opts.Workers, n-1)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var k kernel
			for {
				i := int(nextRow.Add(1)) - 1
				if i >= n-1 {
					return
				}
				for j := i + 1; j < n; j++ {
					d, err := k.distance(series[i], series[j], opts.BandRadius)
					if err != nil {
						// Hand out no more rows. Rows are claimed in order
						// and finished once claimed, so every earlier row
						// still runs to its own first failure.
						nextRow.Store(int64(n))
						mu.Lock()
						if i < failRow {
							failRow, failErr = i, err
						}
						mu.Unlock()
						return
					}
					dist[i][j], dist[j][i] = d, d
				}
			}
		}()
	}
	wg.Wait()
	if failErr != nil {
		return nil, failErr
	}
	return dist, nil
}
