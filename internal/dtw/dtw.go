// Package dtw implements Dynamic Time Warping, the time-series similarity
// measure the paper uses to cluster per-object request-count time series
// (§IV-B): "DTW uses a dynamic programming approach to obtain a minimum
// distance alignment between two time series".
//
// One kernel serves the full O(N·M) dynamic program, its Sakoe-Chiba
// banded variant and the pairwise-distance matrix the agglomerative
// clustering consumes: it visits only the cells inside per-row integer
// band bounds (an unbanded run is a band that covers every cell), for
// four pairs at a time that share their first series.
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
// dynamic program (no band), on a fresh kernel whose spare lanes repeat b.
func Distance(a, b []float64) (float64, error) {
	for i, s := range [2][]float64{a, b} {
		if err := checkFinite(i, s); err != nil {
			return 0, err
		}
	}
	var k kernel
	var d [1]float64
	err := k.distances(a, [][]float64{b}, -1, d[:])
	return d[0], err
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

// lane holds one cell, or one sample, of each of the pairs the kernel
// runs through one dynamic program together — one series a against
// lanes series b of one length: their rows and b samples are
// interleaved lane by lane. The kernel's inner loop is unrolled by hand
// for four.
type lane [4]float64

// lanes is how many pairs the kernel advances per sweep.
const lanes = len(lane{})

// kernel is one evaluator's reusable state: the two rolling rows of the
// dynamic program, the interleaved b samples, and the band bounds of the
// last shape it ran, so a run of same-shaped pairs — a whole matrix of
// hour-of-week series — derives the bounds once and allocates nothing
// per pair.
type kernel struct {
	// n, m, radius is the shape lo and hi describe.
	n, m, radius int
	// Row i admits columns lo[i]..hi[i] (none when lo[i] > hi[i], and
	// then lo[i] == hi[i]+1); both are non-decreasing in i. hi carries
	// one extra entry, hi[n] = m-1, the columns read after the last row.
	lo, hi []int
	// rows backs the two rolling rows of m+1 lane cells each: column j
	// lives at index j+1, index 0 is the column left of the matrix.
	rows []lane
	// b holds the lanes' b series, interleaved: b[j][l] is sample j of
	// lane l's. It shares one allocation with rows.
	b []lane
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
	cells := slices.Grow(k.rows[:0], 3*m+2)[:3*m+2]
	k.rows, k.b = cells[:2*(m+1)], cells[2*(m+1):]
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

// distances runs the dynamic program over the band cells of a×bs[l] for
// every l at once and stores the distances in d[:len(bs)]. bs holds 1 to
// lanes series of one length; lanes past len(bs) repeat its last. On
// failure it returns the error of the first failing pair, which is that
// of every failing pair: all share their lengths.
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
// NaN and no negative zero ever reaches a comparison, and the order of
// a min cannot change its result.
func (k *kernel) distances(a []float64, bs [][]float64, radius int, d []float64) error {
	n, m := len(a), len(bs[0])
	if n == 0 || m == 0 {
		return ErrEmptySeries
	}
	k.setShape(n, m, radius)
	for l := range lanes {
		for j, v := range bs[min(l, len(bs)-1)][:m] {
			k.b[j][l] = v
		}
	}
	inf := math.Inf(1)
	infs := lane{inf, inf, inf, inf}
	prev, cur := k.rows[:m+1], k.rows[m+1:]
	// The row above the matrix: only the corner left of column 0 is a
	// predecessor, of cell (0, 0), at cost zero.
	prev[0] = lane{}
	for j := 0; j <= k.hi[0]; j++ {
		prev[j+1] = infs
	}
	for i, ai := range a {
		lo, hi := k.lo[i], k.hi[i]
		cur[lo] = infs
		band := k.b[lo : hi+1]
		diag := prev[lo:][:len(band)]
		up := prev[lo+1:][:len(band)]
		out := cur[lo+1:][:len(band)]
		// The four lanes' left cells are four dependency chains the
		// branchless min lets overlap.
		l0, l1, l2, l3 := inf, inf, inf, inf
		for j := range band {
			b, u, g := &band[j], &up[j], &diag[j]
			l0 = math.Abs(ai-b[0]) + min(min(u[0], g[0]), l0)
			l1 = math.Abs(ai-b[1]) + min(min(u[1], g[1]), l1)
			l2 = math.Abs(ai-b[2]) + min(min(u[2], g[2]), l2)
			l3 = math.Abs(ai-b[3]) + min(min(u[3], g[3]), l3)
			out[j] = lane{l0, l1, l2, l3}
		}
		for j := hi + 1; j <= k.hi[i+1]; j++ {
			cur[j+1] = infs
		}
		prev, cur = cur, prev
	}
	for l := range d {
		if math.IsInf(prev[m][l], 1) {
			return fmt.Errorf("dtw: band radius too small for series of lengths %d, %d", n, m)
		}
		d[l] = prev[m][l]
	}
	return nil
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
// on its own kernel, which takes the row's pairs in groups of up to
// lanes, cut short at a change of length. The call allocates the matrix
// and a constant amount per worker, nothing per pair. On failure the
// error is that of the first failing pair in row-major order, whatever
// the worker count.
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
				for j := i + 1; j < n; {
					// A group: up to lanes pairs of row i whose b series
					// share a length, written straight into the row.
					g := j + 1
					for g < n && g-j < lanes && len(series[g]) == len(series[j]) {
						g++
					}
					if err := k.distances(series[i], series[j:g], opts.BandRadius, dist[i][j:g]); err != nil {
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
					for ; j < g; j++ {
						dist[j][i] = dist[i][j]
					}
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
