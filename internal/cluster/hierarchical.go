// Package cluster implements the clustering machinery of the paper's
// §IV-B content-popularity analysis: agglomerative hierarchical clustering
// over a precomputed distance matrix (the paper feeds it pairwise DTW
// distances), dendrogram construction and cutting, and medoid extraction.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Linkage selects how the distance between two merged clusters is defined.
type Linkage int

// Supported linkages.
const (
	// LinkageSingle uses the minimum pairwise distance.
	LinkageSingle Linkage = iota + 1
	// LinkageComplete uses the maximum pairwise distance.
	LinkageComplete
	// LinkageAverage uses the unweighted mean pairwise distance (UPGMA);
	// this is the linkage used for the paper's dendrograms.
	LinkageAverage
	// LinkageWard minimizes within-cluster variance (Ward's method via
	// the Lance-Williams update on squared distances).
	LinkageWard
)

// String returns the linkage name.
func (l Linkage) String() string {
	switch l {
	case LinkageSingle:
		return "single"
	case LinkageComplete:
		return "complete"
	case LinkageAverage:
		return "average"
	case LinkageWard:
		return "ward"
	default:
		return fmt.Sprintf("linkage(%d)", int(l))
	}
}

// Merge records one agglomeration step. Cluster IDs: leaves are 0..n-1;
// the merge at step k creates cluster n+k.
type Merge struct {
	// A and B are the cluster IDs merged at this step.
	A, B int
	// Height is the linkage distance at which the merge happened.
	Height float64
	// Size is the number of leaves in the merged cluster.
	Size int
}

// Dendrogram is the full agglomeration history of n leaves: exactly n-1
// merges with nondecreasing heights (for monotone linkages).
type Dendrogram struct {
	// Leaves is the number of observations clustered.
	Leaves int
	// Merges lists the n-1 agglomeration steps in order.
	Merges []Merge
}

// ErrBadMatrix indicates a malformed distance matrix.
var ErrBadMatrix = errors.New("cluster: distance matrix must be square, symmetric, nonnegative, zero-diagonal")

// validateMatrix checks the distance matrix shape and basic metric sanity.
func validateMatrix(dist [][]float64) error {
	n := len(dist)
	if n == 0 {
		return errors.New("cluster: empty distance matrix")
	}
	for i, row := range dist {
		if len(row) != n {
			return ErrBadMatrix
		}
		if row[i] != 0 {
			return ErrBadMatrix
		}
		for j := range row {
			if row[j] < 0 || math.IsNaN(row[j]) {
				return ErrBadMatrix
			}
			if math.Abs(row[j]-dist[j][i]) > 1e-9 {
				return ErrBadMatrix
			}
		}
	}
	return nil
}

// Agglomerative performs hierarchical clustering over the distance matrix
// with the given linkage, using the Lance-Williams recurrence. Runs in
// O(n^3) worst case, which is ample for the few-thousand-object
// populations of the paper's per-site analyses.
func Agglomerative(dist [][]float64, linkage Linkage) (*Dendrogram, error) {
	if err := validateMatrix(dist); err != nil {
		return nil, err
	}
	n := len(dist)

	// Working copy; Ward operates on squared distances.
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		copy(d[i], dist[i])
		if linkage == LinkageWard {
			for j := range d[i] {
				d[i][j] = dist[i][j] * dist[i][j]
			}
		}
	}

	active := make([]bool, n)   // is slot i an active cluster?
	size := make([]int, n)      // leaves under slot i
	clusterID := make([]int, n) // current dendrogram ID of slot i
	for i := range active {
		active[i] = true
		size[i] = 1
		clusterID[i] = i
	}

	dendro := &Dendrogram{Leaves: n, Merges: make([]Merge, 0, n-1)}
	for step := 0; step < n-1; step++ {
		// Find the closest active pair.
		bi, bj := -1, -1
		best := math.Inf(1)
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !active[j] {
					continue
				}
				if d[i][j] < best {
					best = d[i][j]
					bi, bj = i, j
				}
			}
		}
		height := best
		if linkage == LinkageWard {
			height = math.Sqrt(best)
		}
		dendro.Merges = append(dendro.Merges, Merge{
			A:      clusterID[bi],
			B:      clusterID[bj],
			Height: height,
			Size:   size[bi] + size[bj],
		})

		// Lance-Williams update: slot bi becomes the merged cluster.
		si, sj := float64(size[bi]), float64(size[bj])
		for k := 0; k < n; k++ {
			if !active[k] || k == bi || k == bj {
				continue
			}
			dik, djk := d[bi][k], d[bj][k]
			var nd float64
			switch linkage {
			case LinkageSingle:
				nd = math.Min(dik, djk)
			case LinkageComplete:
				nd = math.Max(dik, djk)
			case LinkageAverage:
				nd = (si*dik + sj*djk) / (si + sj)
			case LinkageWard:
				sk := float64(size[k])
				tot := si + sj + sk
				nd = ((si+sk)*dik + (sj+sk)*djk - sk*d[bi][bj]) / tot
			default:
				return nil, fmt.Errorf("cluster: unknown linkage %v", linkage)
			}
			d[bi][k], d[k][bi] = nd, nd
		}
		active[bj] = false
		size[bi] += size[bj]
		clusterID[bi] = n + step
	}
	return dendro, nil
}

// CutK cuts the dendrogram into exactly k clusters (1 <= k <= Leaves) by
// applying the first Leaves-k merges. It returns a label per leaf in
// [0, k), numbered by first appearance, and k.
func (d *Dendrogram) CutK(k int) ([]int, int, error) {
	if k < 1 || k > d.Leaves {
		return nil, 0, fmt.Errorf("cluster: k=%d outside [1, %d]", k, d.Leaves)
	}
	labels, got := d.cut(d.Leaves - k)
	if got != k {
		return nil, 0, fmt.Errorf("cluster: cut produced %d clusters, want %d", got, k)
	}
	return labels, got, nil
}

// cut applies the first n merges, then labels connected components.
func (d *Dendrogram) cut(n int) ([]int, int) {
	parent := make([]int, d.Leaves+len(d.Merges))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i, m := range d.Merges[:n] {
		newID := d.Leaves + i
		ra, rb := find(m.A), find(m.B)
		parent[ra] = newID
		parent[rb] = newID
	}
	labels := make([]int, d.Leaves)
	next := 0
	seen := map[int]int{}
	for leaf := 0; leaf < d.Leaves; leaf++ {
		root := find(leaf)
		id, ok := seen[root]
		if !ok {
			id = next
			seen[root] = id
			next++
		}
		labels[leaf] = id
	}
	return labels, next
}

// Heights returns the merge heights in order.
func (d *Dendrogram) Heights() []float64 {
	out := make([]float64, len(d.Merges))
	for i, m := range d.Merges {
		out[i] = m.Height
	}
	return out
}

// Cluster is one group of leaves with its medoid.
type Cluster struct {
	// Members lists leaf indices in ascending order.
	Members []int
	// Medoid is the member minimizing the summed distance to the other
	// members ("the most centrally located point of a cluster").
	Medoid int
}

// Extract groups leaves by label and computes each cluster's medoid using
// the distance matrix. Labels must come from a cut over the same matrix.
func Extract(dist [][]float64, labels []int) ([]Cluster, error) {
	if err := validateMatrix(dist); err != nil {
		return nil, err
	}
	if len(labels) != len(dist) {
		return nil, fmt.Errorf("cluster: %d labels for %d observations", len(labels), len(dist))
	}
	groups := map[int][]int{}
	for leaf, lab := range labels {
		groups[lab] = append(groups[lab], leaf)
	}
	labs := make([]int, 0, len(groups))
	for lab := range groups {
		labs = append(labs, lab)
	}
	sort.Ints(labs)
	out := make([]Cluster, 0, len(labs))
	for _, lab := range labs {
		members := groups[lab]
		sort.Ints(members)
		out = append(out, Cluster{Members: members, Medoid: medoid(dist, members)})
	}
	return out, nil
}

// medoid returns the member of members with the minimum summed distance to
// all other members; ties break toward the lowest index.
func medoid(dist [][]float64, members []int) int {
	best, bestSum := members[0], math.Inf(1)
	for _, i := range members {
		var sum float64
		for _, j := range members {
			sum += dist[i][j]
		}
		if sum < bestSum {
			best, bestSum = i, sum
		}
	}
	return best
}
