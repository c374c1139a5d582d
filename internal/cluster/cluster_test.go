package cluster

import (
	"math"
	"math/rand"
	"testing"
)

// matFromPoints builds a Euclidean distance matrix over 1-D points.
func matFromPoints(pts []float64) [][]float64 {
	n := len(pts)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			m[i][j] = math.Abs(pts[i] - pts[j])
		}
	}
	return m
}

// twoBlobs returns points forming two well-separated 1-D clusters.
func twoBlobs() []float64 {
	return []float64{0, 0.1, 0.2, 0.15, 10, 10.1, 10.2, 10.05}
}

func TestAgglomerativeValidation(t *testing.T) {
	if _, err := Agglomerative(nil, LinkageAverage); err == nil {
		t.Error("empty matrix should error")
	}
	// Non-square.
	if _, err := Agglomerative([][]float64{{0, 1}}, LinkageAverage); err == nil {
		t.Error("non-square should error")
	}
	// Asymmetric.
	bad := [][]float64{{0, 1}, {2, 0}}
	if _, err := Agglomerative(bad, LinkageAverage); err == nil {
		t.Error("asymmetric should error")
	}
	// Nonzero diagonal.
	bad2 := [][]float64{{1, 1}, {1, 0}}
	if _, err := Agglomerative(bad2, LinkageAverage); err == nil {
		t.Error("nonzero diagonal should error")
	}
	// Negative entry.
	bad3 := [][]float64{{0, -1}, {-1, 0}}
	if _, err := Agglomerative(bad3, LinkageAverage); err == nil {
		t.Error("negative entry should error")
	}
}

func TestAgglomerativeStructure(t *testing.T) {
	pts := twoBlobs()
	for _, linkage := range []Linkage{LinkageSingle, LinkageComplete, LinkageAverage, LinkageWard} {
		t.Run(linkage.String(), func(t *testing.T) {
			d, err := Agglomerative(matFromPoints(pts), linkage)
			if err != nil {
				t.Fatal(err)
			}
			if d.Leaves != len(pts) {
				t.Errorf("Leaves = %d", d.Leaves)
			}
			if len(d.Merges) != len(pts)-1 {
				t.Fatalf("merges = %d, want %d", len(d.Merges), len(pts)-1)
			}
			// Heights nondecreasing (all four linkages are monotone).
			hs := d.Heights()
			for i := 1; i < len(hs); i++ {
				if hs[i] < hs[i-1]-1e-9 {
					t.Errorf("heights not monotone: %v", hs)
				}
			}
			// Final merge contains all leaves.
			if d.Merges[len(d.Merges)-1].Size != len(pts) {
				t.Error("last merge must span all leaves")
			}
		})
	}
}

func TestCutKTwoBlobs(t *testing.T) {
	pts := twoBlobs()
	dist := matFromPoints(pts)
	d, err := Agglomerative(dist, LinkageAverage)
	if err != nil {
		t.Fatal(err)
	}
	labels, k, err := d.CutK(2)
	if err != nil {
		t.Fatal(err)
	}
	if k != 2 {
		t.Fatalf("k = %d", k)
	}
	// All low points share a label; all high points share the other.
	for i := 1; i < 4; i++ {
		if labels[i] != labels[0] {
			t.Errorf("low blob split: %v", labels)
		}
	}
	for i := 5; i < 8; i++ {
		if labels[i] != labels[4] {
			t.Errorf("high blob split: %v", labels)
		}
	}
	if labels[0] == labels[4] {
		t.Errorf("blobs merged: %v", labels)
	}
}

func TestCutKBounds(t *testing.T) {
	d, _ := Agglomerative(matFromPoints(twoBlobs()), LinkageAverage)
	if _, _, err := d.CutK(0); err == nil {
		t.Error("k=0 should error")
	}
	if _, _, err := d.CutK(9); err == nil {
		t.Error("k>leaves should error")
	}
	labels, k, err := d.CutK(8)
	if err != nil || k != 8 {
		t.Fatalf("k=leaves: %v, %d", err, k)
	}
	seen := map[int]bool{}
	for _, l := range labels {
		seen[l] = true
	}
	if len(seen) != 8 {
		t.Error("k=leaves should give singleton clusters")
	}
	labels, k, err = d.CutK(1)
	if err != nil || k != 1 {
		t.Fatalf("k=1: %v, %d", err, k)
	}
	for _, l := range labels {
		if l != 0 {
			t.Error("k=1 should give one cluster")
		}
	}
}

func TestExtractMedoids(t *testing.T) {
	pts := twoBlobs()
	dist := matFromPoints(pts)
	d, _ := Agglomerative(dist, LinkageAverage)
	labels, _, err := d.CutK(2)
	if err != nil {
		t.Fatal(err)
	}
	clusters, err := Extract(dist, labels)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 2 {
		t.Fatalf("clusters = %d", len(clusters))
	}
	for _, c := range clusters {
		// Medoid must be a member.
		found := false
		for _, m := range c.Members {
			if m == c.Medoid {
				found = true
			}
		}
		if !found {
			t.Errorf("medoid %d not in members %v", c.Medoid, c.Members)
		}
		// Medoid minimizes summed distance within the cluster.
		sum := func(i int) float64 {
			var s float64
			for _, j := range c.Members {
				s += dist[i][j]
			}
			return s
		}
		for _, m := range c.Members {
			if sum(m) < sum(c.Medoid)-1e-9 {
				t.Errorf("member %d beats medoid %d", m, c.Medoid)
			}
		}
	}
}

func TestExtractValidation(t *testing.T) {
	dist := matFromPoints([]float64{1, 2})
	if _, err := Extract(dist, []int{0}); err == nil {
		t.Error("label/matrix size mismatch should error")
	}
	if _, err := Extract([][]float64{{0, 1}}, []int{0, 0}); err == nil {
		t.Error("bad matrix should error")
	}
}

// Property-style test: for random point sets, CutK(k) always yields
// exactly k clusters and every label is in [0, k).
func TestCutKLabelRangeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(20)
		pts := make([]float64, n)
		for i := range pts {
			pts[i] = rng.Float64() * 100
		}
		d, err := Agglomerative(matFromPoints(pts), LinkageComplete)
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(n)
		labels, got, err := d.CutK(k)
		if err != nil {
			t.Fatal(err)
		}
		if got != k {
			t.Fatalf("got %d clusters, want %d", got, k)
		}
		for _, l := range labels {
			if l < 0 || l >= k {
				t.Fatalf("label %d out of range [0,%d)", l, k)
			}
		}
	}
}
