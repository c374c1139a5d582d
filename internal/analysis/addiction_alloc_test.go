package analysis

import (
	"runtime/debug"
	"sync"
	"testing"

	"trafficscope/internal/trace"
)

// addictionOf draws 3 × 200 × perUser requests of one V-1 video
// population: each of 200 users asks three times for each of perUser of
// 200 objects, so the requests hold 200 × perUser distinct (object,
// user) pairs over the same 400 keys whatever perUser is. They carry
// dense keys, as generated records do, so that the keyspace resolves
// them without numbering.
func addictionOf(perUser int) []*trace.Record {
	const keys = 200
	var recs []*trace.Record
	for i := 0; i < 3; i++ {
		for u := 0; u < keys; u++ {
			for j := 0; j < perUser; j++ {
				obj := (u + j) % keys
				r := rec("V-1", uint64(obj), uint64(u), trace.FileMP4, 1000, (u+i*7)%160)
				r.ObjectKey, r.UserKey = uint32(obj)+1, uint32(u)+1
				recs = append(recs, r)
			}
		}
	}
	return recs
}

// TestAddictionQueriesCountOnce is TestSessionsQueriesSortOnce for the
// pair log: folding allocates a chunk of the log at a time and never per
// pair, and once the first query has counted the log, a Scatter and a
// FracObjectsAbove allocate their points and nothing per pair, so ten
// times the pairs over the same keys cost the same handful of
// allocations. The collector is off: a cycle that ends mid-fold runs the
// runtime's post-collection cleanups (the unique package's map cleanup
// allocates two objects), which count too — at random under -race, where
// the slower fold meets more cycles.
func TestAddictionQueriesCountOnce(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	measure := func(perUser int) (fold, query float64, chunks int) {
		recs := addictionOf(perUser)
		var a *Addiction
		fold = testing.AllocsPerRun(1, func() {
			a = newAddiction(0)
			for _, r := range recs {
				a.Add(r)
			}
		})
		chunks = len(a.sites[0][0].log.chunks)
		pts := a.Scatter("V-1", trace.CategoryVideo)
		if len(pts) != 200 || pts[0].Requests != int64(3*perUser) || pts[0].Users != int64(perUser) {
			t.Fatalf("%d pairs a user: %d scatter points, first %+v; want 200 of %d requests by %d users",
				perUser, len(pts), pts[0], 3*perUser, perUser)
		}
		query = testing.AllocsPerRun(5, func() {
			if len(a.Scatter("V-1", trace.CategoryVideo)) != 200 || a.FracObjectsAbove("V-1", trace.CategoryVideo, 2) != 1 {
				t.Fatal("queries lost the pairs")
			}
		})
		return fold, query, chunks
	}
	fewFold, fewQuery, fewChunks := measure(10)
	manyFold, manyQuery, manyChunks := measure(100)
	t.Logf("fold: %v allocations for %d log chunks at 2000 pairs, %v for %d at 20000", fewFold, fewChunks, manyFold, manyChunks)
	t.Logf("allocations per Scatter + FracObjectsAbove: %v at 2000 pairs, %v at 20000", fewQuery, manyQuery)
	if few, many := fewFold-float64(fewChunks), manyFold-float64(manyChunks); many > few+2 {
		t.Errorf("fold allocates %v times beyond its log chunks at 20000 pairs, %v at 2000: want growth with chunks, not pairs", many, few)
	}
	if manyQuery > fewQuery+2 || manyQuery > 8 {
		t.Errorf("queries allocate %v times at 20000 pairs, %v at 2000: want the same handful", manyQuery, fewQuery)
	}
}

// TestAddictionConcurrentQueries runs the first queries of a freshly
// folded Addiction from two goroutines, which both find the log unsorted:
// the race detector checks the lazy count, and both must read what one
// query alone reads.
func TestAddictionConcurrentQueries(t *testing.T) {
	recs := addictionOf(20)
	alone, shared := newAddiction(0), newAddiction(0)
	for _, r := range recs {
		alone.Add(r)
		shared.Add(r)
	}
	want := alone.Scatter("V-1", trace.CategoryVideo)
	wantFrac := alone.FracObjectsAbove("V-1", trace.CategoryVideo, 2)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := shared.FracObjectsAbove("V-1", trace.CategoryVideo, 2); got != wantFrac {
				t.Errorf("FracObjectsAbove = %v, want %v", got, wantFrac)
			}
			if got := shared.Scatter("V-1", trace.CategoryVideo); len(got) != len(want) {
				t.Errorf("Scatter has %d points, want %d", len(got), len(want))
			}
		}()
	}
	wg.Wait()
}
