package trafficscope_test

import (
	"fmt"
	"slices"
	"time"

	"trafficscope"
)

// ExampleNewStudy runs the full reproduction pipeline at a tiny scale
// and reads one headline number from the results. README.md's library
// snippet is this function's body.
func ExampleNewStudy() {
	study, err := trafficscope.NewStudy(trafficscope.Config{Seed: 42, Scale: 0.002, Salt: "example"})
	if err != nil {
		panic(err)
	}
	results, err := study.Run() // generate -> CDN replay -> all analyses
	if err != nil {
		panic(err)
	}
	fmt.Println(len(results.AllFigureTables()), "figure tables")
	// Or typed access, e.g. the Fig. 2a request composition:
	b := results.Composition().Site("V-1")
	fmt.Printf("V-1 video request share above 90%%: %v\n",
		b.RequestFrac(trafficscope.CategoryVideo) > 0.9)
	// Output:
	// 20 figure tables
	// V-1 video request share above 90%: true
}

// ExampleConfig_sessionTimeout sessionizes one week at three timeouts:
// the gap that ends a session decides what a "session" is. The paper
// takes 10 minutes from the knee of the inter-arrival times (Fig. 11).
func ExampleConfig_sessionTimeout() {
	for _, timeout := range []time.Duration{time.Minute, 10 * time.Minute, time.Hour} {
		study, err := trafficscope.NewStudy(trafficscope.Config{
			Seed: 5, Scale: 0.002, SessionTimeout: timeout, Figures: []int{12},
		})
		if err != nil {
			panic(err)
		}
		results, err := study.Run()
		if err != nil {
			panic(err)
		}
		sessions := results.Sessions()
		fmt.Printf("timeout %v: %d V-1 sessions, %.2f requests/session\n",
			timeout, len(sessions.SessionsOf("V-1")), sessions.MeanRequestsPerSession("V-1"))
	}
	// Output:
	// timeout 1m0s: 2671 V-1 sessions, 2.28 requests/session
	// timeout 10m0s: 1578 V-1 sessions, 3.85 requests/session
	// timeout 1h0m0s: 1499 V-1 sessions, 4.06 requests/session
}

// ExampleDTWDistance shows the warping invariance that motivates DTW for
// request time-series clustering: a shifted spike costs nothing.
func ExampleDTWDistance() {
	a := []float64{0, 0, 1, 0, 0}
	b := []float64{0, 0, 0, 1, 0}
	d, err := trafficscope.DTWDistance(a, b)
	if err != nil {
		panic(err)
	}
	fmt.Println(d)
	// Output:
	// 0
}

// ExampleNewLRU exercises the cache interface every cache in the
// simulator shares, on two objects numbered as slots 0 and 1.
func ExampleNewLRU() {
	cache := trafficscope.NewLRU(100)
	now := time.Now()
	const a, b = 0, 1
	fmt.Println(cache.Access(a, 60, now)) // cold: miss
	fmt.Println(cache.Access(a, 60, now)) // resident: hit
	cache.Access(b, 60, now)              // evicts a (capacity 100)
	fmt.Println(cache.Contains(a))
	// Output:
	// false
	// true
	// false
}

// ExampleNewGenerator generates a synthetic week twice from one seed:
// the same config yields the same records, in timestamp order.
func ExampleNewGenerator() {
	generate := func() []*trafficscope.Record {
		gen, err := trafficscope.NewGenerator(trafficscope.GeneratorConfig{Seed: 7, Scale: 0.001})
		if err != nil {
			panic(err)
		}
		recs, err := gen.Generate()
		if err != nil {
			panic(err)
		}
		return recs
	}
	recs, again := generate(), generate()
	same := slices.EqualFunc(recs, again, func(a, b *trafficscope.Record) bool { return *a == *b })
	fmt.Printf("deterministic: %v, sorted: %v, nonempty: %v\n",
		same, isSorted(recs), len(recs) > 0)
	// Output:
	// deterministic: true, sorted: true, nonempty: true
}

func isSorted(recs []*trafficscope.Record) bool {
	for i := 1; i < len(recs); i++ {
		if recs[i].Timestamp.Before(recs[i-1].Timestamp) {
			return false
		}
	}
	return true
}

// ExampleAgglomerative clusters a tiny distance matrix and cuts the
// dendrogram into two clusters.
func ExampleAgglomerative() {
	dist := [][]float64{
		{0, 1, 8, 9},
		{1, 0, 9, 8},
		{8, 9, 0, 1},
		{9, 8, 1, 0},
	}
	dendro, err := trafficscope.Agglomerative(dist, trafficscope.LinkageAverage)
	if err != nil {
		panic(err)
	}
	labels, k, err := dendro.CutK(2)
	if err != nil {
		panic(err)
	}
	fmt.Println(k, labels[0] == labels[1], labels[2] == labels[3], labels[0] != labels[2])
	// Output:
	// 2 true true true
}
