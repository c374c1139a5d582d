package trafficscope

import (
	"bytes"
	"testing"
	"time"
)

// TestPublicAPIEndToEnd exercises the root package exactly the way the
// README quickstart does.
func TestPublicAPIEndToEnd(t *testing.T) {
	study, err := NewStudy(Config{Seed: 1, Scale: 0.003, Salt: "api"})
	if err != nil {
		t.Fatal(err)
	}
	results, err := study.Run()
	if err != nil {
		t.Fatal(err)
	}
	if results.Records == 0 {
		t.Fatal("no records")
	}
	if len(results.SiteNames()) != 5 {
		t.Errorf("sites = %v", results.SiteNames())
	}
	if tab := results.Fig01ContentComposition(); tab.String() == "" {
		t.Error("figure rendering")
	}
}

func TestPublicCodecRoundTrip(t *testing.T) {
	gen, err := NewGenerator(GeneratorConfig{Seed: 2, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewJSONWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll(NewJSONReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Errorf("round trip %d != %d", len(back), len(recs))
	}
}

func TestPublicDTWAndClustering(t *testing.T) {
	a := []float64{0, 1, 2, 1, 0}
	b := []float64{0, 0, 1, 2, 1}
	d, err := DTWDistance(a, b)
	if err != nil {
		t.Fatal(err)
	}
	db, err := DTWDistanceBand(a, b, 5)
	if err != nil {
		t.Fatal(err)
	}
	if db < d {
		t.Errorf("banded %v < full %v", db, d)
	}
	dist := [][]float64{{0, 1, 9}, {1, 0, 9}, {9, 9, 0}}
	dendro, err := Agglomerative(dist, LinkageAverage)
	if err != nil {
		t.Fatal(err)
	}
	labels, k, err := dendro.CutK(2)
	if err != nil || k != 2 {
		t.Fatalf("cut: %v %d", err, k)
	}
	if labels[0] != labels[1] || labels[0] == labels[2] {
		t.Errorf("labels = %v", labels)
	}
}

func TestPublicCachePolicies(t *testing.T) {
	now := time.Now()
	for _, c := range []Cache{NewLRU(1000), NewLFU(1000), NewFIFO(1000)} {
		c.Access(1, 10, now)
		if !c.Access(1, 10, now) {
			t.Errorf("%s: re-access missed", c.Name())
		}
	}
	slru, err := NewSLRU(1000, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	ttl, err := NewTTLCache(slru, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	split, err := NewSplitCache(NewLRU(100), NewLRU(1000), 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []Cache{ttl, split} {
		c.Access(2, 10, now)
		if !c.Access(2, 10, now) {
			t.Errorf("%s: re-access missed", c.Name())
		}
	}
}

func TestDefaultProfilesExposed(t *testing.T) {
	if len(DefaultProfiles()) != 5 {
		t.Error("want 5 profiles")
	}
	p, err := ProfileByName("S-1")
	if err != nil || p.Name != "S-1" {
		t.Errorf("ProfileByName: %v %v", p.Name, err)
	}
	w := NewWeek(DefaultWeekStart)
	if !w.Contains(DefaultWeekStart.Add(time.Hour)) {
		t.Error("week window")
	}
}
