package core

import (
	"testing"
	"time"

	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// countingSource counts the passes a consumer makes over a source.
type countingSource struct {
	trace.Source
	opens int
}

func (c *countingSource) Open() (trace.Reader, error) {
	c.opens++
	return c.Source.Open()
}

// TestPassBudget pins how often each study entry point reads the week.
// With the generator as the source every pass is a full regeneration,
// so a pass added here is a generator run added to every report.
func TestPassBudget(t *testing.T) {
	study, err := NewStudy(Config{Seed: 42, Scale: 0.004})
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{Source: study.Source()}
	res, err := study.RunSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if src.opens != 2 {
		t.Errorf("RunSource opened its source %d times, want 2 (warm-up + measured)", src.opens)
	}
	if sites := len(res.SiteNames()); sites != 5 {
		t.Fatalf("study has %d sites, want 5", sites)
	}

	src.opens = 0
	if _, err := res.CrawlerBaselineTableSource(src, 24*time.Hour, 200); err != nil {
		t.Fatal(err)
	}
	if src.opens != 1 {
		t.Errorf("CrawlerBaselineTableSource opened its source %d times for 5 sites, want 1", src.opens)
	}

	src.opens = 0
	if _, err := res.ImplicationsTableSource(src); err != nil {
		t.Fatal(err)
	}
	if src.opens != 2 {
		t.Errorf("ImplicationsTableSource opened its source %d times for all its cells, want 2", src.opens)
	}

	// A user seen in two regions costs no extra pass.
	recs, err := study.Generator().Generate()
	if err != nil {
		t.Fatal(err)
	}
	moved := *recs[0]
	moved.Timestamp = recs[len(recs)-1].Timestamp
	moved.Region = timeutil.RegionAsia
	if recs[0].Region == timeutil.RegionAsia {
		moved.Region = timeutil.RegionEurope
	}
	unstable := &countingSource{Source: trace.SliceSource(append(recs, &moved))}
	if _, err := study.RunSource(unstable); err != nil {
		t.Fatal(err)
	}
	if unstable.opens != 2 {
		t.Errorf("RunSource opened a region-unstable source %d times, want 2", unstable.opens)
	}
}
