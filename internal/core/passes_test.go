package core

import (
	"errors"
	"testing"
	"time"

	"trafficscope/internal/obs"
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
	if src.opens != 0 {
		t.Errorf("CrawlerBaselineTableSource opened its source %d times for 5 sites, want 0 (it reads the fold's counts)", src.opens)
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

// measuredCut is a source whose second open, the measured pass of
// RunSource, fails after its first n records.
type measuredCut struct {
	trace.Source
	opens, n int
}

var errMeasuredCut = errors.New("measured pass cut")

func (m *measuredCut) Open() (trace.Reader, error) {
	r, err := m.Source.Open()
	if m.opens++; m.opens == 2 {
		return &cutReader{inner: r, n: m.n}, err
	}
	return r, err
}

// cutReader delivers the first n records of its inner reader, then
// fails.
type cutReader struct {
	inner trace.Reader
	n     int
}

func (c *cutReader) Read(rec *trace.Record) error {
	if c.n--; c.n < 0 {
		return errMeasuredCut
	}
	return c.inner.Read(rec)
}

// TestRunSourceFailsWithoutResults: a measured pass that fails partway
// returns its error and no Results; the records folded before the
// failure still count in the pipeline's metrics.
func TestRunSourceFailsWithoutResults(t *testing.T) {
	reg := obs.NewRegistry()
	study, err := NewStudy(Config{Seed: 42, Scale: 0.004, Workers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := study.Generator().Generate()
	if err != nil {
		t.Fatal(err)
	}
	cut := len(recs)/2 + 100
	res, err := study.RunSource(&measuredCut{Source: trace.SliceSource(recs), n: cut})
	if !errors.Is(err, errMeasuredCut) || res != nil {
		t.Fatalf("RunSource = %v, %v; want no Results and %v", res, err, errMeasuredCut)
	}
	if got := reg.Counter("pipeline_records_total").Value(); got != int64(cut) {
		t.Errorf("pipeline_records_total = %d, want the %d records read before the failure", got, cut)
	}
}
