package cdn

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"trafficscope/internal/pipeline"
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

// fanoutTrace is a region-stable trace over two publishers, several
// blocks long.
func fanoutTrace() []*trace.Record {
	recs := regionStableTrace(5*pipeline.BlockSize+321, 11)
	for i, r := range recs {
		if i%3 == 0 {
			r.Publisher = "P-1"
		}
	}
	return recs
}

// fanoutConfigs are the cell configurations the differential test runs
// side by side: plain and rejecting, publisher-partitioned, browser
// revalidation, a TTL-wrapped size split, and chunking disabled.
func fanoutConfigs() []Config {
	lru := func(capacity int64) func() Cache {
		return func() Cache { return NewLRU(capacity) }
	}
	return []Config{
		{NewCache: lru(32 << 20), P403: 0.01, P416: 0.01},
		{NewCache: lru(1), PublisherCaches: map[string]func() Cache{"V-1": lru(24 << 20), "P-1": lru(2 << 20)}},
		{NewCache: lru(16 << 20), IsIncognito: func(_ string, user uint64) bool { return user%2 == 0 }},
		{NewCache: func() Cache {
			split, _ := NewSplitCache(NewLRU(4<<20), NewLRU(28<<20), 1<<20)
			c, _ := NewTTLCache(split, time.Hour)
			return c
		}},
		{NewCache: lru(64 << 20), ChunkBytes: -1},
	}
}

// TestReplayFanoutMatchesReplaySource: every cell of a fan-out ends with
// the totals, per-DC stats and measured records that the same
// configuration gets when ReplaySource replays it alone — on a
// region-stable trace and on one where a user changes region — and the
// fan-out opens its source twice either way. A cell with a Survey
// rides along: it sees the raw warm-up read, is built only after it, and
// ends like a single replay from cold caches.
func TestReplayFanoutMatchesReplaySource(t *testing.T) {
	stable := fanoutTrace()
	moved := *stable[0]
	moved.Timestamp = stable[len(stable)-1].Timestamp.Add(time.Minute)
	moved.Region = timeutil.RegionAsia
	if stable[0].Region == timeutil.RegionAsia {
		moved.Region = timeutil.RegionEurope
	}
	unstable := append(append([]*trace.Record{}, stable...), &moved)

	for name, recs := range map[string][]*trace.Record{"stable": stable, "unstable": unstable} {
		configs := fanoutConfigs()
		cells := make([]FanoutCell, len(configs), len(configs)+1)
		observed := make([][]*trace.Record, len(configs))
		for i, cfg := range configs {
			cells[i] = FanoutCell{Build: func() *CDN { return New(cfg) }, Observe: collect(&observed[i])}
		}
		cells[0].Observe = nil // an unobserved cell must still be served
		surveyed, built := 0, -1
		cells = append(cells, FanoutCell{
			Build: func() *CDN { built = surveyed; return New(configs[0]) },
			Survey: func(r *trace.Record) error {
				if r.ObjectID != recs[surveyed].ObjectID || r.Cache != trace.CacheUnknown {
					t.Errorf("%s: survey record %d is not the input record: %+v", name, surveyed, r)
				}
				surveyed++
				return nil
			},
		})
		src := &countingSource{Source: trace.SliceSource(recs)}
		cdns, err := ReplayFanout(src, cells)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if src.opens != 2 {
			t.Errorf("%s: fan-out of %d cells opened its source %d times, want 2", name, len(cells), src.opens)
		}
		for i, cfg := range configs {
			var want []*trace.Record
			alone := New(cfg)
			if err := ReplaySource(alone, trace.SliceSource(recs), oneLane(collect(&want))); err != nil {
				t.Fatalf("%s cell %d alone: %v", name, i, err)
			}
			if got := cdns[i].TotalStats(); got != alone.TotalStats() {
				t.Errorf("%s cell %d: total stats %+v, alone %+v", name, i, got, alone.TotalStats())
			}
			for _, region := range timeutil.AllRegions() {
				if got, want := cdns[i].DC(region).StatsSnapshot(), alone.DC(region).StatsSnapshot(); got != want {
					t.Errorf("%s cell %d %v: stats %+v, alone %+v", name, i, region, got, want)
				}
			}
			if i > 0 && !reflect.DeepEqual(observed[i], want) {
				t.Errorf("%s cell %d: observed records differ from the measured pass alone", name, i)
			}
		}
		if surveyed != len(recs) || built != len(recs) {
			t.Errorf("%s: survey saw %d records and build ran after %d, want %d for both", name, surveyed, built, len(recs))
		}
		cold := New(configs[0])
		if err := cold.Replay(trace.NewSliceReader(recs), func(*trace.Record) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if got := cdns[len(configs)].TotalStats(); got != cold.TotalStats() {
			t.Errorf("%s: cold cell stats %+v, single cold replay %+v", name, got, cold.TotalStats())
		}
	}
}

// TestReplayFanoutErrors: an error from one cell's Observe or Survey,
// wherever in a block it falls, comes back from the fan-out and the
// failing hook is not called again; so does a read error (here the
// context cancelled mid-pass, as SIGINT does to tsreport's §V table).
// The fan-out reads up to pipeline.MaxBlocks blocks ahead of its slowest
// lane, so the cancelled trace is longer than that window.
func TestReplayFanoutErrors(t *testing.T) {
	recs := fanoutTrace()
	boom := errors.New("cell boom")
	mk := func() *CDN { return New(Config{}) }
	for _, failAt := range []int{1, pipeline.BlockSize, pipeline.BlockSize + 476, len(recs)} {
		for _, survey := range []bool{false, true} {
			seen := 0
			fail := func(*trace.Record) error {
				if seen++; seen == failAt {
					return boom
				}
				return nil
			}
			cells := []FanoutCell{{Build: mk}, {Build: mk, Observe: fail}, {Build: mk}}
			if survey {
				cells[1] = FanoutCell{Build: mk, Survey: fail}
			}
			if _, err := ReplayFanout(trace.SliceSource(recs), cells); !errors.Is(err, boom) {
				t.Fatalf("survey=%v fails at %d: err = %v, want %v", survey, failAt, err, boom)
			}
			if seen != failAt {
				t.Errorf("survey=%v fails at %d: called %d times, want exactly %d", survey, failAt, seen, failAt)
			}
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	long := regionStableTrace((pipeline.MaxBlocks+2)*pipeline.BlockSize+321, 12)
	seen := 0
	_, err := ReplayFanout(trace.ContextSource(ctx, trace.SliceSource(long)), []FanoutCell{{Build: mk}, {Build: mk, Observe: func(*trace.Record) error {
		if seen++; seen == pipeline.BlockSize+476 {
			cancel()
		}
		return nil
	}}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled mid-pass: err = %v, want %v", err, context.Canceled)
	}
	// The context is polled once per block read, and every record read is
	// observed. At most pipeline.MaxBlocks blocks are in flight, the cancelling
	// record's block (the second) among them, so the reader stopped after
	// 2 to pipeline.MaxBlocks+1 whole blocks.
	if lo, hi := 2*pipeline.BlockSize, (pipeline.MaxBlocks+1)*pipeline.BlockSize; seen < lo || seen > hi || seen%pipeline.BlockSize != 0 {
		t.Errorf("cancelled mid-pass: observed %d records, want whole blocks, %d to %d", seen, lo, hi)
	}
}
