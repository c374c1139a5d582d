package core

import (
	"fmt"
	"testing"

	"trafficscope/internal/trace"
)

// bufferedResults is the pre-streaming reference implementation of the
// study run, kept test-only: materialize the whole trace with Generate,
// replay the in-memory slice twice through a sequential CDN (warm-up,
// then measured), and fold the measured records into one accumulator.
// The streaming path must be observationally identical to it.
func bufferedResults(t *testing.T, s *Study) *Results {
	t.Helper()
	recs, err := s.Generator().Generate()
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	network := s.NewCDN()
	discard := func(*trace.Record) error { return nil }
	if err := network.Replay(trace.NewSliceReader(recs), discard); err != nil {
		t.Fatalf("warm replay: %v", err)
	}
	network.ResetStats()
	network.ResetClientState()
	acc := s.newFold()
	measure := func(rec *trace.Record) error {
		acc.Add(rec)
		return nil
	}
	if err := network.Replay(trace.NewSliceReader(recs), measure); err != nil {
		t.Fatalf("measured replay: %v", err)
	}
	res := s.newResults(acc)
	res.CDNStats = network.TotalStats()
	return res
}

// The streaming study core (fused generate→replay→analyze, per-region
// parallel replay, parallel analysis pipeline) must produce exactly the
// results of the buffered reference — same CDN counters, same record
// count, same rendered figure tables — across seeds and worker counts.
func TestRunSourceMatchesBufferedReference(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				cfg := Config{Seed: seed, Scale: 0.004, Workers: workers}
				ref, err := NewStudy(cfg)
				if err != nil {
					t.Fatal(err)
				}
				want := bufferedResults(t, ref)

				study, err := NewStudy(cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := study.Run()
				if err != nil {
					t.Fatal(err)
				}

				if got.Records != want.Records {
					t.Fatalf("records: streaming %d, buffered %d", got.Records, want.Records)
				}
				if got.CDNStats != want.CDNStats {
					t.Fatalf("CDN stats diverge:\nstreaming %+v\nbuffered  %+v", got.CDNStats, want.CDNStats)
				}
				gt, wt := got.AllFigureTables(), want.AllFigureTables()
				if len(gt) != len(wt) {
					t.Fatalf("table count: streaming %d, buffered %d", len(gt), len(wt))
				}
				for i := range gt {
					if gt[i].String() != wt[i].String() {
						t.Errorf("table %d diverges:\nstreaming:\n%s\nbuffered:\n%s", i, gt[i], wt[i])
					}
				}
			})
		}
	}
}
