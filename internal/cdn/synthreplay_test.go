package cdn

import (
	"testing"

	"trafficscope/internal/synth"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// ReplayStream of the parallel generator's merged stream must match a
// sequential Replay of the sequential trace: the generated streams are
// byte-identical, and the replay's aggregate stats must agree exactly.
func TestReplayParallelOfMergedStreamMatchesSequential(t *testing.T) {
	gen, err := synth.NewGenerator(synth.Config{Seed: 19, Scale: 0.003, Salt: "replay"})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *CDN {
		return New(Config{
			NewCache:    func() Cache { return NewLRU(256 << 20) },
			ChunkBytes:  2 << 20,
			IsIncognito: gen.IsIncognito,
		})
	}

	seqCDN := mk()
	var seqOut []*trace.Record
	if err := seqCDN.Replay(trace.NewSliceReader(seq), collect(&seqOut)); err != nil {
		t.Fatal(err)
	}

	// Feed the replay straight from the parallel generator's merged
	// stream — generate-and-replay in one pass.
	parCDN := mk()
	pr := gen.ParallelReader(synth.ParallelOptions{Workers: 4})
	defer pr.Close()
	var parOut []*trace.Record
	if err := parCDN.ReplayStream(pr, collect(&parOut)); err != nil {
		t.Fatal(err)
	}

	if len(seqOut) != len(parOut) {
		t.Fatalf("record counts: sequential %d, parallel %d", len(seqOut), len(parOut))
	}
	if seqCDN.TotalStats() != parCDN.TotalStats() {
		t.Errorf("total stats differ:\nseq %+v\npar %+v", seqCDN.TotalStats(), parCDN.TotalStats())
	}
	for _, region := range timeutil.AllRegions() {
		if seqCDN.DC(region).StatsSnapshot() != parCDN.DC(region).StatsSnapshot() {
			t.Errorf("region %v stats differ:\nseq %+v\npar %+v",
				region, seqCDN.DC(region).StatsSnapshot(), parCDN.DC(region).StatsSnapshot())
		}
	}
}
