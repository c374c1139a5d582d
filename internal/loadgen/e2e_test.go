package loadgen

import (
	"context"
	"net/http/httptest"
	"testing"

	"trafficscope/internal/cdn"
	"trafficscope/internal/edge"
	"trafficscope/internal/synth"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// newE2ECDN builds one CDN config used by both the offline replay and the
// live edge. Both sides must be configured identically for the equality
// assertion to be meaningful.
func newE2ECDN() *cdn.CDN {
	return cdn.New(cdn.Config{
		NewCache:   func() cdn.Cache { return cdn.NewLRU(256 << 20) },
		ChunkBytes: 2 << 20,
	})
}

// TestLiveReplayMatchesOffline is the end-to-end acceptance test of the
// live serving stack: loadgen replaying a synthetic trace over real HTTP
// against an edge server must produce aggregate CDN statistics identical
// to an offline CDN.Replay of the same records.
//
// The CDN model is order-sensitive (per-user request sequencing, cache
// eviction order), so the live replay runs with one worker and no pacing
// — same records, same order, different transport.
func TestLiveReplayMatchesOffline(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a few thousand records over HTTP")
	}
	gen, err := synth.NewGenerator(synth.Config{Seed: 42, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	trace.SortByTime(recs)
	t.Logf("replaying %d records", len(recs))

	// Offline pass: the reference statistics.
	offline := newE2ECDN()
	wantBySite := map[string]int64{}
	err = offline.Replay(trace.NewSliceReader(recs), func(r *trace.Record) error {
		wantBySite[r.Publisher]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wantTotal := offline.TotalStats()

	// Live pass: same records through an edge server over HTTP.
	liveCDN := newE2ECDN()
	srv, err := edge.New(edge.Config{CDN: liveCDN})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st, err := Run(context.Background(), Config{
		Target:  ts.URL,
		Workers: 1, // preserve record order — see doc comment
		Speedup: 0,
	}, trace.NewSliceReader(recs))
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 0 {
		t.Fatalf("live replay had %d transport errors", st.Errors)
	}
	if st.Requests != int64(len(recs)) {
		t.Fatalf("live replay completed %d requests, want %d", st.Requests, len(recs))
	}
	if st.Shed != 0 {
		t.Fatalf("live replay had %d shed requests (no MaxInflight configured)", st.Shed)
	}

	// The edge's CDN counters must equal the offline replay's exactly.
	gotTotal := srv.TotalStats()
	if gotTotal != wantTotal {
		t.Errorf("live CDN stats = %+v\nwant (offline)  %+v", gotTotal, wantTotal)
	}

	// Client-observed aggregates must agree with the CDN's own counters.
	if st.Hits != wantTotal.Hits || st.Misses != wantTotal.Misses {
		t.Errorf("client observed %d hits / %d misses, want %d / %d",
			st.Hits, st.Misses, wantTotal.Hits, wantTotal.Misses)
	}
	if st.LogicalBytes != wantTotal.EgressBytes {
		t.Errorf("client logical bytes = %d, want egress %d", st.LogicalBytes, wantTotal.EgressBytes)
	}
	if st.HitRatio() != wantTotal.HitRatio() {
		t.Errorf("client hit ratio = %v, want %v", st.HitRatio(), wantTotal.HitRatio())
	}

	// Per-site request counts match the offline replay.
	if len(st.BySite) != len(wantBySite) {
		t.Errorf("live replay saw %d sites, want %d", len(st.BySite), len(wantBySite))
	}
	for site, want := range wantBySite {
		if got := st.BySite[site]; got != want {
			t.Errorf("site %s: %d requests, want %d", site, got, want)
		}
	}
}

// TestLiveReplayConcurrentMatchesPerDCTotals is the documented
// relaxation of the equivalence guarantee for concurrent serving: with
// many loadgen workers, per-request interleaving is nondeterministic, so
// instead of record-order equality we assert per-DC totals. For that to
// be exact the configuration must be order-insensitive: caches large
// enough never to evict, no browser-cache revalidation, no rejection
// dice (the e2e config's defaults) — and no video chunking. Chunking is
// the subtle one: synthetic viewers watch varying fractions of the same
// video, and a chunked request is a hit only if every touched chunk is
// resident, so which request eats the miss depends on arrival order
// (chunk-level miss counts and all byte totals stay exact; only the
// request-level hit/miss split drifts). With whole-object caching a
// miss is strictly first-touch-per-object and every total is
// order-independent, so the live concurrent replay must match the
// offline sequential replay per DC exactly.
func TestLiveReplayConcurrentMatchesPerDCTotals(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a few thousand records over HTTP")
	}
	mkCDN := func() *cdn.CDN {
		return cdn.New(cdn.Config{
			NewCache:   func() cdn.Cache { return cdn.NewLRU(16 << 30) }, // no eviction
			ChunkBytes: -1,                                               // whole-object: hit/miss is order-independent
		})
	}
	gen, err := synth.NewGenerator(synth.Config{Seed: 43, Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	trace.SortByTime(recs)

	offline := mkCDN()
	if err := offline.Replay(trace.NewSliceReader(recs), func(*trace.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}

	liveCDN := mkCDN()
	srv, err := edge.New(edge.Config{CDN: liveCDN})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st, err := Run(context.Background(), Config{
		Target:  ts.URL,
		Workers: 8, // true concurrency: order within a DC is scrambled
		Speedup: 0,
	}, trace.NewSliceReader(recs))
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 0 {
		t.Fatalf("live replay had %d transport errors", st.Errors)
	}
	if st.Requests != int64(len(recs)) {
		t.Fatalf("live replay completed %d requests, want %d", st.Requests, len(recs))
	}

	for _, region := range timeutil.AllRegions() {
		got := liveCDN.DC(region).StatsSnapshot()
		want := offline.DC(region).StatsSnapshot()
		if got != want {
			t.Errorf("DC %v: concurrent live totals %+v, want offline %+v", region, got, want)
		}
	}
	if st.Hits != offline.TotalStats().Hits || st.Misses != offline.TotalStats().Misses {
		t.Errorf("client observed %d hits / %d misses, want %d / %d",
			st.Hits, st.Misses, offline.TotalStats().Hits, offline.TotalStats().Misses)
	}
}
