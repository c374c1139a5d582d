package cdn

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// regionStableTrace builds a trace where each user sticks to one region,
// over 200 users and 500 objects.
func regionStableTrace(n int, seed int64) []*trace.Record {
	return regionStableTraceOf(n, seed, 200, 500)
}

func regionStableTraceOf(n int, seed int64, users, objects uint64) []*trace.Record {
	rng := rand.New(rand.NewSource(seed))
	regions := timeutil.AllRegions()
	userRegion := map[uint64]timeutil.Region{}
	recs := make([]*trace.Record, n)
	for i := range recs {
		user := rng.Uint64() % users
		region, ok := userRegion[user]
		if !ok {
			region = regions[rng.Intn(len(regions))]
			userRegion[user] = region
		}
		ft := trace.FileJPG
		size := int64(rng.Intn(100_000) + 100)
		if rng.Intn(4) == 0 {
			ft = trace.FileMP4
			size = int64(rng.Intn(20_000_000) + 1_000_000)
		}
		recs[i] = &trace.Record{
			Timestamp:   t0.Add(time.Duration(i) * 37 * time.Second),
			Publisher:   "V-1",
			ObjectID:    rng.Uint64() % objects,
			FileType:    ft,
			ObjectSize:  size,
			BytesServed: size,
			UserID:      user,
			UserAgent:   "UA",
			Region:      region,
			StatusCode:  200,
		}
	}
	return recs
}

// TestReplayStreamMatchesSequential checks that the streaming parallel
// replay delivers the same records in the same order, and the same
// aggregate stats, as a sequential Replay of the same trace.
func TestReplayStreamMatchesSequential(t *testing.T) {
	recs := regionStableTrace(8000, 3)
	mk := func() *CDN {
		return New(Config{
			NewCache:    func() Cache { return NewLRU(64 << 20) },
			IsIncognito: func(_ string, u uint64) bool { return u%2 == 0 },
			P403:        0.01,
			P416:        0.005,
		})
	}

	seqCDN := mk()
	var seq []*trace.Record
	if err := seqCDN.Replay(trace.NewSliceReader(recs), collect(&seq)); err != nil {
		t.Fatal(err)
	}

	strCDN := mk()
	var got []*trace.Record
	if err := strCDN.ReplayStream(trace.NewSliceReader(recs), collect(&got)); err != nil {
		t.Fatal(err)
	}

	if len(seq) != len(got) {
		t.Fatalf("lengths: %d vs %d", len(seq), len(got))
	}
	if seqCDN.TotalStats() != strCDN.TotalStats() {
		t.Errorf("stats differ:\nseq %+v\nstr %+v", seqCDN.TotalStats(), strCDN.TotalStats())
	}
	for _, region := range timeutil.AllRegions() {
		if seqCDN.DC(region).Stats != strCDN.DC(region).Stats {
			t.Errorf("region %v stats differ", region)
		}
	}
	// The sink must see records in input order — no sort applied here.
	for i := range seq {
		if !reflect.DeepEqual(seq[i], got[i]) {
			t.Fatalf("record %d differs:\nseq %+v\nstr %+v", i, seq[i], got[i])
		}
	}
}

// TestReplayStreamRepeatStartsFromEmptyClientState replays one trace
// twice through one CDN. The second call reuses the first one's lane
// state, emptied: a user whose copy of an object was still fresh in the
// browser when call 1 ended gets no 304 for it at the start of call 2,
// and every response code — request sequences included, which pick the
// rejections — is what call 1 returned.
func TestReplayStreamRepeatStartsFromEmptyClientState(t *testing.T) {
	recs := regionStableTrace(8000, 3)
	c := New(Config{
		NewCache:    func() Cache { return NewLRU(64 << 20) },
		IsIncognito: func(_ string, u uint64) bool { return u%2 == 0 },
		P403:        0.01,
	})
	var calls [2][]*trace.Record
	for i := range calls {
		if err := c.ReplayStream(trace.NewSliceReader(recs), collect(&calls[i])); err != nil {
			t.Fatal(err)
		}
	}

	// Pairs that revalidate (non-incognito user, non-video object) and
	// were fresh in the browser at the end of call 1.
	type pair struct{ user, obj uint64 }
	end := recs[len(recs)-1].Timestamp
	fresh := map[pair]bool{}
	for _, r := range calls[0] {
		if r.UserID%2 == 1 && r.Category() != trace.CategoryVideo && r.StatusCode == StatusOK {
			fresh[pair{r.UserID, r.ObjectID}] = end.Before(r.Timestamp.Add(browserTTL))
		}
	}
	seen, checked := map[pair]bool{}, 0
	for i, r := range calls[1] {
		if r.StatusCode != calls[0][i].StatusCode {
			t.Fatalf("record %d: call 2 status %d, call 1 %d", i, r.StatusCode, calls[0][i].StatusCode)
		}
		p := pair{r.UserID, r.ObjectID}
		if seen[p] {
			continue
		}
		seen[p] = true
		if fresh[p] {
			checked++
			if r.StatusCode == StatusNotModified {
				t.Fatalf("record %d: user %d got 304 for object %d on its first request of call 2", i, p.user, p.obj)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no pair was fresh at the end of call 1; the trace does not exercise the reset")
	}
}

// TestReplayStreamRejectsRegionUnstableUsers verifies the mid-stream
// stability check fires and the error unwraps to ErrRegionUnstable.
func TestReplayStreamRejectsRegionUnstableUsers(t *testing.T) {
	recs := regionStableTrace(10, 4)
	bad := *recs[0]
	bad.Region = timeutil.RegionAsia
	if recs[0].Region == timeutil.RegionAsia {
		bad.Region = timeutil.RegionEurope
	}
	bad.Timestamp = recs[len(recs)-1].Timestamp.Add(time.Minute)
	recs = append(recs, &bad)

	c := New(Config{})
	err := c.ReplayStream(trace.NewSliceReader(recs), func(*trace.Record) error { return nil })
	if err == nil {
		t.Fatal("region-unstable trace should be rejected")
	}
	if !errors.Is(err, ErrRegionUnstable) {
		t.Errorf("error %v does not wrap ErrRegionUnstable", err)
	}
}

func TestReplayStreamEmptyTrace(t *testing.T) {
	c := New(Config{})
	n := 0
	err := c.ReplayStream(trace.NewSliceReader(nil), func(*trace.Record) error { n++; return nil })
	if err != nil || n != 0 {
		t.Errorf("empty: %d records, %v", n, err)
	}
}

// TestReplayStreamSinkError checks a failing sink aborts the replay
// promptly and the sink error is returned, wherever in a block the
// failure falls: the records before it arrive as a sequential replay
// would deliver them, none after it, over all four regions' lanes.
func TestReplayStreamSinkError(t *testing.T) {
	recs := regionStableTrace(5000, 5)
	var want []*trace.Record
	if err := New(Config{}).Replay(trace.NewSliceReader(recs), collect(&want)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("sink boom")
	for _, failAt := range []int{1, 100, replayBlockSize, replayBlockSize + 1, replayBlockSize + 476, len(recs)} {
		var got []*trace.Record
		err := New(Config{}).ReplayStream(trace.NewSliceReader(recs), func(r *trace.Record) error {
			cp := *r
			got = append(got, &cp)
			if len(got) == failAt {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("fail at %d: err = %v, want %v", failAt, err, boom)
		}
		if len(got) != failAt {
			t.Fatalf("fail at %d: sink called %d times, want exactly %d", failAt, len(got), failAt)
		}
		if !reflect.DeepEqual(got, want[:failAt]) {
			t.Errorf("fail at %d: records before the failure differ from sequential replay", failAt)
		}
	}
}

// TestReplayStreamFlushesBeforeReadError: a reader that fails mid-block
// still gets every record it delivered served and sunk, in order.
func TestReplayStreamFlushesBeforeReadError(t *testing.T) {
	recs := regionStableTrace(3000, 8)
	bad := *recs[0]
	bad.Region = timeutil.RegionAsia
	if recs[0].Region == timeutil.RegionAsia {
		bad.Region = timeutil.RegionEurope
	}
	const cut = 2*replayBlockSize + 300
	unstable := append(append([]*trace.Record{}, recs[:cut]...), &bad)
	n := 0
	err := New(Config{}).ReplayStream(trace.NewSliceReader(unstable), func(r *trace.Record) error {
		if r.ObjectID != recs[n].ObjectID || r.StatusCode == 0 {
			t.Errorf("record %d out of order or not served: %+v", n, r)
		}
		n++
		return nil
	})
	if !errors.Is(err, ErrRegionUnstable) {
		t.Fatalf("err = %v, want ErrRegionUnstable", err)
	}
	if n != cut {
		t.Errorf("sink saw %d records before the unstable one, want %d", n, cut)
	}
}

// TestReplaySourceMatchesWarmedReplay checks the streaming two-pass
// protocol produces the same measured stats and records as the
// sequential reference: warm with Replay, reset, measure with Replay.
func TestReplaySourceMatchesWarmedReplay(t *testing.T) {
	recs := regionStableTrace(6000, 6)
	mk := func() *CDN {
		return New(Config{
			NewCache: func() Cache { return NewLRU(32 << 20) },
			P403:     0.01,
		})
	}

	refCDN := mk()
	if err := refCDN.Replay(trace.NewSliceReader(recs), func(*trace.Record) error { return nil }); err != nil {
		t.Fatal(err)
	}
	refCDN.ResetStats()
	refCDN.ResetClientState()
	var ref []*trace.Record
	if err := refCDN.Replay(trace.NewSliceReader(recs), collect(&ref)); err != nil {
		t.Fatal(err)
	}

	var got []*trace.Record
	srcCDN, err := ReplaySource(mk, trace.SliceSource(recs), collect(&got))
	if err != nil {
		t.Fatal(err)
	}

	if refCDN.TotalStats() != srcCDN.TotalStats() {
		t.Errorf("stats differ:\nref %+v\nsrc %+v", refCDN.TotalStats(), srcCDN.TotalStats())
	}
	if len(ref) != len(got) {
		t.Fatalf("lengths: %d vs %d", len(ref), len(got))
	}
	for i := range ref {
		if !reflect.DeepEqual(ref[i], got[i]) {
			t.Fatalf("record %d differs:\nref %+v\nsrc %+v", i, ref[i], got[i])
		}
	}
}

// TestReplaySourceRegionUnstableFallback verifies the sequential
// fallback: a region-unstable trace still replays (on a rebuilt CDN)
// and yields every record.
func TestReplaySourceRegionUnstableFallback(t *testing.T) {
	recs := regionStableTrace(50, 7)
	bad := *recs[0]
	bad.Region = timeutil.RegionAsia
	if recs[0].Region == timeutil.RegionAsia {
		bad.Region = timeutil.RegionEurope
	}
	bad.Timestamp = recs[len(recs)-1].Timestamp.Add(time.Minute)
	recs = append(recs, &bad)

	builds := 0
	mk := func() *CDN {
		builds++
		return New(Config{NewCache: func() Cache { return NewLRU(1 << 20) }})
	}
	n := 0
	c, err := ReplaySource(mk, trace.SliceSource(recs), func(*trace.Record) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != len(recs) {
		t.Errorf("measured pass saw %d records, want %d", n, len(recs))
	}
	if builds != 2 {
		t.Errorf("build called %d times, want 2 (parallel attempt + sequential fallback)", builds)
	}
	if c.TotalStats().Requests != int64(len(recs)) {
		t.Errorf("measured stats count %d requests, want %d", c.TotalStats().Requests, len(recs))
	}
}
