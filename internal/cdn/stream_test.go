package cdn

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"trafficscope/internal/pipeline"
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

// regionHoppingTrace is regionStableTraceOf over 200 users and 200
// objects with a third of the records moved to a random region, and
// every fifth non-video record an "other" object (an HTML page, which
// P204 may turn into a beacon).
func regionHoppingTrace(n int, seed int64) []*trace.Record {
	recs := regionStableTraceOf(n, seed, 200, 200)
	rng := rand.New(rand.NewSource(seed + 1))
	regions := timeutil.AllRegions()
	for _, r := range recs {
		if rng.Intn(3) == 0 {
			r.Region = regions[rng.Intn(len(regions))]
		}
		if r.FileType == trace.FileJPG && rng.Intn(5) == 0 {
			r.FileType = trace.FileHTML
		}
	}
	return recs
}

// movedUserTrace is a short region-stable trace whose last record is its
// first user's again, from another region.
func movedUserTrace(n int, seed int64) []*trace.Record {
	recs := regionStableTrace(n, seed)
	moved := *recs[0]
	moved.Region = timeutil.RegionAsia
	if recs[0].Region == timeutil.RegionAsia {
		moved.Region = timeutil.RegionEurope
	}
	moved.Timestamp = recs[len(recs)-1].Timestamp.Add(time.Minute)
	return append(recs, &moved)
}

// hoppingConfig mixes incognito and revalidating users and turns every
// rejection on, so the client half of serving (request sequence, dice,
// browser cache) decides many responses.
func hoppingConfig() Config {
	return Config{
		NewCache:    func() Cache { return NewLRU(64 << 20) },
		IsIncognito: func(_ string, u uint64) bool { return u%2 == 0 },
		P403:        0.01,
		P416:        0.02,
		P204:        0.05,
	}
}

// requireClientVerdicts fails unless recs hold both 304s and rejections:
// a trace that exercises the client half of serving.
func requireClientVerdicts(t *testing.T, recs []*trace.Record) {
	t.Helper()
	codes := map[int]int{}
	for _, r := range recs {
		codes[r.StatusCode]++
	}
	if codes[StatusNotModified] == 0 || codes[StatusForbidden]+codes[StatusRangeError]+codes[StatusNoContent] == 0 {
		t.Fatalf("status codes %v: want both 304s and rejections", codes)
	}
}

// TestReplayStreamMatchesSequential checks that the streaming parallel
// replay delivers the same records in the same order, and the same
// aggregate and per-DC stats, as a sequential Replay of the same trace:
// with each user in one region, with users that hop between regions,
// and with one user seen in a second region at the very end.
func TestReplayStreamMatchesSequential(t *testing.T) {
	stable := Config{
		NewCache:    func() Cache { return NewLRU(64 << 20) },
		IsIncognito: func(_ string, u uint64) bool { return u%2 == 0 },
		P403:        0.01,
		P416:        0.005,
	}
	for _, tc := range []struct {
		name string
		recs []*trace.Record
		cfg  Config
	}{
		{"stable", regionStableTrace(8000, 3), stable},
		{"hopping", regionHoppingTrace(8000, 3), hoppingConfig()},
		{"moved", movedUserTrace(10, 4), Config{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seqCDN := New(tc.cfg)
			var seq []*trace.Record
			if err := seqCDN.Replay(trace.NewSliceReader(tc.recs), collect(&seq)); err != nil {
				t.Fatal(err)
			}
			if tc.name == "hopping" {
				requireClientVerdicts(t, seq)
			}

			strCDN := New(tc.cfg)
			var got []*trace.Record
			if err := strCDN.ReplayStream(trace.NewSliceReader(tc.recs), collect(&got)); err != nil {
				t.Fatal(err)
			}

			if len(seq) != len(got) {
				t.Fatalf("lengths: %d vs %d", len(seq), len(got))
			}
			if seqCDN.TotalStats() != strCDN.TotalStats() {
				t.Errorf("stats differ:\nseq %+v\nstr %+v", seqCDN.TotalStats(), strCDN.TotalStats())
			}
			for _, region := range timeutil.AllRegions() {
				if seqCDN.DC(region).StatsSnapshot() != strCDN.DC(region).StatsSnapshot() {
					t.Errorf("region %v stats differ", region)
				}
			}
			// The sink must see records in input order — no sort applied here.
			for i := range seq {
				if !reflect.DeepEqual(seq[i], got[i]) {
					t.Fatalf("record %d differs:\nseq %+v\nstr %+v", i, seq[i], got[i])
				}
			}
		})
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
	for _, failAt := range []int{1, 100, pipeline.BlockSize, pipeline.BlockSize + 1, pipeline.BlockSize + 476, len(recs)} {
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

// cutReader delivers the first n records of its inner reader, then
// fails.
type cutReader struct {
	inner trace.Reader
	n     int
}

var errCut = errors.New("reader cut")

func (c *cutReader) Read(rec *trace.Record) error {
	if c.n == 0 {
		return errCut
	}
	c.n--
	return c.inner.Read(rec)
}

// oneLane is the fold stage whose one lane is f.
func oneLane(f func(*trace.Record) error) *pipeline.Stage {
	return &pipeline.Stage{Lanes: []func(*trace.Record) error{f}}
}

// TestReplayStreamFlushesBeforeReadError: a reader that fails mid-block
// still gets every record it delivered served and sunk, in order.
func TestReplayStreamFlushesBeforeReadError(t *testing.T) {
	recs := regionStableTrace(3000, 8)
	const cut = 2*pipeline.BlockSize + 300
	n := 0
	err := New(Config{}).ReplayStream(&cutReader{inner: trace.NewSliceReader(recs), n: cut}, func(r *trace.Record) error {
		if r.ObjectID != recs[n].ObjectID || r.StatusCode == 0 {
			t.Errorf("record %d out of order or not served: %+v", n, r)
		}
		n++
		return nil
	})
	if !errors.Is(err, errCut) {
		t.Fatalf("err = %v, want %v", err, errCut)
	}
	if n != cut {
		t.Errorf("sink saw %d records before the read error, want %d", n, cut)
	}
}

// TestReplaySourceMatchesWarmedReplay checks the streaming two-pass
// protocol, over two reads of its source on the one CDN it is given,
// produces the same measured stats and records as the sequential
// reference (warm with Replay, reset, measure with Replay): on a
// region-stable trace, on one whose users hop between regions, and on
// one with a user seen in a second region at the very end.
func TestReplaySourceMatchesWarmedReplay(t *testing.T) {
	stable := Config{
		NewCache: func() Cache { return NewLRU(32 << 20) },
		P403:     0.01,
	}
	for _, tc := range []struct {
		name string
		recs []*trace.Record
		cfg  Config
	}{
		{"stable", regionStableTrace(6000, 6), stable},
		{"hopping", regionHoppingTrace(6000, 6), hoppingConfig()},
		{"moved", movedUserTrace(50, 7), Config{NewCache: func() Cache { return NewLRU(1 << 20) }}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			refCDN := New(tc.cfg)
			if err := refCDN.Replay(trace.NewSliceReader(tc.recs), func(*trace.Record) error { return nil }); err != nil {
				t.Fatal(err)
			}
			refCDN.ResetStats()
			refCDN.ResetClientState()
			var ref []*trace.Record
			if err := refCDN.Replay(trace.NewSliceReader(tc.recs), collect(&ref)); err != nil {
				t.Fatal(err)
			}
			if tc.name == "hopping" {
				requireClientVerdicts(t, ref)
			}

			var got []*trace.Record
			src := &countingSource{Source: trace.SliceSource(tc.recs)}
			srcCDN := New(tc.cfg)
			if err := ReplaySource(srcCDN, src, oneLane(collect(&got))); err != nil {
				t.Fatal(err)
			}
			if src.opens != 2 {
				t.Errorf("source opened %d times, want 2 (warm-up + measured)", src.opens)
			}
			if refCDN.TotalStats() != srcCDN.TotalStats() {
				t.Errorf("stats differ:\nref %+v\nsrc %+v", refCDN.TotalStats(), srcCDN.TotalStats())
			}
			for _, region := range timeutil.AllRegions() {
				if refCDN.DC(region).StatsSnapshot() != srcCDN.DC(region).StatsSnapshot() {
					t.Errorf("region %v stats differ", region)
				}
			}
			if len(ref) != len(got) {
				t.Fatalf("lengths: %d vs %d", len(ref), len(got))
			}
			for i := range ref {
				if !reflect.DeepEqual(ref[i], got[i]) {
					t.Fatalf("record %d differs:\nref %+v\nsrc %+v", i, ref[i], got[i])
				}
			}
		})
	}
}

// FuzzReplayStream: on whatever trace the fuzzer's bytes spell,
// ReplayStream delivers what a sequential Replay delivers, record for
// record, and ends with the same stats in every DC. Each four bytes are
// one request: its user (one of 16), its region (one of the four, or an
// unknown one, served by the first DC), its object and category (image,
// video or other) and its size. The requests repeat in that order until
// the trace spans several blocks, one every seven minutes, so browser
// copies are both fresh and expired when asked for again; chunked turns
// video chunking on. Both replays must also equal the oracle keyed by
// hashed IDs (refCDN), whatever sizes and categories an object comes
// back with. The first byte's high nibble also picks the request's
// publisher (one of three), and lanes picks 1 to 4 fold lanes: the
// records each lane sees, in input order, are the sequential Replay's
// records of the publishers routed to it, and each publisher goes to one
// lane.
func FuzzReplayStream(f *testing.F) {
	f.Add([]byte{0, 1, 0, 10, 0, 2, 1, 20, 1, 3, 2, 30, 1, 4, 5, 40}, true, byte(0))
	f.Add([]byte{3, 0, 7, 255, 3, 3, 7, 1, 9, 2, 4, 128}, false, byte(1))
	f.Add([]byte{0x13, 1, 0, 10, 0x20, 2, 1, 20, 0x01, 3, 2, 30, 0x31, 4, 5, 40}, true, byte(3))
	f.Fuzz(func(t *testing.T, data []byte, chunked bool, lanes byte) {
		requests := len(data) / 4
		if requests == 0 {
			return
		}
		categories := [...]trace.FileType{trace.FileJPG, trace.FileMP4, trace.FileHTML}
		publishers := [...]string{"V-1", "V-2", "P-1"}
		recs := make([]*trace.Record, 3*pipeline.BlockSize+17)
		for i := range recs {
			b := data[4*(i%requests):]
			size := int64(b[3])<<16 + 1
			recs[i] = &trace.Record{
				Timestamp:   t0.Add(time.Duration(i) * 7 * time.Minute),
				Publisher:   publishers[b[0]>>4%3],
				ObjectID:    uint64(b[2] / 3),
				FileType:    categories[b[2]%3],
				ObjectSize:  size,
				BytesServed: size,
				UserID:      uint64(b[0] % 16),
				UserAgent:   "UA",
				Region:      timeutil.Region(b[1] % (timeutil.NumRegions + 1)),
				StatusCode:  200,
			}
		}
		cfg := hoppingConfig()
		cfg.NewCache = func() Cache { return NewLRU(32 << 20) }
		cfg.ChunkBytes = -1
		if chunked {
			cfg.ChunkBytes = 1 << 20
		}

		seqCDN, strCDN := New(cfg), New(cfg)
		var seq []*trace.Record
		if err := seqCDN.Replay(trace.NewSliceReader(recs), collect(&seq)); err != nil {
			t.Fatal(err)
		}
		got := make([][]*trace.Record, 1+lanes%4)
		var err error
		if len(got) == 1 {
			err = strCDN.ReplayStream(trace.NewSliceReader(recs), collect(&got[0]))
		} else {
			fold := &pipeline.Stage{}
			for k := range got {
				fold.Lanes = append(fold.Lanes, collect(&got[k]))
			}
			err = strCDN.replay(trace.NewSliceReader(recs), fold)
		}
		if err != nil {
			t.Fatal(err)
		}
		owner := map[string]int{}
		for k, lane := range got {
			for _, r := range lane {
				if o, ok := owner[r.Publisher]; ok && o != k {
					t.Fatalf("%s folded on lanes %d and %d", r.Publisher, o, k)
				}
				owner[r.Publisher] = k
			}
		}
		for k, lane := range got {
			var want []*trace.Record
			for _, r := range seq {
				if o, ok := owner[r.Publisher]; !ok || o == k {
					want = append(want, r)
				}
			}
			if len(want) != len(lane) {
				t.Fatalf("lane %d of %d: %d records, sequential replay has %d of its publishers'", k, len(got), len(lane), len(want))
			}
			for i := range want {
				if *want[i] != *lane[i] {
					t.Fatalf("lane %d record %d differs:\nseq %+v\nstr %+v", k, i, want[i], lane[i])
				}
			}
		}
		for _, region := range timeutil.AllRegions() {
			if want, got := seqCDN.DC(region).StatsSnapshot(), strCDN.DC(region).StatsSnapshot(); want != got {
				t.Fatalf("region %v stats: seq %+v, str %+v", region, want, got)
			}
		}
		// And both equal the oracle keyed by hashed IDs.
		ref := newRefCDN(cfg, refLRUCache(32<<20))
		want := make([]served, len(recs))
		for i, r := range recs {
			s := ref.serve(r)
			want[i] = servedOf(&s)
		}
		fromSeq := make([]served, len(seq))
		for i, r := range seq {
			fromSeq[i] = servedOf(r)
		}
		requireOracle(t, fromSeq, want, seqCDN, ref)
	})
}
