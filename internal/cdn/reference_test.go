package cdn

import (
	"fmt"
	"io"
	"math"
	"testing"
	"time"

	"trafficscope/internal/synth"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// The serve path as it was before records carried dense keys, kept as
// the oracle of the slot-indexed CDN: refQueue is the recency list with
// its index in a map from hashed key to node, and refCDN serves records
// around it with every piece of state keyed by hashed IDs — a chunk's
// cache key is chunkKey's hash of the object ID, the browser cache and
// the request sequence are maps by user and object ID. The one rule it
// gained since is the CDN's: a video chunk from maxChunks on is fetched
// from origin and never cached.

// refQueue is queue with a map index, recency order only (an LRU).
type refQueue struct {
	capacity int64
	bytes    int64
	nodes    []refNode
	free     int32 // head of the recycled-node list; 0 when empty
	index    map[uint64]int32
}

type refNode struct {
	key        uint64
	size       int64
	prev, next int32
}

func newRefQueue(capacity int64) *refQueue {
	return &refQueue{capacity: capacity, nodes: make([]refNode, 1), index: map[uint64]int32{}}
}

// access is LRU.Access.
func (q *refQueue) access(key uint64, size int64) bool {
	if i, ok := q.index[key]; ok {
		if q.nodes[0].next != i {
			q.unlink(i)
			q.linkFront(i)
		}
		return true
	}
	if size > q.capacity {
		return false
	}
	for q.bytes+size > q.capacity && len(q.index) > 0 {
		q.drop(q.nodes[0].prev)
	}
	i := q.free
	if i != 0 {
		q.free = q.nodes[i].next
	} else {
		q.nodes = append(q.nodes, refNode{})
		i = int32(len(q.nodes) - 1)
	}
	q.nodes[i].key, q.nodes[i].size = key, size
	q.linkFront(i)
	q.index[key] = i
	q.bytes += size
	return false
}

func (q *refQueue) drop(i int32) {
	q.unlink(i)
	delete(q.index, q.nodes[i].key)
	q.bytes -= q.nodes[i].size
	q.nodes[i].next = q.free
	q.free = i
}

func (q *refQueue) unlink(i int32) {
	n := &q.nodes[i]
	q.nodes[n.prev].next = n.next
	q.nodes[n.next].prev = n.prev
}

func (q *refQueue) linkFront(i int32) {
	first := q.nodes[0].next
	q.nodes[i].prev, q.nodes[i].next = 0, first
	q.nodes[first].prev = i
	q.nodes[0].next = i
}

// chunkKey is the oracle's cache key of a video chunk: chunk 0 is keyed
// by the object ID, a later chunk by the FNV-1a hash of the object ID
// and the chunk number.
func chunkKey(objectID uint64, chunk int) uint64 {
	if chunk == 0 {
		return objectID
	}
	var b [12]byte
	putUint64(b[:8], objectID)
	putUint32(b[8:], uint32(chunk))
	return fnv64a(b[:])
}

// refCache is one DC's cache in the oracle: an access by hashed key.
type refCache func(key uint64, size int64) bool

// refLRUCache is an LRU of the given capacity.
func refLRUCache(capacity int64) func() refCache {
	return func() refCache { return newRefQueue(capacity).access }
}

// refSplitCache is NewSplitCache over two LRUs.
func refSplitCache(small, large, threshold int64) func() refCache {
	return func() refCache {
		s, l := newRefQueue(small), newRefQueue(large)
		return func(key uint64, size int64) bool {
			if size <= threshold {
				return s.access(key, size)
			}
			return l.access(key, size)
		}
	}
}

// refCDN is CDN without publisher partitions, keyed by hashed IDs.
type refCDN struct {
	cfg     Config
	chunk   int64
	caches  [timeutil.NumRegions + 1]refCache // by region
	stats   [timeutil.NumRegions + 1]DCStats
	browser map[[2]uint64]time.Time // by (user, object) ID
	reqSeq  map[uint64]uint32       // by user ID
}

func newRefCDN(cfg Config, newCache func() refCache) *refCDN {
	c := &refCDN{cfg: cfg, chunk: cfg.ChunkBytes}
	if c.chunk == 0 {
		c.chunk = 2 << 20
	}
	for _, r := range timeutil.AllRegions() {
		c.caches[r] = newCache()
	}
	c.resetClients()
	return c
}

// resetClients empties the browser cache and the request sequences, as
// ReplayStream does at the start of each pass.
func (c *refCDN) resetClients() {
	c.browser, c.reqSeq = map[[2]uint64]time.Time{}, map[uint64]uint32{}
}

// resetStats zeroes the DC counters.
func (c *refCDN) resetStats() { c.stats = [timeutil.NumRegions + 1]DCStats{} }

// region is dcForRegion's routing: an unknown region goes to North
// America.
func region(r timeutil.Region) timeutil.Region {
	if r < 1 || r > timeutil.NumRegions {
		return timeutil.RegionNorthAmerica
	}
	return r
}

// serve returns r served: the Cache, StatusCode and BytesServed the
// CDN's serve path set, the rest of r as it came.
func (c *refCDN) serve(r *trace.Record) trace.Record {
	out := *r
	reg := region(r.Region)
	st := &c.stats[reg]
	st.Requests++
	seq := c.reqSeq[r.UserID]
	c.reqSeq[r.UserID] = seq + 1
	die := hash3(r.ObjectID, r.UserID, seq)
	cat := r.Category()
	reject := 0
	switch {
	case c.cfg.P403 > 0 && unit(die) < c.cfg.P403:
		reject = StatusForbidden
	case cat == trace.CategoryVideo && c.cfg.P416 > 0 && unit(die>>8) < c.cfg.P416:
		reject = StatusRangeError
	case cat == trace.CategoryOther && c.cfg.P204 > 0 && unit(die>>16) < c.cfg.P204:
		reject = StatusNoContent
	}
	if reject != 0 {
		out.StatusCode, out.BytesServed, out.Cache = reject, 0, trace.CacheUnknown
		return out
	}
	count := func(hit bool, origin, egress int64) {
		if hit {
			st.Hits++
			out.Cache = trace.CacheHit
		} else {
			st.Misses++
			out.Cache = trace.CacheMiss
		}
		st.OriginBytes += origin
		st.EgressBytes += egress
	}
	cache := c.caches[reg]
	if cat != trace.CategoryVideo && c.cfg.IsIncognito != nil && !c.cfg.IsIncognito(r.Publisher, r.UserID) {
		bk := [2]uint64{r.UserID, r.ObjectID}
		if deadline, ok := c.browser[bk]; ok && r.Timestamp.Before(deadline) {
			out.StatusCode, out.BytesServed = StatusNotModified, 0
			hit := cache(r.ObjectID, r.ObjectSize)
			origin := r.ObjectSize
			if hit {
				origin = 0
			}
			count(hit, origin, 0)
			return out
		}
		c.browser[bk] = r.Timestamp.Add(browserTTL)
	}
	want := r.BytesServed
	if want <= 0 || want > r.ObjectSize {
		want = r.ObjectSize
	}
	hit, origin := true, int64(0)
	if cat == trace.CategoryVideo && c.chunk > 0 {
		total := int((r.ObjectSize + c.chunk - 1) / c.chunk)
		for i := 0; i < max(1, int((want+c.chunk-1)/c.chunk)); i++ {
			size := c.chunk
			if rem := r.ObjectSize - int64(total-1)*c.chunk; i == total-1 && rem > 0 {
				size = rem
			}
			if i >= maxChunks || !cache(chunkKey(r.ObjectID, i), size) {
				hit = false
				origin += size
			}
		}
	} else if hit = cache(r.ObjectID, r.ObjectSize); !hit {
		origin = r.ObjectSize
	}
	count(hit, origin, want)
	out.BytesServed = want
	out.StatusCode = StatusOK
	if cat == trace.CategoryVideo && want < r.ObjectSize {
		out.StatusCode = StatusPartialContent
	}
	return out
}

// served is what the oracle compares of a served record.
type served struct {
	cache  trace.CacheStatus
	status int
	bytes  int64
}

func servedOf(r *trace.Record) served { return served{r.Cache, r.StatusCode, r.BytesServed} }

// oracleReplay runs ReplaySource's protocol on the oracle: a warm-up pass
// over recs, the counters zeroed, a measured pass. It returns what the
// measured pass served.
func oracleReplay(c *refCDN, pass func(func(*trace.Record)) error) ([]served, error) {
	if err := pass(func(r *trace.Record) { c.serve(r) }); err != nil {
		return nil, err
	}
	c.resetStats()
	c.resetClients()
	var out []served
	err := pass(func(r *trace.Record) {
		s := c.serve(r)
		out = append(out, servedOf(&s))
	})
	return out, err
}

// requireOracle compares a measured pass of the dense CDN, got, and its
// counters with the oracle's.
func requireOracle(t *testing.T, got, want []served, c *CDN, ref *refCDN) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("served %d records, oracle %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: served %+v, oracle %+v", i, got[i], want[i])
		}
	}
	for _, r := range timeutil.AllRegions() {
		if g, w := c.DC(r).StatsSnapshot(), ref.stats[r]; g != w {
			t.Errorf("DC %v: %+v, oracle %+v", r, g, w)
		}
	}
}

// slicePass is a pass over recs for oracleReplay.
func slicePass(recs []*trace.Record) func(func(*trace.Record)) error {
	return func(serve func(*trace.Record)) error {
		for _, r := range recs {
			serve(r)
		}
		return nil
	}
}

// TestDenseCDNMatchesHashedOracle replays traces through the CDN, whose
// caches and client state index slices by dense key, and through the
// oracle keyed by hashed IDs, with the same warm-up and measured passes,
// and requires every measured record's Cache, StatusCode and
// BytesServed and every DC's counters to agree: generated weeks, numbered
// by the generator, at two scales and two generator pool sizes, under the
// study's CDN (split LRU, 2 MiB chunks, every rejection on); hand-built
// unnumbered records, under the stream tests' configuration, whose
// objects come back with other sizes and categories; and one object ID
// requested under two publishers, one entry in a shared cache.
func TestDenseCDNMatchesHashedOracle(t *testing.T) {
	for _, scale := range []float64{0.002, 0.03} {
		gen, err := synth.NewGenerator(synth.Config{Seed: 42, Scale: scale})
		if err != nil {
			t.Fatal(err)
		}
		small := max(int64(float64(1<<30)*scale*10), 16<<20)
		large := max(int64(float64(11<<30)*scale*10), 128<<20)
		cfg := Config{
			NewCache: func() Cache {
				c, _ := NewSplitCache(NewLRU(small), NewLRU(large), 1<<20)
				return c
			},
			IsIncognito: gen.IsIncognito,
			P403:        0.008,
			P416:        0.002,
			P204:        0.05,
		}
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("scale %v workers %d", scale, workers), func(t *testing.T) {
				src := gen.ParallelSource(synth.ParallelOptions{Workers: workers})
				ref := newRefCDN(cfg, refSplitCache(small, large, 1<<20))
				want, err := oracleReplay(ref, func(serve func(*trace.Record)) error {
					r, err := src.Open()
					if err != nil {
						return err
					}
					defer trace.CloseReader(r)
					var rec trace.Record
					for err = r.Read(&rec); err == nil; err = r.Read(&rec) {
						serve(&rec)
					}
					if err != io.EOF {
						return err
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				c := New(cfg)
				var got []served
				if err := ReplaySource(c, src, oneLane(func(r *trace.Record) error {
					got = append(got, servedOf(r))
					return nil
				})); err != nil {
					t.Fatal(err)
				}
				requireOracle(t, got, want, c, ref)
			})
		}
	}

	twoPublishers := regionHoppingTrace(3000, 5)
	for i, r := range twoPublishers {
		if i%2 == 1 {
			r.Publisher = "P-1"
		}
	}
	for name, recs := range map[string][]*trace.Record{
		"hand-built":     regionHoppingTrace(3000, 4),
		"two publishers": twoPublishers,
	} {
		for _, chunk := range []int64{-1, 1 << 20} {
			t.Run(fmt.Sprintf("%s chunk %d", name, chunk), func(t *testing.T) {
				cfg := hoppingConfig()
				cfg.ChunkBytes = chunk
				requireReplaysMatchOracle(t, cfg, refLRUCache(64<<20), recs)
			})
		}
	}

	// Videos around the chunk cap at three bytes a chunk (so a last chunk
	// can be short), each asked for whole, half and whole again: chunks
	// below the cap are cached, those past it come from origin on every
	// request.
	t.Run("past the chunk cap", func(t *testing.T) {
		const chunk, capacity = 3, 3 * 3 * maxChunks / 2
		var recs []*trace.Record
		for i, size := range []int64{chunk*maxChunks - 2, chunk * maxChunks, chunk*maxChunks + 1, chunk*maxChunks + 2101, 2*chunk*maxChunks + 2} {
			for _, served := range []int64{size, size / 2, size} {
				recs = append(recs, videoReq(uint64(i+1), 7, size, served, t0.Add(time.Duration(len(recs))*time.Minute)))
			}
		}
		cfg := Config{NewCache: func() Cache { return NewLRU(capacity) }, ChunkBytes: chunk}
		want := requireReplaysMatchOracle(t, cfg, refLRUCache(capacity), recs)
		var hits int
		for _, w := range want {
			if w.cache == trace.CacheHit {
				hits++
			}
		}
		if hits == 0 || hits == len(want) {
			t.Errorf("%d of %d requests hit; the trace should hit and miss", hits, len(want))
		}
	})

	// Browser-cache deadlines at dates Unix nanoseconds cannot hold: one
	// image per anchor, first asked for half a day before it, so that its
	// deadline lies half a day after; then an hour later, one nanosecond
	// before the deadline, exactly at it, and one nanosecond before the
	// deadline that last request set. The anchors straddle the ends of
	// the int64 nanosecond range, where a deadline past the end would
	// wrap below the request before it, and lie far outside it.
	t.Run("browser deadlines at any date", func(t *testing.T) {
		anchors := []time.Time{
			time.Date(1200, 3, 1, 0, 0, 0, 0, time.UTC),
			time.Unix(0, math.MinInt64).UTC(),
			t0,
			time.Unix(0, math.MaxInt64).UTC(),
			time.Date(3000, 3, 1, 0, 0, 0, 0, time.UTC),
		}
		var recs []*trace.Record
		var wantStatus []int
		for i, a := range anchors {
			first := a.Add(-browserTTL / 2)
			deadline := first.Add(browserTTL)
			for _, req := range []struct {
				at     time.Time
				status int
			}{
				{first, StatusOK},
				{first.Add(time.Hour), StatusNotModified},
				{deadline.Add(-time.Nanosecond), StatusNotModified},
				{deadline, StatusOK},
				{deadline.Add(browserTTL - time.Nanosecond), StatusNotModified},
			} {
				recs = append(recs, imageReq(uint64(i+1), 7, 1000, req.at))
				wantStatus = append(wantStatus, req.status)
			}
		}
		cfg := Config{
			NewCache:    func() Cache { return NewLRU(1 << 20) },
			IsIncognito: func(string, uint64) bool { return false },
		}
		want := requireReplaysMatchOracle(t, cfg, refLRUCache(1<<20), recs)
		for i, w := range want {
			if w.status != wantStatus[i] {
				t.Errorf("request %d at %v: oracle status %d, want %d", i, recs[i].Timestamp, w.status, wantStatus[i])
			}
		}
	})
}

// requireReplaysMatchOracle replays recs twice, a warm-up and a measured
// pass, through CDNs built from cfg by Replay and by ReplayStream, and
// through the oracle over caches from newCache, and requires the measured
// passes to agree. It returns what the oracle served.
func requireReplaysMatchOracle(t *testing.T, cfg Config, newCache func() refCache, recs []*trace.Record) []served {
	t.Helper()
	ref := newRefCDN(cfg, newCache)
	want, _ := oracleReplay(ref, slicePass(recs))
	for _, replay := range []string{"Replay", "ReplayStream"} {
		c := New(cfg)
		var got []served
		sink := func(r *trace.Record) error {
			got = append(got, servedOf(r))
			return nil
		}
		run := c.Replay
		if replay == "ReplayStream" {
			run = c.ReplayStream
		}
		if err := run(trace.NewSliceReader(recs), func(*trace.Record) error { return nil }); err != nil {
			t.Fatal(err)
		}
		c.ResetStats()
		c.ResetClientState()
		if err := run(trace.NewSliceReader(recs), sink); err != nil {
			t.Fatal(err)
		}
		requireOracle(t, got, want, c, ref)
	}
	return want
}

// TestMixedNumberingFailsLoudly: a CDN numbers the records that come
// unnumbered itself, so a record numbered upstream after one it numbered,
// or the other way around, would share its keys with an unrelated
// object. Serving one panics instead.
func TestMixedNumberingFailsLoudly(t *testing.T) {
	numbered := imageReq(1, 1, 100, t0)
	numbered.ObjectKey, numbered.UserKey = 1, 1
	for name, order := range map[string][2]*trace.Record{
		"numbered, then not":        {numbered, imageReq(2, 2, 100, t0)},
		"unnumbered, then numbered": {imageReq(2, 2, 100, t0), numbered},
	} {
		t.Run(name, func(t *testing.T) {
			c := New(Config{})
			serve(c, order[0])
			defer func() {
				if recover() == nil {
					t.Error("serving the second record did not panic")
				}
			}()
			serve(c, order[1])
		})
	}
}
