package cdn

import (
	"testing"
	"time"

	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// TestConcurrentServeHitPathZeroAllocs is the committed guard for the
// zero-allocation serve hot path: once the cache is warm, a
// ConcurrentCDN.ServeInto call — lock, LRU touch, atomic stat adds —
// must not allocate. A regression here (a map rebuilt per request, an
// interface-boxing hash, a response record escaping to the heap) fails
// this test before it shows up as benchmark noise.
func TestConcurrentServeHitPathZeroAllocs(t *testing.T) {
	cc := NewConcurrent(New(Config{
		NewCache:   func() Cache { return NewLRU(1 << 30) },
		ChunkBytes: 2 << 20,
	}))
	recs := make([]*trace.Record, 0, 4*8)
	for i, region := range timeutil.AllRegions() {
		for j := 0; j < 8; j++ {
			recs = append(recs, &trace.Record{
				Timestamp:   time.Date(2016, 4, 12, 9, 30, i, j, time.UTC),
				Publisher:   "V-1",
				ObjectID:    uint64(1000*i + j),
				FileType:    trace.FileMP4,
				ObjectSize:  5 << 20,
				BytesServed: 3 << 20,
				UserID:      uint64(j % 3),
				Region:      region,
			})
		}
	}
	var out trace.Record
	for _, r := range recs {
		cc.ServeInto(r, &out) // warm: every chunk admitted, client state created
	}

	i := 0
	n := testing.AllocsPerRun(500, func() {
		cc.ServeInto(recs[i%len(recs)], &out)
		i++
	})
	if n != 0 {
		t.Errorf("warm ConcurrentCDN.ServeInto: %v allocs/op, want 0", n)
	}
	if out.StatusCode == 0 || out.Cache == trace.CacheUnknown {
		t.Errorf("response record not filled in: %+v", out)
	}
}

// TestServeIntoMatchesServe pins ServeInto (including the aliased
// out == r form) to the allocating Serve on identical traffic.
func TestServeIntoMatchesServe(t *testing.T) {
	mk := func() *CDN {
		return New(Config{
			NewCache:   func() Cache { return NewLRU(64 << 20) },
			ChunkBytes: 2 << 20,
		})
	}
	a, b, c := mk(), mk(), mk()
	base := trace.Record{
		Timestamp:   time.Date(2016, 4, 12, 9, 30, 0, 0, time.UTC),
		Publisher:   "V-1",
		FileType:    trace.FileMP4,
		ObjectSize:  5 << 20,
		BytesServed: 1 << 20,
		Region:      timeutil.RegionEurope,
	}
	for i := 0; i < 200; i++ {
		r := base
		r.ObjectID = uint64(i % 37)
		r.UserID = uint64(i % 5)
		r.Timestamp = base.Timestamp.Add(time.Duration(i) * time.Second)

		ra := r
		want := a.Serve(&ra)

		rb := r
		var got trace.Record
		b.ServeInto(&rb, &got)
		if got != *want {
			t.Fatalf("request %d: ServeInto = %+v, want %+v", i, got, *want)
		}

		aliased := r
		c.ServeInto(&aliased, &aliased) // out aliasing r must be safe
		if aliased != *want {
			t.Fatalf("request %d: aliased ServeInto = %+v, want %+v", i, aliased, *want)
		}
	}
	if as, bs, cs := a.TotalStats(), b.TotalStats(), c.TotalStats(); as != bs || as != cs {
		t.Errorf("stats diverged: Serve %+v, ServeInto %+v, aliased %+v", as, bs, cs)
	}
}

// TestLRUChurnZeroAllocs guards the miss path: a full LRU admitting new
// keys evicts and recycles nodes without allocating — the container/list
// cache it replaced paid two allocations per admitted object.
func TestLRUChurnZeroAllocs(t *testing.T) {
	const resident = 1024
	c := NewLRU(resident * 10)
	key := uint64(0)
	for ; key < 2*resident; key++ {
		c.Access(key, 10, t0) // full, and every node has been recycled once
	}
	n := testing.AllocsPerRun(20_000, func() {
		c.Access(key, 10, t0)
		key++
	})
	if n != 0 {
		t.Errorf("LRU insert+evict at steady state: %v allocs/op, want 0", n)
	}
	if c.Len() != resident {
		t.Errorf("Len = %d, want %d", c.Len(), resident)
	}
}

// TestHeapStoreChurnZeroAllocs is the same guard for the priority store:
// a full LFU or GDSF admitting new keys recycles evicted nodes — the
// container/heap caches it replaced allocated an item per admission and
// boxed it on every heap.Push.
func TestHeapStoreChurnZeroAllocs(t *testing.T) {
	const resident = 1024
	for _, c := range []Cache{NewLFU(resident * 10), NewGDSF(resident * 10)} {
		key := uint64(0)
		for ; key < 2*resident; key++ {
			c.Access(key, 10, t0)
		}
		n := testing.AllocsPerRun(20_000, func() {
			c.Access(key, 10, t0)
			c.Access(key, 10, t0) // a hit re-sifts; it must not allocate either
			key++
		})
		if n != 0 {
			t.Errorf("%s insert+evict+hit at steady state: %v allocs/op, want 0", c.Name(), n)
		}
		if c.Len() != resident {
			t.Errorf("%s: Len = %d, want %d", c.Name(), c.Len(), resident)
		}
	}
}

// TestReplayStreamAllocsPerRecord guards the block lanes: a replay
// allocates its blocks, lanes and client-state maps, not per record.
// Caches hold the whole working set, so no insert allocates for growth
// in the measured replay. A repeat replay on one CDN reuses the blocks
// and the emptied maps of the one before, so all it allocates is its
// channels, goroutines and closures: about 20 objects, whatever the
// trace length.
func TestReplayStreamAllocsPerRecord(t *testing.T) {
	const maxPerReplay = 30
	recs := regionStableTrace(50_000, 9)
	c := New(Config{NewCache: func() Cache { return NewLRU(1 << 40) }})
	discard := func(*trace.Record) error { return nil }
	src := trace.NewSliceReader(recs)
	n := testing.AllocsPerRun(3, func() {
		src.Reset()
		c.ResetClientState()
		if err := c.ReplayStream(src, discard); err != nil {
			t.Fatal(err)
		}
	})
	if perRec := n / float64(len(recs)); perRec > 0.01 {
		t.Errorf("ReplayStream: %.4f allocs/record (%v per replay), want <= 0.01", perRec, n)
	}
	if n > maxPerReplay {
		t.Errorf("repeat ReplayStream: %v allocs per replay, want <= %d", n, maxPerReplay)
	}
}
