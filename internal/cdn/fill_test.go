package cdn

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// TestSingleFlightDedupe is the shield primitive's core contract: N
// concurrent callers for one key run the fetch exactly once, and every
// duplicate reports shared.
func TestSingleFlightDedupe(t *testing.T) {
	var g SingleFlight
	var fetches atomic.Int64
	gate := make(chan struct{})

	const callers = 16
	var wg sync.WaitGroup
	sharedCount := atomic.Int64{}
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, shared, err := g.Do(context.Background(), 42, func() (FillResult, error) {
				fetches.Add(1)
				<-gate // hold the flight open until all callers have joined
				return FillResult{Source: FillOrigin, Bytes: 1 << 20}, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			if res.Source != FillOrigin || res.Bytes != 1<<20 {
				t.Errorf("result = %+v", res)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Wait until every caller is either the leader or parked on the
	// flight, then release the leader.
	deadline := time.Now().Add(5 * time.Second)
	for fetches.Load() == 0 || g.Inflight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never started")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // let followers park
	close(gate)
	wg.Wait()

	if n := fetches.Load(); n != 1 {
		t.Errorf("fetch ran %d times, want exactly 1", n)
	}
	if sharedCount.Load() != callers-1 {
		t.Errorf("%d callers saw shared, want %d", sharedCount.Load(), callers-1)
	}
	if g.Inflight() != 0 {
		t.Errorf("%d flights still registered after completion", g.Inflight())
	}
}

// TestSingleFlightDistinctKeys: different objects never collapse.
func TestSingleFlightDistinctKeys(t *testing.T) {
	var g SingleFlight
	var fetches atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(key uint64) {
			defer wg.Done()
			_, shared, err := g.Do(context.Background(), key, func() (FillResult, error) {
				fetches.Add(1)
				return FillResult{Source: FillOrigin}, nil
			})
			if err != nil || shared {
				t.Errorf("key %d: shared=%v err=%v", key, shared, err)
			}
		}(uint64(i))
	}
	wg.Wait()
	if n := fetches.Load(); n != 8 {
		t.Errorf("fetches = %d, want 8", n)
	}
}

// TestSingleFlightFollowerCancel: a follower whose context dies gives up
// alone; the flight completes and later callers still share its result.
func TestSingleFlightFollowerCancel(t *testing.T) {
	var g SingleFlight
	gate := make(chan struct{})
	leaderIn := make(chan struct{})

	go func() {
		g.Do(context.Background(), 7, func() (FillResult, error) {
			close(leaderIn)
			<-gate
			return FillResult{Source: FillOrigin, Bytes: 99}, nil
		})
	}()
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, shared, err := g.Do(ctx, 7, func() (FillResult, error) {
		t.Error("follower must not run the fetch")
		return FillResult{}, nil
	})
	if !shared || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled follower: shared=%v err=%v, want shared + context.Canceled", shared, err)
	}

	close(gate)
	// The flight still completed; once drained, a fresh call fetches anew.
	deadline := time.Now().Add(5 * time.Second)
	for g.Inflight() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("flight never drained")
		}
		time.Sleep(time.Millisecond)
	}
	res, shared, err := g.Do(context.Background(), 7, func() (FillResult, error) {
		return FillResult{Source: FillPeer, Backend: "eu", Bytes: 1}, nil
	})
	if err != nil || shared || res.Source != FillPeer {
		t.Errorf("post-flight call: res=%+v shared=%v err=%v", res, shared, err)
	}
}

// TestSingleFlightErrorPropagates: a failed fetch reports the same error
// to leader and followers, and is not cached.
func TestSingleFlightErrorPropagates(t *testing.T) {
	var g SingleFlight
	boom := errors.New("origin down")
	_, _, err := g.Do(context.Background(), 1, func() (FillResult, error) {
		return FillResult{}, boom
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want %v", err, boom)
	}
	// Next call retries (errors are per-flight, never cached).
	res, _, err := g.Do(context.Background(), 1, func() (FillResult, error) {
		return FillResult{Source: FillOrigin}, nil
	})
	if err != nil || res.Source != FillOrigin {
		t.Errorf("retry: res=%+v err=%v", res, err)
	}
}

func fillProbeRecord(obj uint64, size, bytes int64, ft trace.FileType) *trace.Record {
	return &trace.Record{
		Timestamp:   time.Date(2016, 4, 12, 9, 0, 0, 0, time.UTC),
		Publisher:   "V-1",
		ObjectID:    obj,
		FileType:    ft,
		ObjectSize:  size,
		BytesServed: bytes,
		UserID:      5,
		Region:      timeutil.RegionEurope,
	}
}

// TestDCContainsReadOnly: the residency probe answers correctly and
// leaves both the cache contents and the DC counters untouched.
func TestDCContainsReadOnly(t *testing.T) {
	c := New(Config{NewCache: func() Cache { return NewLRU(1 << 30) }, ChunkBytes: -1})
	rec := fillProbeRecord(0xabc, 4096, 0, "jpg")

	if c.DCContains(timeutil.RegionEurope, rec) {
		t.Fatal("empty cache reported resident")
	}
	serve(c, rec) // admit via a miss
	if !c.DCContains(timeutil.RegionEurope, rec) {
		t.Fatal("served object not reported resident")
	}
	// A foreign DC has not seen the object.
	if c.DCContains(timeutil.RegionAsia, rec) {
		t.Fatal("foreign DC reported resident")
	}

	before := c.DC(timeutil.RegionEurope).StatsSnapshot()
	for i := 0; i < 100; i++ {
		c.DCContains(timeutil.RegionEurope, rec)
	}
	if after := c.DC(timeutil.RegionEurope).StatsSnapshot(); after != before {
		t.Errorf("probes moved DC stats: %+v -> %+v", before, after)
	}
}

// TestDCContainsChunked: a video object is resident only when every
// chunk covering the requested bytes is, mirroring accessChunks.
func TestDCContainsChunked(t *testing.T) {
	const chunk = 1 << 20
	c := New(Config{NewCache: func() Cache { return NewLRU(1 << 30) }, ChunkBytes: chunk})
	full := fillProbeRecord(0xdead, 3*chunk, 0, "mp4")

	// Serve only the first chunk's worth.
	partial := *full
	partial.BytesServed = chunk
	serve(c, &partial)

	head := *full
	head.BytesServed = chunk
	if !c.DCContains(timeutil.RegionEurope, &head) {
		t.Error("first chunk should be resident")
	}
	if c.DCContains(timeutil.RegionEurope, full) {
		t.Error("full object reported resident with only one chunk cached")
	}
	serve(c, full)
	if !c.DCContains(timeutil.RegionEurope, full) {
		t.Error("full object not resident after full serve")
	}
}

// TestDCContainsPublisherPartition: the probe resolves dedicated
// publisher partitions exactly like the serve path.
func TestDCContainsPublisherPartition(t *testing.T) {
	c := New(Config{
		NewCache:        func() Cache { return NewLRU(1 << 30) },
		ChunkBytes:      -1,
		PublisherCaches: map[string]func() Cache{"V-1": func() Cache { return NewLRU(1 << 30) }},
	})
	rec := fillProbeRecord(0x77, 2048, 0, "jpg")
	serve(c, rec)
	if !c.DCContains(timeutil.RegionEurope, rec) {
		t.Error("partitioned object not found by probe")
	}
	// The shared default cache must not have it.
	if c.DC(timeutil.RegionEurope).Cache.Contains(wholeSlot(c, rec)) {
		t.Error("object leaked into the default partition")
	}
}

// TestConcurrentDCContains exercises the locked probe against live
// serving traffic (meaningful under -race).
func TestConcurrentDCContains(t *testing.T) {
	c := New(Config{NewCache: func() Cache { return NewLRU(1 << 30) }, ChunkBytes: -1})
	cc := NewConcurrent(c)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var out trace.Record
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rec := fillProbeRecord(uint64(i%64), 4096, 0, "jpg")
			cc.ServeInto(rec, &out)
		}
	}()
	for i := 0; i < 2000; i++ {
		cc.DCContains(timeutil.RegionEurope, fillProbeRecord(uint64(i%64), 4096, 0, "jpg"))
	}
	close(stop)
	wg.Wait()
	// Out-of-range regions route to the first DC like serving does (which
	// holds none of the European traffic) instead of panicking.
	if cc.DCContains(timeutil.Region(0), fillProbeRecord(1, 1, 0, "jpg")) {
		t.Error("region 0 probe must answer false")
	}
}
