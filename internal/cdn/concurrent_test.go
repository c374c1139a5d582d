package cdn

import (
	"sync"
	"testing"
	"time"

	"trafficscope/internal/obs"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// concRecords builds a workload that exercises every serve-path feature:
// all four regions, a dedicated publisher partition, videos (chunked) and
// pages, repeated objects and repeated users.
func concRecords(n int) []*trace.Record {
	t0 := time.Date(2016, 4, 12, 0, 0, 0, 0, time.UTC)
	regions := timeutil.AllRegions()
	recs := make([]*trace.Record, n)
	for i := range recs {
		pub, ft := "V-1", trace.FileType("mp4")
		size := int64(6 << 20)
		if i%3 == 0 {
			pub, ft = "P-1", trace.FileType("html")
			size = 64 << 10
		}
		recs[i] = &trace.Record{
			Timestamp:   t0.Add(time.Duration(i) * time.Second),
			Publisher:   pub,
			ObjectID:    uint64(i % 50),
			FileType:    ft,
			ObjectSize:  size,
			BytesServed: size / 2,
			UserID:      uint64(i % 17),
			Region:      regions[i%len(regions)],
		}
	}
	return recs
}

func concConfig(reg *obs.Registry) Config {
	return Config{
		NewCache:        func() Cache { return NewLRU(1 << 30) },
		ChunkBytes:      2 << 20,
		PublisherCaches: map[string]func() Cache{"P-1": func() Cache { return NewLRU(256 << 20) }},
		IsIncognito:     func(site string, userID uint64) bool { return userID%2 == 0 },
		P403:            0.05,
		Metrics:         reg,
	}
}

// TestConcurrentServeMatchesSequential drives a ConcurrentCDN from a
// single goroutine and checks every finalized record and all statistics
// against the plain single-threaded CDN — the equivalence that keeps the
// single-worker live replay byte-identical to an offline replay.
func TestConcurrentServeMatchesSequential(t *testing.T) {
	recs := concRecords(2000)

	seq := New(concConfig(nil))
	conc := NewConcurrent(New(concConfig(nil)))
	var got trace.Record
	for i, r := range recs {
		want := serve(seq, r)
		conc.ServeInto(r, &got)
		if got != *want {
			t.Fatalf("record %d: concurrent serve = %+v, want %+v", i, got, want)
		}
	}
	if got, want := conc.TotalStats(), seq.TotalStats(); got != want {
		t.Errorf("TotalStats = %+v, want %+v", got, want)
	}
	for _, region := range timeutil.AllRegions() {
		got := conc.c.DC(region).StatsSnapshot()
		want := seq.DC(region).StatsSnapshot()
		if got != want {
			t.Errorf("DC %v stats = %+v, want %+v", region, got, want)
		}
	}
}

// TestConcurrentServeRace hammers one ConcurrentCDN from many goroutines
// with metrics and a publisher partition enabled; run under -race this
// is the data-race gate for the whole concurrent serve path. It also
// checks that no request is lost or double-counted.
func TestConcurrentServeRace(t *testing.T) {
	const workers = 8
	recs := concRecords(4000)
	conc := NewConcurrent(New(concConfig(obs.NewRegistry())))

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var out trace.Record
			for i := w; i < len(recs); i += workers {
				conc.ServeInto(recs[i], &out)
				if out.StatusCode == 0 {
					t.Errorf("record %d: zero status", i)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	total := conc.TotalStats()
	if total.Requests != int64(len(recs)) {
		t.Errorf("requests = %d, want %d", total.Requests, len(recs))
	}
	if total.Hits+total.Misses > total.Requests {
		t.Errorf("hits+misses = %d exceeds requests %d", total.Hits+total.Misses, total.Requests)
	}
}

// TestConcurrentTotalsMatchOffline verifies the order-independent case:
// with caches large enough not to evict and the order-sensitive features
// (browser cache, rejection dice) off, per-DC totals equal a sequential
// replay of the same records regardless of interleaving.
// TestConcurrentServeLinearizable covers the order-sensitive one.
func TestConcurrentTotalsMatchOffline(t *testing.T) {
	mkCfg := func() Config {
		return Config{
			NewCache:        func() Cache { return NewLRU(16 << 30) },
			ChunkBytes:      2 << 20,
			PublisherCaches: map[string]func() Cache{"P-1": func() Cache { return NewLRU(4 << 30) }},
		}
	}
	recs := concRecords(6000)

	seq := New(mkCfg())
	for _, r := range recs {
		serve(seq, r)
	}

	conc := NewConcurrent(New(mkCfg()))
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Strided partitioning scrambles per-DC arrival order
			// relative to the sequential pass.
			var out trace.Record
			for i := w; i < len(recs); i += workers {
				conc.ServeInto(recs[i], &out)
			}
		}(w)
	}
	wg.Wait()

	for _, region := range timeutil.AllRegions() {
		got := conc.c.DC(region).StatsSnapshot()
		want := seq.DC(region).StatsSnapshot()
		if got != want {
			t.Errorf("DC %v: concurrent totals %+v, want %+v", region, got, want)
		}
	}
}

// orderLog records the order in which requests reached any cache of one
// CDN, identifying each request by its (unique) timestamp.
type orderLog struct {
	mu    sync.Mutex
	order []time.Time
}

// recordingCache logs every Access to an orderLog before delegating. A
// chunked video request touches the cache once per chunk with the same
// timestamp; the run collapses to one entry, so a timestamp logged twice
// means two requests' chunk sequences interleaved.
type recordingCache struct {
	Cache
	log *orderLog
}

func (rc recordingCache) Access(slot uint32, size int64, now time.Time) bool {
	rc.log.mu.Lock()
	if n := len(rc.log.order); n == 0 || !rc.log.order[n-1].Equal(now) {
		rc.log.order = append(rc.log.order, now)
	}
	rc.log.mu.Unlock()
	return rc.Cache.Access(slot, size, now)
}

// linearRecords is the hard workload: 60 users shared by every
// goroutine, chunked video next to browser-cacheable images (in their own
// publisher partition) and rejectable beacons, all four regions. Each
// user keeps to one object, so the rejection dice — a function of
// (object, user, sequence number) and the category — give the same
// verdict at a given sequence number whichever of the user's requests
// holds it. Requests are 72 s apart, so the browser cache's 24 h
// freshness lapses every 1200 requests.
func linearRecords(n int) []*trace.Record {
	regions := timeutil.AllRegions()
	recs := make([]*trace.Record, n)
	for i := range recs {
		user := uint64(i*7) % 60
		kind := user % 4
		r := &trace.Record{
			Timestamp: t0.Add(time.Duration(i) * 72 * time.Second),
			ObjectID:  100*kind + user/4%5,
			UserID:    user,
			Region:    regions[i/3%len(regions)],
		}
		switch kind {
		case 0, 1:
			r.Publisher, r.FileType, r.ObjectSize = "V-1", trace.FileMP4, 6<<20
		case 2:
			r.Publisher, r.FileType, r.ObjectSize = "P-1", trace.FileJPG, 64<<10
		default:
			r.Publisher, r.FileType, r.ObjectSize = "V-1", trace.FileJS, 16<<10
		}
		r.BytesServed = r.ObjectSize / 2
		recs[i] = r
	}
	return recs
}

// TestConcurrentServeLinearizable is the equivalence statement for the
// hard configuration — chunked video, caches that evict, the browser
// cache and all three rejection dice on, goroutines sharing users: the
// responses and per-DC counters of a concurrent run equal those of a
// sequential CDN served in the order the concurrent requests took
// effect. A recording cache observes that order for every request that
// reached a cache. Rejected requests reach none; all they consume is one
// of their user's sequence numbers, and linearRecords makes the dice say
// which numbers those are, so each user's rejected requests are slotted
// at them and the sequential CDN has to reproduce every record.
func TestConcurrentServeLinearizable(t *testing.T) {
	mkCfg := func(log *orderLog) Config {
		lru := func(capacity int64) func() Cache {
			return func() Cache { return recordingCache{NewLRU(capacity), log} }
		}
		return Config{
			NewCache:        lru(12 << 20),
			PublisherCaches: map[string]func() Cache{"P-1": lru(192 << 10)},
			ChunkBytes:      2 << 20,
			IsIncognito:     func(_ string, userID uint64) bool { return userID%3 == 0 },
			P403:            0.04,
			P416:            0.05,
			P204:            0.2,
		}
	}
	recs := linearRecords(6000)
	index := make(map[time.Time]int, len(recs))
	for i, r := range recs {
		index[r.Timestamp] = i
	}

	var log orderLog
	conc := NewConcurrent(New(mkCfg(&log)))
	got := make([]trace.Record, len(recs))
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(recs); i += workers {
				conc.ServeInto(recs[i], &got[i])
			}
		}(w)
	}
	wg.Wait()

	// Per user: the requests the log saw, in log order, and the rejected
	// rest by status.
	type userOrder struct {
		first    *trace.Record
		n        int
		reached  []int
		rejected map[int][]int
	}
	users := map[uint64]*userOrder{}
	for _, r := range recs {
		u := users[r.UserID]
		if u == nil {
			u = &userOrder{first: r, rejected: map[int][]int{}}
			users[r.UserID] = u
		}
		u.n++
	}
	logged := make([]bool, len(recs))
	for _, ts := range log.order {
		i := index[ts]
		if logged[i] {
			t.Fatalf("request %d reached the cache in two separate runs: chunk sequences interleaved", i)
		}
		logged[i] = true
		u := users[recs[i].UserID]
		u.reached = append(u.reached, i)
	}
	nRejected := 0
	for i := range recs {
		switch status := got[i].StatusCode; status {
		case StatusForbidden, StatusRangeError, StatusNoContent:
			if logged[i] {
				t.Fatalf("request %d was rejected with %d yet touched the cache", i, status)
			}
			u := users[recs[i].UserID]
			u.rejected[status] = append(u.rejected[status], i)
			nRejected++
		default:
			if !logged[i] {
				t.Fatalf("request %d answered %d without touching the cache", i, status)
			}
		}
	}

	// Total order: walk the log; before a user's next cache-reaching
	// request, emit the rejected ones holding the sequence numbers the
	// dice reject in between. Trailing rejections follow the log.
	ref := New(mkCfg(new(orderLog)))
	total := make([]int, 0, len(recs))
	seq := map[uint64]uint32{}
	// emitRejected advances the user's sequence number past every
	// rejecting roll, emitting a rejected request of that status for each.
	emitRejected := func(user uint64) {
		u := users[user]
		for int(seq[user]) < u.n {
			status := ref.rejection(u.first, seq[user])
			if status == 0 {
				return
			}
			q := u.rejected[status]
			if len(q) == 0 {
				t.Fatalf("user %d: request #%d rolls %d but no response of the concurrent run carries it", user, seq[user], status)
			}
			total = append(total, q[0])
			u.rejected[status] = q[1:]
			seq[user]++
		}
	}
	for _, ts := range log.order {
		i := index[ts]
		user := recs[i].UserID
		emitRejected(user)
		total = append(total, i)
		seq[user]++
	}
	for user := range users {
		emitRejected(user)
	}
	if len(total) != len(recs) {
		t.Fatalf("reconstructed order has %d requests, want %d", len(total), len(recs))
	}

	for _, i := range total {
		// The dense keys number users and objects by first sight, which
		// the reconstruction moves for rejected requests: compare the
		// responses without them.
		want := serve(ref, recs[i])
		want.ObjectKey, want.UserKey = got[i].ObjectKey, got[i].UserKey
		if got[i] != *want {
			t.Fatalf("request %d: concurrent response %+v, sequential replay of the observed order gives %+v", i, got[i], *want)
		}
	}
	for _, region := range timeutil.AllRegions() {
		got, want := conc.c.DC(region).StatsSnapshot(), ref.DC(region).StatsSnapshot()
		if got != want {
			t.Errorf("DC %v: concurrent stats %+v, sequential %+v", region, got, want)
		}
	}
	if st := conc.TotalStats(); st.Hits == 0 || st.Misses == 0 || nRejected == 0 {
		t.Errorf("workload too easy: %+v, %d rejections", st, nRejected)
	}
}

// TestConcurrentServeUnlocksOnPanic: a request whose serve panics (here a
// numbered record after the CDN numbered one itself) releases the serve
// lock, so the requests after it are served instead of queueing forever.
func TestConcurrentServeUnlocksOnPanic(t *testing.T) {
	cc := NewConcurrent(New(Config{}))
	var out trace.Record
	cc.ServeInto(imageReq(1, 1, 100, t0), &out)
	numbered := imageReq(2, 2, 100, t0)
	numbered.ObjectKey, numbered.UserKey = 1, 1
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("serving a numbered record after an unnumbered one did not panic")
			}
		}()
		cc.ServeInto(numbered, &out)
	}()
	done := make(chan struct{})
	go func() {
		cc.ServeInto(imageReq(1, 1, 100, t0), &out)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the request after the panic never got the serve lock")
	}
	if out.Cache != trace.CacheHit {
		t.Errorf("object 1 again: %v, want HIT", out.Cache)
	}
}
