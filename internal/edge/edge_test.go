package edge

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"trafficscope/internal/cdn"
	"trafficscope/internal/obs"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

func testRecord() *trace.Record {
	return &trace.Record{
		Timestamp:   time.Date(2016, 4, 12, 9, 30, 0, 123456000, time.UTC),
		Publisher:   "V-1",
		ObjectID:    0xdeadbeefcafe,
		FileType:    "mp4",
		ObjectSize:  5 << 20,
		BytesServed: 1 << 20,
		UserID:      0xabc123,
		Region:      timeutil.RegionEurope,
	}
}

func TestWireRoundTrip(t *testing.T) {
	recs := []*trace.Record{
		testRecord(),
		{ // zero BytesServed: the bytes param stays off the wire
			Timestamp:  time.Unix(0, 1000).UTC(),
			Publisher:  "P-2",
			ObjectID:   1,
			FileType:   "jpg",
			ObjectSize: 4096,
			UserID:     7,
			Region:     timeutil.RegionNorthAmerica,
		},
		{ // publisher needing path escaping
			Timestamp:  time.Unix(1700000000, 0).UTC(),
			Publisher:  "weird/site name",
			ObjectID:   ^uint64(0),
			FileType:   "html",
			ObjectSize: 1,
			UserID:     ^uint64(0),
			Region:     timeutil.RegionAsia,
		},
	}
	for _, want := range recs {
		path := RequestPath(want)
		req := httptest.NewRequest(http.MethodGet, path, nil)
		got, err := parseRequest(req)
		if err != nil {
			t.Fatalf("ParseRequestInto(%q): %v", path, err)
		}
		if !got.Timestamp.Equal(want.Timestamp) {
			t.Errorf("%q: timestamp %v, want %v", path, got.Timestamp, want.Timestamp)
		}
		if got.Publisher != want.Publisher || got.ObjectID != want.ObjectID ||
			got.FileType != want.FileType || got.ObjectSize != want.ObjectSize ||
			got.BytesServed != want.BytesServed || got.UserID != want.UserID ||
			got.Region != want.Region {
			t.Errorf("%q: round trip mismatch:\n got %+v\nwant %+v", path, got, want)
		}
	}
}

// parseRequest decodes req into a fresh record.
func parseRequest(req *http.Request) (*trace.Record, error) {
	rec := new(trace.Record)
	if err := ParseRequestInto(req, rec); err != nil {
		return nil, err
	}
	return rec, nil
}

func TestParseRequestRejectsBadInput(t *testing.T) {
	good := RequestPath(testRecord())
	bad := []string{
		"/other/path",
		ObjectPrefix + "nopublisher",
		ObjectPrefix + "V-1/zzzz?ts=1&ft=mp4&size=1&user=1&region=0",
		strings.Replace(good, "ts=", "ts=xx", 1),
		strings.Replace(good, "size=", "size=-", 1),
		strings.Replace(good, "user=", "user=zz", 1),
		strings.Replace(good, "region=", "region=zz", 1),
		strings.Replace(good, "ft=mp4", "ft=", 1),
	}
	for _, p := range bad {
		req := httptest.NewRequest(http.MethodGet, p, nil)
		if _, err := parseRequest(req); err == nil {
			t.Errorf("ParseRequestInto(%q): want error, got nil", p)
		}
	}
}

// newTestServer builds an edge from cfg; without a CDN it gets a 64 MiB
// LRU one counting into cfg.Metrics, as tsserve's does.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.CDN == nil {
		cfg.CDN = cdn.New(cdn.Config{
			NewCache:   func() cdn.Cache { return cdn.NewLRU(64 << 20) },
			ChunkBytes: -1,
			Metrics:    cfg.Metrics,
		})
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestHandlerServesObject(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rec := testRecord()
	// First request misses, second hits the same (non-chunked) object.
	for i, want := range []string{trace.CacheMiss.String(), trace.CacheHit.String()} {
		resp, err := http.Get(ts.URL + RequestPath(rec))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusPartialContent {
			t.Fatalf("request %d: status %d, want %d", i, resp.StatusCode, http.StatusPartialContent)
		}
		if got := resp.Header.Get(HeaderCache); got != want {
			t.Errorf("request %d: %s = %q, want %q", i, HeaderCache, got, want)
		}
		if got := resp.Header.Get(HeaderBytes); got != fmt.Sprint(rec.BytesServed) {
			t.Errorf("request %d: %s = %q, want %d", i, HeaderBytes, got, rec.BytesServed)
		}
		// The logical size exceeds MaxBodyBytes, so the wire body is
		// truncated to exactly the cap.
		if int64(len(body)) != DefaultMaxBodyBytes {
			t.Errorf("request %d: body %d bytes, want %d", i, len(body), DefaultMaxBodyBytes)
		}
	}
	st := s.TotalStats()
	if st.Requests != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 2 requests, 1 hit, 1 miss", st)
	}
}

// TestObjectResponsesCarryContentLength pins how object bodies are
// framed over real HTTP: Content-Length is min(BytesServed,
// MaxBodyBytes), nothing is chunked, HEAD declares the same length
// without a body, and a 304 carries no body.
func TestObjectResponsesCarryContentLength(t *testing.T) {
	s := newTestServer(t, Config{CDN: cdn.New(cdn.Config{
		NewCache:    func() cdn.Cache { return cdn.NewLRU(64 << 20) },
		ChunkBytes:  -1,
		IsIncognito: func(string, uint64) bool { return false }, // revalidations answer 304
	})})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	large := testRecord() // 1 MiB logical, capped at DefaultMaxBodyBytes
	small := testRecord()
	small.ObjectID++
	small.FileType = "jpg"
	small.ObjectSize, small.BytesServed = 1000, 1000
	for _, c := range []struct {
		name string
		rec  *trace.Record
		want int64
	}{
		{"above the cap", large, DefaultMaxBodyBytes},
		{"below the cap", small, 1000},
	} {
		resp, err := http.Get(ts.URL + RequestPath(c.rec))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.ContentLength != c.want || int64(len(body)) != c.want {
			t.Errorf("%s: Content-Length %d, body %d bytes; want %d", c.name, resp.ContentLength, len(body), c.want)
		}
		if len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Transfer-Encoding %v, want none", c.name, resp.TransferEncoding)
		}

		head := *c.rec
		head.UserID++ // another browser, which has nothing to revalidate
		resp, err = http.Head(ts.URL + RequestPath(&head))
		if err != nil {
			t.Fatal(err)
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.ContentLength != c.want || len(body) != 0 {
			t.Errorf("%s HEAD: Content-Length %d, body %d bytes; want %d and none", c.name, resp.ContentLength, len(body), c.want)
		}
	}

	// The browser that fetched small now holds a fresh copy: asking again
	// revalidates.
	resp, err := http.Get(ts.URL + RequestPath(small))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Errorf("revalidation: status %d, body %d bytes; want 304 and none", resp.StatusCode, len(body))
	}
}

// TestHandlerServesHugeClaimedSizes: the size a request claims is the
// client's to choose. An image and a video claiming 2^52 bytes are each
// served once, as a miss, and the edge goes on serving: the object after
// them misses, then hits.
func TestHandlerServesHugeClaimedSizes(t *testing.T) {
	s := newTestServer(t, Config{CDN: cdn.New(cdn.Config{NewCache: func() cdn.Cache { return cdn.NewLRU(64 << 20) }})})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(rec *trace.Record) (status int, cache string) {
		t.Helper()
		resp, err := http.Get(ts.URL + RequestPath(rec))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get(HeaderCache)
	}
	image, video := testRecord(), testRecord()
	image.FileType = "jpg"
	video.ObjectID++
	for _, rec := range []*trace.Record{image, video} {
		rec.ObjectSize, rec.BytesServed = 1<<52, 1<<52
		if status, cache := get(rec); status != http.StatusOK || cache != trace.CacheMiss.String() {
			t.Fatalf("%s of 2^52 bytes: status %d, %s; want 200, MISS", rec.FileType, status, cache)
		}
	}
	small := testRecord()
	small.ObjectID += 2
	for _, want := range []string{trace.CacheMiss.String(), trace.CacheHit.String()} {
		if status, cache := get(small); status != http.StatusPartialContent || cache != want {
			t.Fatalf("the next object: status %d, %s; want 206, %s", status, cache, want)
		}
	}
}

func TestHandlerRejects(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+RequestPath(testRecord()), "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST: status %d, want %d", resp.StatusCode, http.StatusMethodNotAllowed)
	}

	resp, err = http.Get(ts.URL + ObjectPrefix + "V-1/nothex?ts=1&ft=mp4&size=1&user=1&region=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad object id: status %d, want %d", resp.StatusCode, http.StatusBadRequest)
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New without CDN: want error")
	}
	network := cdn.New(cdn.Config{NewCache: func() cdn.Cache { return cdn.NewLRU(1 << 20) }})
	if _, err := New(Config{CDN: network, OriginBandwidth: -1}); err == nil {
		t.Error("New with negative OriginBandwidth: want error")
	}
}

func TestLoadShedding(t *testing.T) {
	// MaxInflight 1 plus a slow origin: with two concurrent misses, one
	// request must be shed with 503 + Retry-After.
	s := newTestServer(t, Config{
		MaxInflight:   1,
		OriginLatency: 300 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rec1, rec2 := testRecord(), testRecord()
	rec2.ObjectID++ // distinct objects so both requests miss and stall
	var mu sync.Mutex
	statuses := map[int]int{}
	var wg sync.WaitGroup
	for _, rec := range []*trace.Record{rec1, rec2} {
		wg.Add(1)
		go func(rec *trace.Record) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + RequestPath(rec))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			mu.Lock()
			statuses[resp.StatusCode]++
			if resp.StatusCode == http.StatusServiceUnavailable &&
				resp.Header.Get("Retry-After") == "" {
				t.Error("503 without Retry-After")
			}
			mu.Unlock()
		}(rec)
		time.Sleep(50 * time.Millisecond) // first request reaches the origin stall
	}
	wg.Wait()
	if statuses[http.StatusServiceUnavailable] != 1 {
		t.Errorf("statuses = %v, want exactly one 503", statuses)
	}
}

// TestStatsEndpoint: /metrics is the edge's stats page, and its
// cdn_*{dc} series read back as the DCs' DCStats.
func TestStatsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Metrics: obs.NewRegistry()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, err := http.Get(ts.URL + RequestPath(testRecord())); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	page := scrape(t, ts.URL)
	var total cdn.DCStats
	for _, r := range timeutil.AllRegions() {
		total.Add(cdn.ReadStats(r, page))
	}
	if total.Requests != 1 || total != s.TotalStats() {
		t.Errorf("page total %+v, want 1 request and the CDN's %+v", total, s.TotalStats())
	}
	if dc := cdn.ReadStats(timeutil.RegionEurope, page); dc.Requests != 1 {
		t.Errorf("europe requests = %d, want 1 (got %+v)", dc.Requests, dc)
	}
}

// scrape GETs base's /metrics page and returns a reader of its series,
// by name and labels as the page prints them (0 for an absent one).
func scrape(t *testing.T, base string) func(series string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d, %v", resp.StatusCode, err)
	}
	values := map[string]int64{}
	for _, line := range strings.Split(string(page), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		f, err := strconv.ParseFloat(line[sp+1:], 64)
		if sp < 0 || err != nil {
			t.Fatalf("/metrics line %q: %v", line, err)
		}
		values[line[:sp]] = int64(f)
	}
	return func(series string) int64 { return values[series] }
}

func TestGracefulDrain(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- s.ListenAndServe(ctx, ListenConfig{
			Addr:         "127.0.0.1:0",
			DrainTimeout: 2 * time.Second,
			OnReady:      func(addr string) { ready <- addr },
		})
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("server exited before ready: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}

	// A connection that never sends a request (a client transport's
	// parked spare) must not hold the drain: net/http alone would wait
	// five seconds for it. Accepts are sequential, so once the GET below
	// is answered the server has seen this one too.
	spare, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer spare.Close()
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Errorf("drained server returned %v, want nil", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server did not drain after cancel")
	}
}

// TestDrainOverrunReturns: a request that outlives DrainTimeout does not
// hold ListenAndServe past the budget; the server is hard-closed and the
// overrun reported.
func TestDrainOverrunReturns(t *testing.T) {
	s := newTestServer(t, Config{OriginLatency: 10 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- s.ListenAndServe(ctx, ListenConfig{
			Addr:         "127.0.0.1:0",
			DrainTimeout: 300 * time.Millisecond,
			OnReady:      func(addr string) { ready <- addr },
		})
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}

	// A request that sleeps at the simulated origin far longer than the
	// drain budget.
	client := &http.Client{}
	go func() {
		resp, err := client.Get("http://" + addr + RequestPath(testRecord()))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	time.Sleep(150 * time.Millisecond) // request reaches the origin stall

	cancel()
	select {
	case err := <-errc:
		if err == nil {
			t.Error("drain with in-flight request past DrainTimeout returned nil, want deadline error")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("ListenAndServe hung on drain past DrainTimeout")
	}
}

// TestShedMetricsAccounting verifies that shed requests are counted in
// edge_requests_total and that every exit path — shed, bad request,
// served — lands in the latency histogram.
func TestShedMetricsAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{
		MaxInflight:   1,
		OriginLatency: 300 * time.Millisecond,
		Metrics:       reg,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rec1, rec2 := testRecord(), testRecord()
	rec2.ObjectID++ // distinct objects: both miss and stall at the origin
	var wg sync.WaitGroup
	for _, rec := range []*trace.Record{rec1, rec2} {
		wg.Add(1)
		go func(rec *trace.Record) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + RequestPath(rec))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}(rec)
		time.Sleep(50 * time.Millisecond) // first request reaches the origin stall
	}
	wg.Wait()

	// A bad request exercises the third exit path.
	resp, err := http.Get(ts.URL + ObjectPrefix + "V-1/nothex?ts=1&ft=mp4&size=1&user=1&region=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	snap := reg.Snapshot()
	if got := snap.Counters["edge_requests_total"]; got != 3 {
		t.Errorf("edge_requests_total = %d, want 3 (served + shed + bad request)", got)
	}
	if got := snap.Counters["edge_shed_total"]; got != 1 {
		t.Errorf("edge_shed_total = %d, want 1", got)
	}
	if got := snap.Counters["edge_bad_requests_total"]; got != 1 {
		t.Errorf("edge_bad_requests_total = %d, want 1", got)
	}
	// The served request is its region's; the shed and the bad request
	// reached no region.
	for region, want := range map[string]int64{"europe": 1, "none": 2} {
		if got := snap.Histograms[obs.Name("edge_request_seconds", "region", region)].Count; got != want {
			t.Errorf("latency histogram count for region %s = %d, want %d (all exit paths observed)", region, got, want)
		}
	}
}

// TestCancelMidFetchKeepsAccounting covers the header-after-sleep bug:
// a client that gives up during the simulated origin fetch must still
// leave the edge's CDN counters identical to an offline replay, and the
// response headers (committed before the sleep) must carry the cache
// verdict so a client that does read the implicit response sees it.
func TestCancelMidFetchKeepsAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{OriginLatency: 5 * time.Second, Metrics: reg})

	// A request whose context is already cancelled: the handler serves
	// the record through the CDN, then abandons the origin sleep.
	rec := testRecord()
	req := httptest.NewRequest(http.MethodGet, RequestPath(rec), nil)
	ctx, cancel := context.WithCancel(req.Context())
	cancel()
	req = req.WithContext(ctx)
	rw := httptest.NewRecorder()
	s.Handler().ServeHTTP(rw, req)

	if got := rw.Header().Get(HeaderCache); got != trace.CacheMiss.String() {
		t.Errorf("%s = %q, want %q (headers must be set before the origin sleep)",
			HeaderCache, got, trace.CacheMiss.String())
	}
	if rw.Header().Get(HeaderBytes) == "" {
		t.Errorf("%s missing on cancelled exchange", HeaderBytes)
	}
	if got := reg.Snapshot().Counters["edge_client_cancelled_total"]; got != 1 {
		t.Errorf("edge_client_cancelled_total = %d, want 1", got)
	}

	// A second, patient request for the same object now hits.
	req2 := httptest.NewRequest(http.MethodGet, RequestPath(rec), nil)
	rw2 := httptest.NewRecorder()
	s.Handler().ServeHTTP(rw2, req2)
	if got := rw2.Header().Get(HeaderCache); got != trace.CacheHit.String() {
		t.Errorf("second request: %s = %q, want hit", HeaderCache, got)
	}

	// Server-side accounting equals an offline replay of the same two
	// records despite the first client's cancellation.
	offline := cdn.New(cdn.Config{
		NewCache:   func() cdn.Cache { return cdn.NewLRU(64 << 20) },
		ChunkBytes: -1,
	})
	offline.ServeInto(rec, new(trace.Record))
	offline.ServeInto(rec, new(trace.Record))
	if got, want := s.TotalStats(), offline.TotalStats(); got != want {
		t.Errorf("live stats after cancellation = %+v, want offline %+v", got, want)
	}
}

// TestConcurrentObjectServing exercises the lock-free handler path from
// many goroutines (run under -race via `make race`): requests across
// all regions must all be served and counted exactly once.
func TestConcurrentObjectServing(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const workers, perWorker = 8, 50
	regions := timeutil.AllRegions()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; i < perWorker; i++ {
				rec := testRecord()
				rec.ObjectID = uint64(w*perWorker + i)
				rec.UserID = uint64(i % 7)
				rec.Region = regions[(w+i)%len(regions)]
				resp, err := client.Get(ts.URL + RequestPath(rec))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusPartialContent {
					t.Errorf("status %d, want %d", resp.StatusCode, http.StatusPartialContent)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st := s.TotalStats()
	if st.Requests != workers*perWorker {
		t.Errorf("requests = %d, want %d", st.Requests, workers*perWorker)
	}
	if st.Misses != workers*perWorker {
		t.Errorf("misses = %d, want %d (every object distinct)", st.Misses, workers*perWorker)
	}
}

func TestScopedEdgeRefusesForeignRegions(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{
		Regions: []timeutil.Region{timeutil.RegionEurope},
		Metrics: reg,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The owned region serves normally.
	eu := testRecord() // RegionEurope
	resp, err := http.Get(ts.URL + RequestPath(eu))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("owned region: status %d, want %d", resp.StatusCode, http.StatusPartialContent)
	}

	// A foreign region is refused with 421 and never touches the CDN.
	asia := testRecord()
	asia.Region = timeutil.RegionAsia
	resp, err = http.Get(ts.URL + RequestPath(asia))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("foreign region: status %d, want %d", resp.StatusCode, http.StatusMisdirectedRequest)
	}
	if st := s.TotalStats(); st.Requests != 1 {
		t.Errorf("CDN saw %d requests, want 1 (misroute must not be served)", st.Requests)
	}
	if got := reg.Counter("edge_misrouted_total").Value(); got != 1 {
		t.Errorf("edge_misrouted_total = %d, want 1", got)
	}

	// /metrics counts the request in the owned DC alone.
	page := scrape(t, ts.URL)
	for _, r := range timeutil.AllRegions() {
		want := int64(0)
		if r == timeutil.RegionEurope {
			want = 1
		}
		if dc := cdn.ReadStats(r, page); dc.Requests != want {
			t.Errorf("%v requests = %d on /metrics, want %d", r, dc.Requests, want)
		}
	}
}

func TestNewRejectsUnknownRegion(t *testing.T) {
	network := cdn.New(cdn.Config{NewCache: func() cdn.Cache { return cdn.NewLRU(1 << 20) }})
	if _, err := New(Config{CDN: network, Regions: []timeutil.Region{99}}); err == nil {
		t.Error("New with out-of-range region: want error")
	}
}
