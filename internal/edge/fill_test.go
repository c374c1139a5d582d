package edge

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trafficscope/internal/cdn"
	"trafficscope/internal/timeutil"
	"trafficscope/internal/trace"
)

// TestFillEndpoint: /fill/ answers residency from cache alone — 404
// before the object is cached, 200 after — and probing never moves the
// DC's stats (the read-only contract offline Replay equivalence needs).
func TestFillEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rec := testRecord()
	fillURL := ts.URL + string(AppendFillPath(nil, rec))

	resp, err := http.Get(fillURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("fill before caching: status %d, want 404", resp.StatusCode)
	}

	// Serve the object (a miss admits it), then probe repeatedly.
	if resp, err = http.Get(ts.URL + RequestPath(rec)); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	before := s.TotalStats()
	for i := 0; i < 3; i++ {
		resp, err = http.Get(fillURL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fill after caching: status %d, want 200", resp.StatusCode)
		}
	}
	if got := resp.Header.Get(HeaderFillSource); got != "peer" {
		t.Errorf("%s = %q, want peer", HeaderFillSource, got)
	}
	if got := resp.Header.Get(HeaderCache); got != trace.CacheHit.String() {
		t.Errorf("%s = %q, want HIT", HeaderCache, got)
	}
	if after := s.TotalStats(); after != before {
		t.Errorf("fill probes moved DC stats: %+v -> %+v", before, after)
	}

	fs := s.FillStats()
	if fs.ServedRequests != 4 || fs.ServedHits != 3 {
		t.Errorf("served fill stats = %+v, want 4 requests / 3 hits", fs)
	}
	wantBytes := 3 * rec.ObjectSize
	if fs.ServedBytes != wantBytes {
		t.Errorf("ServedBytes = %d, want %d", fs.ServedBytes, wantBytes)
	}

	// Bad fill requests 400 like bad object requests.
	resp, err = http.Get(ts.URL + FillPrefix + "nopublisher")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad fill request: status %d, want 400", resp.StatusCode)
	}
}

// TestFillMissSaysWhetherFirstChunkIsHeld: a probe for a range the edge
// lacks answers 404 either way, with HeaderFillHeld when the edge still
// holds the object's first chunk (it may serve a shorter range) and bare
// when it holds none of the object.
func TestFillMissSaysWhetherFirstChunkIsHeld(t *testing.T) {
	s := newTestServer(t, Config{CDN: cdn.New(cdn.Config{
		NewCache:   func() cdn.Cache { return cdn.NewLRU(64 << 20) },
		ChunkBytes: 1 << 20,
	})})
	handler := s.Handler()
	probe := func(rec *trace.Record) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, httptest.NewRequest(http.MethodHead, string(AppendFillPath(nil, rec)), nil))
		return w
	}

	// A 1 MiB range of a 5 MiB video admits its first chunk alone.
	rec := testRecord()
	handler.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, RequestPath(rec), nil))
	if w := probe(rec); w.Code != http.StatusOK {
		t.Fatalf("probe of the cached range: status %d, want 200", w.Code)
	}
	longer := *rec
	longer.BytesServed = 3 << 20
	if w := probe(&longer); w.Code != http.StatusNotFound || w.Header().Get(HeaderFillHeld) != "1" {
		t.Errorf("probe of a longer range: status %d, %s %q; want 404 with 1",
			w.Code, HeaderFillHeld, w.Header().Get(HeaderFillHeld))
	}
	other := *rec
	other.ObjectID++
	if w := probe(&other); w.Code != http.StatusNotFound || len(w.Header()) != 0 {
		t.Errorf("probe of an uncached object: status %d, headers %v; want a bare 404", w.Code, w.Header())
	}
}

// shieldReply answers a fill the way fleet.Shield does: 200,
// X-TS-Fill-Source naming where the bytes came from, X-TS-Fill-Backend
// for a peer fill, X-TS-Fill-Dedup and X-TS-Bytes.
func shieldReply(source cdn.FillSource) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		var rec trace.Record
		if err := ParseFillRequestInto(req, &rec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		h := w.Header()
		h.Set(HeaderFillSource, source.String())
		if source == cdn.FillPeer {
			h.Set(HeaderFillBackend, "peer-dc")
		}
		h.Set(HeaderFillDedup, "0")
		h.Set(HeaderBytes, strconv.FormatInt(rec.ObjectSize, 10))
	}
}

// fakeShield is an httptest server answering /fill/ with reply. It counts
// requests and remembers the last X-TS-Fill-From.
type fakeShield struct {
	*httptest.Server
	mu       sync.Mutex
	requests int
	from     string
}

func newFakeShield(t *testing.T, reply http.HandlerFunc) *fakeShield {
	t.Helper()
	fs := &fakeShield{}
	mux := http.NewServeMux()
	mux.HandleFunc(FillPrefix, func(w http.ResponseWriter, req *http.Request) {
		fs.mu.Lock()
		fs.requests++
		fs.from = req.Header.Get(HeaderFillFrom)
		fs.mu.Unlock()
		reply(w, req)
	})
	fs.Server = httptest.NewServer(mux)
	t.Cleanup(fs.Close)
	return fs
}

func (fs *fakeShield) seen() (requests int, from string) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.requests, fs.from
}

// getMiss requests rec from the edge at base, requires a MISS verdict and
// returns the status code and how long the request took.
func getMiss(t *testing.T, base string, rec *trace.Record) (status int, elapsed time.Duration) {
	t.Helper()
	start := time.Now()
	resp, err := http.Get(base + RequestPath(rec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(HeaderCache); got != trace.CacheMiss.String() {
		t.Fatalf("%s = %q, want MISS", HeaderCache, got)
	}
	return resp.StatusCode, time.Since(start)
}

// TestPeerFill: a miss the shield fills from a peer DC is counted as a
// peer fill on the requester, costs it no origin latency — and the
// requester's CDN stats stay exactly what an offline replay of its own
// traffic would produce.
func TestPeerFill(t *testing.T) {
	shield := newFakeShield(t, shieldReply(cdn.FillPeer))
	s := newTestServer(t, Config{
		Name:          "local-dc",
		ShieldURL:     shield.URL,
		OriginLatency: 200 * time.Millisecond, // only paid if the shield fails
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rec := testRecord()
	if _, elapsed := getMiss(t, ts.URL, rec); elapsed >= 200*time.Millisecond {
		t.Errorf("miss filled from a peer took %v — looks like it paid the origin latency", elapsed)
	}

	fs := s.FillStats()
	if fs.PeerFills != 1 || fs.OriginFills != 0 || fs.DedupFills != 0 || fs.FillErrors != 0 {
		t.Errorf("fill stats = %+v, want exactly one peer fill", fs)
	}
	if fs.PeerFillBytes != rec.ObjectSize {
		t.Errorf("PeerFillBytes = %d, want %d", fs.PeerFillBytes, rec.ObjectSize)
	}
	if fs.SavedBytes() != rec.ObjectSize {
		t.Errorf("SavedBytes = %d, want %d", fs.SavedBytes(), rec.ObjectSize)
	}
	if n, from := shield.seen(); n != 1 || from != "local-dc" {
		t.Errorf("shield saw %d requests, last from %q; want 1 from local-dc", n, from)
	}

	// Equivalence: the requester's cache model never saw the fill layer.
	offline := cdn.New(cdn.Config{
		NewCache:   func() cdn.Cache { return cdn.NewLRU(64 << 20) },
		ChunkBytes: -1,
	})
	want := *rec
	offline.ServeInto(&want, &want)
	if got := s.TotalStats(); got != offline.TotalStats() {
		t.Errorf("live stats with peer fill %+v != offline replay %+v", got, offline.TotalStats())
	}
}

// TestPeerFillMissFallsBack: when no peer holds the object the shield
// fetches it from the origin; the requester counts one origin fill and
// does not pay its own origin model on top.
func TestPeerFillMissFallsBack(t *testing.T) {
	shield := newFakeShield(t, shieldReply(cdn.FillOrigin))
	s := newTestServer(t, Config{ShieldURL: shield.URL, OriginLatency: 200 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rec := testRecord()
	if _, elapsed := getMiss(t, ts.URL, rec); elapsed >= 200*time.Millisecond {
		t.Errorf("shield-filled miss took %v — looks like it paid the local origin latency too", elapsed)
	}
	fs := s.FillStats()
	if fs.OriginFills != 1 || fs.PeerFills != 0 || fs.FillErrors != 0 {
		t.Errorf("fill stats = %+v, want exactly one origin fill", fs)
	}
	if fs.OriginFillBytes != rec.ObjectSize {
		t.Errorf("OriginFillBytes = %d, want %d", fs.OriginFillBytes, rec.ObjectSize)
	}
	if n, _ := shield.seen(); n != 1 {
		t.Errorf("shield saw %d requests, want 1", n)
	}
}

// TestPeerFillUnreachableFallsBack: a shield that cannot answer — dead,
// or replying with something that is not a shield's answer — costs a fill
// error and one local origin fill, not a failed request. A bare 200 is an
// error too, never a peer hit: only the shield's own X-TS-Fill-Source
// says where bytes came from.
func TestPeerFillUnreachableFallsBack(t *testing.T) {
	cases := map[string]func() string{
		"dead shield": func() string { return "http://127.0.0.1:1" }, // nothing listens here
		"200 without a source": func() string {
			return newFakeShield(t, func(w http.ResponseWriter, _ *http.Request) {
				w.WriteHeader(http.StatusOK)
			}).URL
		},
		"404": func() string {
			return newFakeShield(t, func(w http.ResponseWriter, _ *http.Request) {
				http.Error(w, "not cached", http.StatusNotFound)
			}).URL
		},
	}
	for name, shieldURL := range cases {
		t.Run(name, func(t *testing.T) {
			s := newTestServer(t, Config{ShieldURL: shieldURL(), FillTimeout: 500 * time.Millisecond})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			rec := testRecord()
			if status, _ := getMiss(t, ts.URL, rec); status != http.StatusPartialContent {
				t.Fatalf("status %d, want %d", status, http.StatusPartialContent)
			}
			fs := s.FillStats()
			if fs.FillErrors != 1 || fs.OriginFills != 1 || fs.PeerFills != 0 {
				t.Errorf("fill stats = %+v, want one fill error + one origin fill", fs)
			}
			if fs.OriginFillBytes != rec.ObjectSize {
				t.Errorf("OriginFillBytes = %d, want %d", fs.OriginFillBytes, rec.ObjectSize)
			}
		})
	}
}

// TestFailedFillsReuseConnection: a shield's error replies carry an
// http.Error body; the fill client reads it, so a run of failed fills
// rides one kept-alive connection instead of dialling per fill.
func TestFailedFillsReuseConnection(t *testing.T) {
	shield := newFakeShield(t, func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "shield unavailable", http.StatusServiceUnavailable)
	})
	var dials atomic.Int64
	dialer := &net.Dialer{}
	s := newTestServer(t, Config{
		ShieldURL: shield.URL,
		FillTransport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				dials.Add(1)
				return dialer.DialContext(ctx, network, addr)
			},
		},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const fills = 50
	rec := testRecord()
	for i := 0; i < fills; i++ {
		rec.ObjectID++
		getMiss(t, ts.URL, rec)
	}
	if fs := s.FillStats(); fs.FillErrors != fills || fs.OriginFills != fills {
		t.Errorf("fill stats = %+v, want %d fill errors and origin fills", fs, fills)
	}
	if got := dials.Load(); got > 1 {
		t.Errorf("%d failed fills made %d dials to the shield, want <= 1", fills, got)
	}
}

// TestFillDedup is the tentpole's edge-local half: concurrent misses for
// one object (one per region — each DC's cache misses independently)
// collapse into exactly one shield fill; every other request is counted
// as deduped. `make check` runs it under -race.
func TestFillDedup(t *testing.T) {
	// The shield blocks the leader's fill until released, guaranteeing
	// the followers' misses arrive while the flight is open.
	gate := make(chan struct{})
	origin := shieldReply(cdn.FillOrigin)
	shield := newFakeShield(t, func(w http.ResponseWriter, req *http.Request) {
		<-gate
		origin(w, req)
	})

	s := newTestServer(t, Config{ShieldURL: shield.URL})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	regions := timeutil.AllRegions()
	var wg sync.WaitGroup
	for _, r := range regions {
		wg.Add(1)
		go func(r timeutil.Region) {
			defer wg.Done()
			rec := testRecord()
			rec.Region = r
			resp, err := http.Get(ts.URL + RequestPath(rec))
			if err != nil {
				t.Errorf("region %v: %v", r, err)
				return
			}
			resp.Body.Close()
			if got := resp.Header.Get(HeaderCache); got != trace.CacheMiss.String() {
				t.Errorf("region %v: %s = %q, want MISS", r, HeaderCache, got)
			}
		}(r)
	}
	// Wait for the leader to reach the blocked shield, give the
	// followers time to park on the flight, then release.
	deadline := time.Now().Add(5 * time.Second)
	for s.fillSF.Inflight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no fill flight ever started")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	close(gate)
	wg.Wait()

	fs := s.FillStats()
	n := int64(len(regions))
	if fs.OriginFills != 1 {
		t.Errorf("OriginFills = %d, want exactly 1 (stats %+v)", fs.OriginFills, fs)
	}
	if fs.DedupFills != n-1 {
		t.Errorf("DedupFills = %d, want %d (stats %+v)", fs.DedupFills, n-1, fs)
	}
	rec := testRecord()
	if fs.OriginFillBytes != rec.ObjectSize {
		t.Errorf("OriginFillBytes = %d, want %d", fs.OriginFillBytes, rec.ObjectSize)
	}
	if fs.DedupFillBytes != (n-1)*rec.ObjectSize {
		t.Errorf("DedupFillBytes = %d, want %d", fs.DedupFillBytes, (n-1)*rec.ObjectSize)
	}
	if got, _ := shield.seen(); got != 1 {
		t.Errorf("shield saw %d fill requests for %d concurrent misses, want 1", got, n)
	}
	// The CDN model counted one independent miss per DC regardless.
	if st := s.TotalStats(); st.Misses != n {
		t.Errorf("model misses = %d, want %d", st.Misses, n)
	}
}
